"""Exact rational point counts and expected counting constants for smooth
complete split toric varieties over Q, in universal torsor coordinates.

Entry points: build a fan (builtin_fan / load_fan / make_fan), take its
class_lattice, then count with enumerate_region and friends, compute the
constants with effective_decomposition and tamagawa, and check the
asymptotics with verify.Experiment.
"""

from .errors import (BudgetError, CoprimalityError, DegenerateInputError,
                     IncompleteFanError, MalformedFanError,
                     NonPrimitiveRayError, SingularConeError, TorsionError,
                     ToricountError, ValidationError)
from .fans import (Fan, ClassLattice, builtin_fan, class_lattice, load_fan,
                   make_fan, parse_fan, resolve_fan, validate_fan)
from .heights import MultiHeight, TorsorPoint, canonicalize, multi_height
from .cones import (alpha_constant, c_p_constant, dual_cone,
                    effective_decomposition, hyperbola_polytope,
                    nu_simplicial)
from .counting import (Region, anticanonical_region, coordinate_bounds,
                       count_anticanonical, count_box, count_cone_box,
                       count_translated_polyhedron, enumerate_region,
                       hyperbola_sum, region_from_json, tabulate_f)
from .tamagawa import (archimedean_density, euler_product, local_density,
                       tamagawa)
from .verify import Experiment, emit_report, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CoprimalityError", "DegenerateInputError",
    "IncompleteFanError", "MalformedFanError", "NonPrimitiveRayError",
    "SingularConeError", "TorsionError", "ToricountError", "ValidationError",
    "Fan", "ClassLattice", "builtin_fan", "class_lattice", "load_fan",
    "make_fan", "parse_fan", "resolve_fan", "validate_fan",
    "MultiHeight", "TorsorPoint", "canonicalize", "multi_height",
    "alpha_constant", "c_p_constant", "dual_cone", "effective_decomposition",
    "hyperbola_polytope", "nu_simplicial",
    "Region", "anticanonical_region", "coordinate_bounds",
    "count_anticanonical", "count_box", "count_cone_box",
    "count_translated_polyhedron", "enumerate_region", "hyperbola_sum",
    "region_from_json", "tabulate_f",
    "archimedean_density", "euler_product", "local_density", "tamagawa",
    "Experiment", "emit_report", "run_experiment",
    "__version__",
]
