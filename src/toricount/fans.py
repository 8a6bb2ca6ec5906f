"""Fans of smooth complete split toric varieties over Q.

A fan is given by its rays (primitive integer vectors) and its maximal cones
(index sets of size dim).  Validation enforces smoothness (each maximal cone
unimodular), completeness and non-overlap (exactly, by facet pairing and
one generic point), and primitivity.

ClassLattice packages the divisor class machinery: the projection
Z^rays -> Pic = Z^rho obtained from the cokernel of the ray matrix, the ray
divisor classes, the anticanonical class, and per-cone divisor
representatives.
"""

import json
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import linalg
from .errors import (
    IncompleteFanError,
    MalformedFanError,
    NonPrimitiveRayError,
    SingularConeError,
    TorsionError,
)


@dataclass(frozen=True)
class Fan:
    dim: int
    rays: tuple
    max_cones: tuple
    name: str = ""

    @property
    def n_rays(self):
        return len(self.rays)

    def ray_matrix(self):
        """Rays as rows of an n x d integer matrix."""
        return [list(r) for r in self.rays]

    def to_dict(self):
        d = {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }
        if self.name:
            d["name"] = self.name
        return d


@dataclass
class FanDiagnostics:
    """Per-item validation verdicts; `ok` is the overall gate."""

    ray_primitive: list
    rays_distinct: bool
    cone_determinants: list
    cone_smooth: list
    facets_paired: bool
    unpaired_facets: list
    sampling_covered: bool
    overlapping_interiors: bool
    problems: list

    @property
    def ok(self):
        return not self.problems


def _check_structure(dim, rays, max_cones):
    if not isinstance(dim, int) or dim < 1:
        raise MalformedFanError("dim must be a positive integer")
    if not rays:
        raise MalformedFanError("fan has no rays")
    for i, r in enumerate(rays):
        if len(r) != dim:
            raise MalformedFanError(f"ray {i} has length {len(r)}, expected {dim}")
        if not all(isinstance(x, int) for x in r):
            raise MalformedFanError(f"ray {i} has non-integer entries")
        if all(x == 0 for x in r):
            raise MalformedFanError(f"ray {i} is zero")
    if not max_cones:
        raise MalformedFanError("fan has no maximal cones")
    n = len(rays)
    for j, c in enumerate(max_cones):
        if len(c) != dim:
            raise MalformedFanError(f"cone {j} has {len(c)} rays, expected {dim}")
        if len(set(c)) != len(c):
            raise MalformedFanError(f"cone {j} repeats a ray index")
        for i in c:
            if not isinstance(i, int) or not 0 <= i < n:
                raise MalformedFanError(f"cone {j} has invalid ray index {i}")
    if len(set(max_cones)) != len(max_cones):
        raise MalformedFanError("duplicate maximal cone")


def validate_fan(fan):
    """Run all checks and return a FanDiagnostics report (never raises)."""
    d = fan.dim
    ray_primitive = [linalg.vec_gcd(r) == 1 for r in fan.rays]
    rays_distinct = len(set(fan.rays)) == len(fan.rays)
    dets, smooth = [], []
    for c in fan.max_cones:
        dv = int(linalg.det([list(fan.rays[i]) for i in c]))
        dets.append(dv)
        smooth.append(abs(dv) == 1)

    # completeness and overlap, exactly.  When every facet of a maximal cone
    # bounds exactly two maximal cones, on opposite sides of its hyperplane,
    # the number of cones containing a point is the same off the (d-2)-faces;
    # one generic point then gives it, and it must be 1.
    facets = {}
    for j, c in enumerate(fan.max_cones):
        for f in combinations(c, d - 1):
            facets.setdefault(f, []).append(j)
    unpaired = sorted(f for f, js in facets.items() if len(js) != 2)
    facets_paired = not unpaired
    covered = True
    overlap = False
    if all(dets):
        normals = {f: linalg.primitive_vector(linalg.nullspace(
            [fan.rays[i] for i in f] or [[0] * d])[0]) for f in facets}

        def side(f, j):
            """Sign of cone j's ray off facet f against the facet normal."""
            r = next(i for i in fan.max_cones[j] if i not in f)
            v = linalg.vec_dot(normals[f], fan.rays[r])
            return (v > 0) - (v < 0)

        overlap = any(side(f, js[0]) == side(f, js[1])
                      for f, js in facets.items() if len(js) == 2)
        # off every facet hyperplane: <h, x> = sum h_j big^j with |h_j| < big
        big = 1 + max(abs(x) for h in normals.values() for x in h)
        x = [big ** j for j in range(d)]
        inside = 0
        for j, c in enumerate(fan.max_cones):
            if all((linalg.vec_dot(normals[f], x) > 0) == (side(f, j) > 0)
                   for f in combinations(c, d - 1)):
                inside += 1
        covered = inside > 0
        overlap = overlap or inside > 1

    problems = []
    for i, p in enumerate(ray_primitive):
        if not p:
            problems.append(f"ray {i} is not primitive")
    if not rays_distinct:
        problems.append("rays are not pairwise distinct")
    for j, s in enumerate(smooth):
        if not s:
            problems.append(f"cone {j} is singular (determinant {dets[j]})")
    if not facets_paired:
        problems.append(f"fan not complete: {len(unpaired)} unpaired facet(s)")
    if not covered:
        problems.append("fan not complete: a generic point lies in no cone")
    if overlap:
        problems.append("maximal cones have overlapping interiors")
    return FanDiagnostics(
        ray_primitive=ray_primitive,
        rays_distinct=rays_distinct,
        cone_determinants=dets,
        cone_smooth=smooth,
        facets_paired=facets_paired,
        unpaired_facets=unpaired,
        sampling_covered=covered,
        overlapping_interiors=overlap,
        problems=problems,
    )


def make_fan(dim, rays, max_cones, name="", validate=True):
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    max_cones = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
    _check_structure(dim, rays, max_cones)
    fan = Fan(dim=dim, rays=rays, max_cones=max_cones, name=name)
    if validate:
        diag = validate_fan(fan)
        if not diag.ok:
            msg = "; ".join(diag.problems)
            if any(not p for p in diag.ray_primitive):
                raise NonPrimitiveRayError(msg)
            if not diag.rays_distinct or diag.overlapping_interiors:
                raise MalformedFanError(msg)
            if not all(diag.cone_smooth):
                raise SingularConeError(msg)
            raise IncompleteFanError(msg)
    return fan


def parse_fan(source, validate=True):
    """Build a Fan from a JSON document (str/bytes) or an already-parsed dict."""
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as e:
            raise MalformedFanError(f"invalid JSON: {e}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise MalformedFanError("fan document must be a JSON object")
    missing = [k for k in ("dim", "rays", "max_cones") if k not in obj]
    if missing:
        raise MalformedFanError(f"missing field(s): {', '.join(missing)}")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise MalformedFanError("name must be a string")
    try:
        rays = [[int(x) for x in r] for r in obj["rays"]]
        cones = [[int(i) for i in c] for c in obj["max_cones"]]
    except (TypeError, ValueError):
        raise MalformedFanError("rays and max_cones must be arrays of integer arrays") from None
    dim = obj["dim"]
    if not isinstance(dim, int):
        raise MalformedFanError("dim must be an integer")
    return make_fan(dim, rays, cones, name=name, validate=validate)


def load_fan(path, validate=True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fan(fh.read(), validate=validate)


_BUILTINS = {
    "P1": dict(
        dim=1,
        rays=[(1,), (-1,)],
        max_cones=[(0,), (1,)],
    ),
    "P2": dict(
        dim=2,
        rays=[(1, 0), (0, 1), (-1, -1)],
        max_cones=[(0, 1), (1, 2), (0, 2)],
    ),
    "P1xP1": dict(
        dim=2,
        rays=[(1, 0), (-1, 0), (0, 1), (0, -1)],
        max_cones=[(0, 2), (0, 3), (1, 2), (1, 3)],
    ),
    # Hirzebruch surface F_1, the blowup of P^2 at a torus-fixed point
    "F1": dict(
        dim=2,
        rays=[(1, 0), (0, 1), (-1, 1), (0, -1)],
        max_cones=[(0, 1), (1, 2), (2, 3), (0, 3)],
    ),
    "P3": dict(
        dim=3,
        rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        max_cones=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    ),
}


def builtin_fan(name):
    if name not in _BUILTINS:
        raise MalformedFanError(
            f"unknown builtin fan {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        )
    spec = _BUILTINS[name]
    return make_fan(spec["dim"], spec["rays"], spec["max_cones"], name=name)


def resolve_fan(name_or_path):
    """Builtin fan name, or a path to a fan file."""
    if name_or_path in _BUILTINS:
        return builtin_fan(name_or_path)
    return load_fan(name_or_path)


class ClassLattice:
    """Divisor class data of a smooth complete fan.

    projection: rho x n integer matrix whose kernel is exactly the lattice of
    principal divisors (the column span of the ray matrix).  Canonicalized by
    Hermite row reduction so reported class vectors are reproducible.
    """

    def __init__(self, fan):
        self.fan = fan
        n, d = fan.n_rays, fan.dim
        v = fan.ray_matrix()
        kernel, divisors = linalg.left_kernel_basis(v)
        if len(divisors) != d:
            raise IncompleteFanError("rays do not span the ambient space")
        if any(dv != 1 for dv in divisors):
            raise TorsionError(
                f"divisor class group has torsion (elementary divisors {divisors})"
            )
        self.rank = n - d
        h, _, _ = linalg.hermite_row_form(kernel)
        self.projection = h
        self.classes = tuple(tuple(h[i][lam] for i in range(self.rank)) for lam in range(n))
        self.anticanonical = tuple(sum(row) for row in h)

        # integer section: projection @ section = identity on Z^rho
        s, dd, t, s_inv, t_inv = linalg.smith_normal_form(h)
        if any(dd[i][i] != 1 for i in range(self.rank)):
            raise TorsionError("projection is not surjective")  # unreachable for valid fans
        sec = linalg.mat_mul([row[: self.rank] for row in t_inv], s_inv)
        self.section = sec

        # per maximal cone: inverse of the ray basis (for m_sigma solves and
        # membership) and inverse of the projection on complement coordinates
        # (for class representatives)
        self._ray_inv = []
        self._ray_inv_t = []
        self._comp = []
        self._comp_inv = []
        for cone in fan.max_cones:
            vs = [list(fan.rays[i]) for i in cone]
            self._ray_inv.append(linalg.integer_inverse(vs))
            self._ray_inv_t.append(linalg.integer_inverse(linalg.transpose(vs)))
            in_cone = set(cone)
            comp = [lam for lam in range(n) if lam not in in_cone]
            pc = [[h[i][lam] for lam in comp] for i in range(self.rank)]
            self._comp.append(comp)
            self._comp_inv.append(linalg.integer_inverse(pc))

    def class_of_divisor(self, a):
        return tuple(linalg.mat_vec(self.projection, list(a)))

    def divisor_of_class(self, c):
        return tuple(linalg.mat_vec(self.section, list(c)))

    def m_vector(self, sigma, a):
        """The unique m with <m, v_lam> = -a_lam for all rays of cone sigma."""
        cone = self.fan.max_cones[sigma]
        rhs = [-a[i] for i in cone]
        return linalg.mat_vec(self._ray_inv[sigma], rhs)

    def cone_representative(self, sigma, a):
        """a + div(chi^{m_sigma}); vanishes on sigma's rays, same class."""
        m = self.m_vector(sigma, a)
        v = self.fan.ray_matrix()
        return tuple(a[lam] + linalg.vec_dot(v[lam], m) for lam in range(self.fan.n_rays))

    def class_representative(self, sigma, c):
        """The unique divisor of class c supported off cone sigma's rays."""
        x = linalg.mat_vec(self._comp_inv[sigma], list(c))
        w = [0] * self.fan.n_rays
        for j, lam in enumerate(self._comp[sigma]):
            w[lam] = x[j]
        return tuple(w)

    def cone_coefficients(self, sigma, u):
        """Coefficients of u in the ray basis of maximal cone sigma."""
        return linalg.mat_vec(self._ray_inv_t[sigma], list(u))

    def is_nef(self, c):
        return all(
            all(w >= 0 for w in self.class_representative(s, c))
            for s in range(len(self.fan.max_cones))
        )

    def nef_inequalities(self):
        """Integer functionals g with: c nef iff <g, c> >= 0 for all g."""
        seen = set()
        out = []
        for inv in self._comp_inv:
            for row in inv:
                key = tuple(row)
                if any(key):
                    key = tuple(linalg.primitive_vector(row))
                if key not in seen:
                    seen.add(key)
                    out.append(list(key))
        return out


def class_lattice(fan):
    return ClassLattice(fan)
