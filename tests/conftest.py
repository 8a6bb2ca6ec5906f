import random
from fractions import Fraction

import pytest

from toricount import counting, fans
from toricount.errors import CoprimalityError
from toricount.heights import _evaluator, canonicalize

BUILTIN_NAMES = ["P1", "P2", "P1xP1", "F1", "P3"]

# smooth projective fans outside the builtins, by name: (rays, max cones)
OFF_BUILTIN_FANS = {
    "F2": ([(1, 0), (0, 1), (-1, 2), (0, -1)],
           [(0, 1), (1, 2), (2, 3), (0, 3)]),
    # P2 blown up in two torus-fixed points: 5 rays, rho = 3
    "BlP2": ([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "P1xP2": ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
              [(0, 2, 3), (0, 3, 4), (0, 2, 4), (1, 2, 3), (1, 3, 4),
               (1, 2, 4)]),
}

_cache = {}


def get_lattice(name):
    """Class lattice of a builtin fan or of one of OFF_BUILTIN_FANS."""
    if name not in _cache:
        if name in OFF_BUILTIN_FANS:
            rays, cones = OFF_BUILTIN_FANS[name]
            fan = fans.make_fan(len(rays[0]), rays, cones, name=name)
        else:
            fan = fans.builtin_fan(name)
        _cache[name] = fans.class_lattice(fan)
    return _cache[name]


@pytest.fixture(autouse=True)
def cold_shape_cache():
    """Every test starts and ends on a cold counting._compiled_shape cache,
    after its monkeypatches are undone, so no shape compiled under a
    test's stand-ins serves another test."""
    counting._compiled_shape.cache_clear()
    yield
    counting._compiled_shape.cache_clear()


@pytest.fixture
def lattice_of():
    return get_lattice


def random_points(lattice, count, seed=0, mag=50):
    """Canonical torsor points by rejection sampling."""
    rng = random.Random(seed)
    n = lattice.fan.n_rays
    out = []
    while len(out) < count:
        coords = [rng.randint(-mag, mag) for _ in range(n)]
        if any(c == 0 for c in coords):
            continue
        try:
            out.append(canonicalize(lattice, coords))
        except CoprimalityError:
            continue
    return out


def sign_orbit(lattice, coords):
    """All 2^rho sign variants identified with the given point."""
    masks = [0]
    for r in _evaluator(lattice)._sign_rows:
        masks += [m ^ r for m in masks]
    return {tuple(-y if m >> lam & 1 else y for lam, y in enumerate(coords))
            for m in masks}


def is_canonical(lattice, coords):
    """Positive on every pivot of the sign rows."""
    return all(coords[p] > 0 for p in _evaluator(lattice)._sign_pivots)


def default_boxes(rho):
    """Three distinct per-basis boxes for the archimedean_density
    ratio-invariance tests."""
    return [
        [(1, 2)] * rho,
        [(Fraction(1, 2), Fraction(3, 2))] * rho,
        [(1, 3)] + [(1, 2)] * (rho - 1),
    ]
