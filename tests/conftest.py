import random
from fractions import Fraction

import pytest

from toricount import fans
from toricount.errors import CoprimalityError
from toricount.heights import canonicalize

BUILTIN_NAMES = ["P1", "P2", "P1xP1", "F1", "P3"]

_cache = {}


def get_lattice(name):
    if name not in _cache:
        _cache[name] = fans.class_lattice(fans.builtin_fan(name))
    return _cache[name]


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


def default_boxes(rho):
    """Three distinct per-basis boxes for the archimedean_density
    ratio-invariance tests."""
    return [
        [(1, 2)] * rho,
        [(Fraction(1, 2), Fraction(3, 2))] * rho,
        [(1, 3)] + [(1, 2)] * (rho - 1),
    ]
