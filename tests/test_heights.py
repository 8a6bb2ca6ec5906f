"""Torsor coordinates, canonical forms, and exact multi-heights.

The package's multi-height is checked for its invariants and against the
place-by-place heights of naive_oracle.PlaceHeights, which also carry the
product formula and the local heights.
"""

from fractions import Fraction
from math import log, prod

import pytest

from toricount import heights
from toricount.counting import anticanonical_region
from toricount.errors import CoprimalityError, DegenerateInputError

from conftest import (BUILTIN_NAMES, OFF_BUILTIN_FANS, get_lattice,
                      is_canonical, random_points, sign_orbit)
from naive_oracle import INF_PLACE, _membership, place_heights


def divisor_class(lat, a):
    return tuple(sum(a[l] * lat.classes[l][i] for l in range(len(a)))
                 for i in range(lat.rank))


def support_primes(coords):
    out = set()
    for y in coords:
        y = abs(y)
        p = 2
        while p * p <= y:
            if y % p == 0:
                out.add(p)
                while y % p == 0:
                    y //= p
            p += 1
        if y > 1:
            out.add(y)
    return sorted(out)


# -- canonical forms -------------------------------------------------------


def test_canonicalize_p1():
    lat = get_lattice("P1")
    pt = heights.canonicalize(lat, (3, 2))
    assert pt.canonical
    assert pt.coords == (3, 2)
    assert heights.canonicalize(lat, (-3, -2)).coords == (3, 2)


def test_canonicalize_rejects_zero_and_length():
    lat = get_lattice("P2")
    with pytest.raises(DegenerateInputError):
        heights.canonicalize(lat, (1, 0, 1))
    with pytest.raises(DegenerateInputError):
        heights.canonicalize(lat, (1, 1))


def test_canonicalize_rejects_common_factor():
    lat = get_lattice("P1")
    with pytest.raises(CoprimalityError):
        heights.canonicalize(lat, (2, 4))
    lat2 = get_lattice("P1xP1")
    # no shared prime across all coordinates, but both factor gcds exceed 1
    with pytest.raises(CoprimalityError):
        heights.canonicalize(lat2, (2, 2, 3, 3))


def test_coprimality_is_per_cone():
    lat = get_lattice("P1xP1")
    # first factor coprime, second factor coprime, mixed primes fine
    pt = heights.canonicalize(lat, (6, 35, 10, 21))
    assert pt.canonical
    ev = heights._evaluator(lat)
    assert ev.coprimality_gcd((6, 35, 10, 21)) == 1
    assert ev.coprimality_gcd((2, 2, 3, 3)) == 6


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_sign_orbit_structure(name):
    lat = get_lattice(name)
    for pt in random_points(lat, 25, seed=3):
        orbit = sign_orbit(lat, pt.coords)
        assert len(orbit) == 2 ** lat.rank
        assert all(tuple(abs(x) for x in m) ==
                   tuple(abs(x) for x in pt.coords) for m in orbit)
        canon = [m for m in orbit if is_canonical(lat, m)]
        assert canon == [pt.coords]
        for m in orbit:
            assert heights.canonicalize(lat, m).coords == pt.coords


# -- heights ---------------------------------------------------------------


def test_p1_height_is_max():
    lat = get_lattice("P1")
    mh = heights.multi_height(lat, (3, 2))
    assert mh.values == (Fraction(3),)
    assert mh.of_class((2,)) == 9


def test_p2_height_is_max():
    lat = get_lattice("P2")
    mh = heights.multi_height(lat, (42, 11, 24))
    assert mh.values == (Fraction(42),)


@pytest.mark.parametrize("name", ["P1", "P2", "P3"])
def test_projective_space_max_metric(name):
    lat = get_lattice(name)
    for pt in random_points(lat, 60, seed=11):
        mh = heights.multi_height(lat, pt)
        assert mh.values == (Fraction(max(abs(y) for y in pt.coords)),)


def test_p1_local_heights():
    lat = get_lattice("P1")
    a = (1, 0)  # the divisor D_0, class H
    oracle = place_heights(lat)
    locs = [oracle.local_height((3, 2), p, a) for p in (2, 3, INF_PLACE)]
    assert sorted(locs) == [1, 1, 3]
    total = Fraction(1)
    for v in locs:
        total *= v
    assert total == 3


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_product_formula(name):
    """Product of local heights over all relevant places equals H_[a]."""
    lat = get_lattice(name)
    n = lat.fan.n_rays
    oracle = place_heights(lat)
    for pt in random_points(lat, 12, seed=23, mag=30):
        mh = heights.multi_height(lat, pt)
        places = support_primes(pt.coords) + [INF_PLACE]
        for lam in range(n):
            a = tuple(1 if i == lam else 0 for i in range(n))
            total = Fraction(1)
            for v in places:
                total *= oracle.local_height(pt, v, a)
            assert total == mh.of_class(divisor_class(lat, a))


def test_principal_divisor_height_is_one():
    lat = get_lattice("F1")
    rays = lat.fan.rays
    oracle = place_heights(lat)
    for pt in random_points(lat, 10, seed=29, mag=20):
        for j in range(lat.fan.dim):
            a = tuple(v[j] for v in rays)  # div(chi^{e_j}), class zero
            assert divisor_class(lat, a) == (0,) * lat.rank
            places = support_primes(pt.coords) + [INF_PLACE]
            total = Fraction(1)
            for v in places:
                total *= oracle.local_height(pt, v, a)
            assert total == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_effectivity_and_coordinate_bound(name):
    lat = get_lattice(name)
    classes = lat.classes
    for pt in random_points(lat, 80, seed=5):
        mh = heights.multi_height(lat, pt)
        for lam, y in enumerate(pt.coords):
            h = mh.of_class(classes[lam])
            assert h >= 1
            assert abs(y) <= h


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_height_multiplicative_in_class(name):
    lat = get_lattice(name)
    import random as _r
    rng = _r.Random(31)
    for pt in random_points(lat, 15, seed=7):
        mh = heights.multi_height(lat, pt)
        for _ in range(4):
            c1 = [rng.randint(-2, 3) for _ in range(lat.rank)]
            c2 = [rng.randint(-2, 3) for _ in range(lat.rank)]
            c12 = [a + b for a, b in zip(c1, c2)]
            assert mh.of_class(c12) == mh.of_class(c1) * mh.of_class(c2)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_representative_independence(name):
    lat = get_lattice(name)
    for pt in random_points(lat, 10, seed=13):
        base = heights.multi_height(lat, pt).values
        for m in sign_orbit(lat, pt.coords):
            assert heights.multi_height(lat, m).values == base


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_max_monomial_matches_height_for_nef(name):
    lat = get_lattice(name)
    ev = heights._evaluator(lat)
    basis = [[1 if j == i else 0 for j in range(lat.rank)]
             for i in range(lat.rank)]
    nef = [c for c in basis if lat.is_nef(c)]
    nef.append(list(lat.anticanonical))
    # the nef split e_i = a_i - b_i that the enumerator evaluates
    a, b, _ = ev.nef_split
    for e, ai, bi in zip(basis, a, b):
        assert [x - y for x, y in zip(ai, bi)] == e
        assert lat.is_nef(ai) and lat.is_nef(bi)
    nef += a + b
    cones = range(len(lat.fan.max_cones))
    for pt in random_points(lat, 40, seed=17):
        mh = place_heights(lat).multi_height(pt)
        ay = [abs(y) for y in pt.coords]
        for c in nef:
            top = max(prod(y ** e for y, e in
                           zip(ay, lat.class_representative(s, c)))
                      for s in cones)
            assert top == mh.of_class(c)


@pytest.mark.parametrize("name", BUILTIN_NAMES + list(OFF_BUILTIN_FANS))
def test_multi_height_matches_place_by_place(name):
    """The nef-split heights equal the product over places, on canonical
    points and on every sign variant of them."""
    lat = get_lattice(name)
    oracle = place_heights(lat)
    for pt in random_points(lat, 30, seed=19):
        for m in sign_orbit(lat, pt.coords):
            assert heights.multi_height(lat, m) == oracle.multi_height(m)


@pytest.mark.parametrize("coords,error", [
    ((3, 5, 2), DegenerateInputError),
    ((0, 1, 2, 3), DegenerateInputError),
    ((2, 2, 3, 3), CoprimalityError),
    ((3.5, 5, 2, 7), DegenerateInputError)],
    ids=["short", "zero", "not_coprime", "not_integer"])
def test_multi_height_validates_its_input(coords, error):
    with pytest.raises(error):
        heights.multi_height(get_lattice("P1xP1"), coords)


def test_multi_height_accepts_raw_tuple_and_point():
    lat = get_lattice("P1xP1")
    raw = (3, 5, 2, 7)
    pt = heights.canonicalize(lat, raw)
    assert heights.multi_height(lat, raw).values == \
        heights.multi_height(lat, pt).values


# -- tropicalization and cone selection ------------------------------------


def test_tropicalize_p1():
    oracle = place_heights(get_lattice("P1"))
    assert oracle.tropicalize((12, 5), 2) == [-2]
    assert oracle.tropicalize((12, 5), 5) == [1]
    u = oracle.tropicalize((12, 5), INF_PLACE)
    assert abs(u[0] - log(Fraction(12, 5))) < 1e-12


def test_select_cone_interior():
    oracle = place_heights(get_lattice("P1"))
    assert oracle.select_cone_integer([5]) != oracle.select_cone_integer([-5])


# -- region membership ------------------------------------------------------


def test_region_membership_anticanonical():
    lat = get_lattice("P1")
    region = anticanonical_region(lat)
    mh = heights.multi_height(lat, (3, 2))
    assert _membership(region, 9)(mh.values)
    assert not _membership(region, 8)(mh.values)
