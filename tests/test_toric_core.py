"""Fan parsing and validation, divisor class lattices, integer linear algebra."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest

import toricount
from toricount import fans, linalg
from toricount.errors import (IncompleteFanError, MalformedFanError,
                              SingularConeError, TorsionError)
from conftest import BUILTIN_NAMES, get_lattice
from naive_oracle import _inverse, place_heights

# (classes, anticanonical) per fan, pinned
PINNED_CLASSES = {
    "P1": (((1,), (1,)), (2,)),
    "P2": (((1,), (1,), (1,)), (3,)),
    "P1xP1": (((1, 0), (1, 0), (0, 1), (0, 1)), (2, 2)),
    "F1": (((1, 0), (0, 1), (1, 0), (1, 1)), (3, 2)),
    "P3": (((1,), (1,), (1,), (1,)), (4,)),
    "F2": (((1, 0), (0, 1), (1, 0), (2, 1)), (4, 2)),
    "BlP2": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, 1)),
             (2, 2, 1)),
    "P1xP2": (((1, 0), (1, 0), (0, 1), (0, 1), (0, 1)), (2, 3)),
}


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _ray_matrix(fan):
    """Rays as rows of an n x d integer matrix."""
    return [list(r) for r in fan.rays]


def _class_of_divisor(lat, a):
    """The class of the divisor sum_lam a_lam D_lam, by the projection."""
    return tuple(linalg.mat_vec(lat.projection, list(a)))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_fans_validate(name):
    diag = fans.validate_fan(fans.builtin_fan(name))
    assert diag.ok, diag.problems
    assert all(diag.ray_primitive)
    assert diag.rays_distinct
    assert all(abs(d) == 1 for d in diag.cone_determinants)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rank_is_rays_minus_dim(name):
    lat = get_lattice(name)
    assert lat.rank == lat.fan.n_rays - lat.fan.dim


@pytest.mark.parametrize("name", sorted(PINNED_CLASSES))
def test_classes_pinned(name):
    lat = get_lattice(name)
    assert (lat.classes, lat.anticanonical) == PINNED_CLASSES[name]


def _is_hermite(h):
    """Row echelon with positive pivots, entries above a pivot in
    [0, pivot), and no zero row."""
    last = -1
    for i, row in enumerate(h):
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None or piv <= last or row[piv] <= 0:
            return False
        if any(not 0 <= h[k][piv] < row[piv] for k in range(i)):
            return False
        last = piv
    return True


@pytest.mark.parametrize("name", sorted(PINNED_CLASSES))
def test_projection_canonical_under_relabelling(name):
    """P V = 0, P in Hermite form, and P unimodular on the complement of
    every maximal cone: together these fix the projection uniquely."""
    base = get_lattice(name).fan
    n, d = base.n_rays, base.dim
    rng = random.Random(17)
    for _ in range(6):
        perm = list(range(n))
        rng.shuffle(perm)
        rays = [None] * n
        for old, new in enumerate(perm):
            rays[new] = base.rays[old]
        cones = [[perm[i] for i in c] for c in base.max_cones]
        lat = fans.class_lattice(fans.make_fan(d, rays, cones))
        p = lat.projection
        assert len(p) == n - d
        assert mat_mul(p, _ray_matrix(lat.fan)) == [[0] * d] * (n - d)
        assert _is_hermite(p)
        for cone in lat.fan.max_cones:
            comp = [lam for lam in range(n) if lam not in cone]
            assert abs(_leibniz([[row[lam] for lam in comp]
                                 for row in p])) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_anticanonical_is_sum_of_ray_classes(name):
    lat = get_lattice(name)
    for i in range(lat.rank):
        assert sum(c[i] for c in lat.classes) == lat.anticanonical[i]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_principal_divisors_have_zero_class(name):
    lat = get_lattice(name)
    rays = _ray_matrix(lat.fan)
    for j in range(lat.fan.dim):
        divisor = [row[j] for row in rays]
        assert _class_of_divisor(lat, divisor) == (0,) * lat.rank


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cone_representative_vanishes_on_cone(name):
    lat = get_lattice(name)
    rng = random.Random(3)
    a = [rng.randint(-5, 5) for _ in range(lat.fan.n_rays)]
    for s, cone in enumerate(lat.fan.max_cones):
        w = place_heights(lat).cone_representative(s, a)
        assert all(w[lam] == 0 for lam in cone)
        assert _class_of_divisor(lat, w) == _class_of_divisor(lat, a)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_representative_differences_are_principal(name):
    """Solved against a cone's ray basis, never via the projection itself."""
    lat = get_lattice(name)
    rays = _ray_matrix(lat.fan)
    d = lat.fan.dim
    rng = random.Random(11)
    a = [rng.randint(-5, 5) for _ in range(lat.fan.n_rays)]
    reps = [place_heights(lat).cone_representative(s, a)
            for s in range(len(lat.fan.max_cones))]
    cone0 = lat.fan.max_cones[0]
    basis = [[Fraction(x) for x in rays[i]] for i in cone0]
    for w in reps[1:]:
        diff = [x - y for x, y in zip(w, reps[0])]
        m = linalg.solve_exact(basis, [Fraction(diff[i]) for i in cone0])
        assert m is not None and all(x.denominator == 1 for x in m)
        for lam in range(lat.fan.n_rays):
            assert sum(m[j] * rays[lam][j] for j in range(d)) == diff[lam]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_class_representative_supported_off_cone(name):
    lat = get_lattice(name)
    rng = random.Random(5)
    for s, cone in enumerate(lat.fan.max_cones):
        c = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        w = lat.class_representative(s, c)
        assert all(w[lam] == 0 for lam in cone)
        assert _class_of_divisor(lat, w) == c


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_nef_inequalities_match_membership(name):
    lat = get_lattice(name)
    ineqs = lat.nef_inequalities()
    rng = random.Random(13)
    for _ in range(40):
        c = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        by_rep = lat.is_nef(c)
        by_ineq = all(sum(g[i] * c[i] for i in range(lat.rank)) >= 0
                      for g in ineqs)
        assert by_rep == by_ineq


def test_basis_nef_flags():
    for name, flags in [("P1", [True]), ("P2", [True]),
                        ("P1xP1", [True, True]), ("F1", [True, False]),
                        ("P3", [True])]:
        lat = get_lattice(name)
        got = [lat.is_nef(tuple(1 if j == i else 0 for j in range(lat.rank)))
               for i in range(lat.rank)]
        assert got == flags, name


def test_fan_json_roundtrip(tmp_path):
    fan = fans.builtin_fan("F1")
    text = json.dumps(fan.to_dict())
    again = fans.parse_fan(text)
    assert again.rays == fan.rays and again.max_cones == fan.max_cones
    p = tmp_path / "f1.json"
    p.write_text(text)
    loaded = fans.load_fan(str(p))
    assert loaded.rays == fan.rays
    assert fans.resolve_fan(str(p)).rays == fan.rays
    assert fans.resolve_fan("F1").rays == fan.rays


def test_malformed_fans_rejected():
    with pytest.raises(MalformedFanError):
        fans.make_fan(2, [(1, 0)], [(0,)])
    with pytest.raises(MalformedFanError):
        fans.make_fan(2, [(1, 0), (0, 0)], [(0, 1)])
    with pytest.raises(MalformedFanError):
        fans.make_fan(2, [(1, 0), (0, 1)], [(0, 0)])
    with pytest.raises(MalformedFanError):
        fans.parse_fan("{not json")
    with pytest.raises(MalformedFanError):
        fans.builtin_fan("P7")


def test_bad_geometry_reported():
    fan = fans.make_fan(2, [(2, 0), (0, 1), (-2, -1)],
                        [(0, 1), (1, 2), (2, 0)], validate=False)
    diag = fans.validate_fan(fan)
    assert not diag.ok
    assert not diag.ray_primitive[0]

    fan = fans.make_fan(2, [(1, 0), (1, 2), (-1, -1)],
                        [(0, 1), (1, 2), (2, 0)], validate=False)
    diag = fans.validate_fan(fan)
    assert not all(diag.cone_smooth)

    half = fans.make_fan(2, [(1, 0), (0, 1)], [(0, 1)], validate=False)
    diag = fans.validate_fan(half)
    assert not diag.ok


def test_overlapping_cones_rejected():
    """Every facet is paired, yet (1, 5, 9) lies inside three cones."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 2),
            (-1, -1, -1)]
    cones = [(0, 1, 4), (0, 1, 6), (0, 2, 3), (0, 2, 6), (0, 3, 4),
             (1, 2, 5), (1, 2, 6), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    with pytest.raises(MalformedFanError, match="overlapping"):
        fans.make_fan(3, rays, cones)
    diag = fans.validate_fan(fans.make_fan(3, rays, cones, validate=False))
    assert diag.facets_paired and diag.overlapping_interiors
    # folds back at (0,-1), where the generic point (1, N) sees one cone
    fold = fans.make_fan(2, [(-1, 0), (0, -1), (-1, -1), (0, 1), (1, 0),
                             (1, -1)],
                         [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
                         validate=False)
    # winds twice around the origin without folding
    twice = fans.make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1),
                              (-1, 1), (-1, -1), (1, -1)],
                          [(i, (i + 1) % 8) for i in range(8)],
                          validate=False)
    for fan in (fold, twice):
        diag = fans.validate_fan(fan)
        assert diag.facets_paired and diag.sampling_covered
        assert diag.overlapping_interiors


def test_torsion_class_group_rejected():
    fan = fans.make_fan(2, [(2, 1), (0, 1), (-2, -1)],
                        [(0, 1), (1, 2), (2, 0)], validate=False)
    with pytest.raises(TorsionError):
        fans.class_lattice(fan)


def test_singular_torsion_free_fan_rejected():
    """Torsion-free, with unimodular cones beside singular ones, and with
    no unimodular maximal cone though two rays form a basis."""
    fan = fans.make_fan(2, [(1, 0), (1, 2), (-1, 0), (0, -1)],
                        [(0, 1), (1, 2), (2, 3), (0, 3)], validate=False)
    with pytest.raises(SingularConeError):
        fans.class_lattice(fan)
    fan = fans.make_fan(2, [(1, 0), (0, 1), (1, 2)], [(0, 2)],
                        validate=False)
    with pytest.raises(SingularConeError):
        fans.class_lattice(fan)


def test_nonspanning_rays_rejected():
    fan = fans.make_fan(2, [(1, 0), (-1, 0)], [(0, 1)], validate=False)
    with pytest.raises(IncompleteFanError):
        fans.class_lattice(fan)


# -- integer linear algebra ---------------------------------------------------

def _random_int_matrix(rng, n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _minor_gcd(a, k):
    """The gcd of the k x k minors of a."""
    return gcd(*(_leibniz([[a[r][c] for c in cs] for r in rs])
                 for rs in combinations(range(len(a)), k)
                 for cs in combinations(range(len(a[0])), k)))


def test_hermite_row_form_properties():
    """h is in row Hermite form, with its r = rank(a) nonzero rows first,
    and spans the row lattice of a.  Every row of a reduces to zero against
    the pivots of h, so a's lattice lies in h's; both have rank r, and the
    index of the one in the other is the ratio of their gcds of r x r
    minors, which are equal, so the lattices are."""
    rng = random.Random(23)
    for _ in range(60):
        a = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4),
                               -4, 4)
        if len(a) > 1 and rng.random() < 0.3:
            a[-1] = [x - 2 * y for x, y in zip(a[0], a[1])]
        h = linalg.hermite_row_form(a)
        r = _minor_rank(a)
        assert len(h) == len(a) and not any(any(row) for row in h[r:])
        assert _is_hermite(h[:r])
        for row in a:
            for base in h[:r]:
                piv = next(j for j, x in enumerate(base) if x)
                assert row[piv] % base[piv] == 0
                q = row[piv] // base[piv]
                row = [x - q * y for x, y in zip(row, base)]
            assert not any(row)
        if r:
            assert _minor_gcd(h[:r], r) == _minor_gcd(a, r)


def test_solve_and_inverse_exact():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-9, 9)) for _ in range(n)]
             for _ in range(n)]
        if linalg.det(a) == 0:
            continue
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        x = linalg.solve_exact(a, b)
        assert [linalg.vec_dot(row, x) for row in a] == b
        d, m = linalg.fraction_free_inverse([[int(x) for x in row]
                                             for row in a])
        assert [[Fraction(x, d) for x in row] for row in m] == _inverse(a)


def test_solve_exact_singular_returns_none():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve_exact(a, [Fraction(1), Fraction(3)]) is None


def _leibniz(a):
    n = len(a)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n)
                           for j in range(i + 1, n))
               * prod(a[i][p[i]] for i in range(n))
               for p in permutations(range(n)))


def _minor_rank(a):
    """The largest k with a nonzero k x k minor."""
    cols = range(len(a[0]))
    return max((k for k in range(1, min(len(a), len(a[0])) + 1)
                for rs in combinations(range(len(a)), k)
                for cs in combinations(cols, k)
                if _leibniz([[a[r][c] for c in cs] for r in rs])), default=0)


def test_elimination_properties():
    """rank, nullspace, det, fraction_free_inverse (against the oracle's
    _inverse, rows cleared first) and solve_exact on seeded random
    matrices, singular ones and inconsistent systems included;
    consistency is decided independently, by the minors of a and of a
    augmented with b.  Half are integer matrices; the other half have
    entries with denominators 1-6, which every entry point clears row by
    row, so det's scale and the sign of its row swaps are checked against
    the Leibniz formula."""
    seen = set()
    for seed, rational in ((41, False), (47, True)):
        rng = random.Random(seed)
        for _ in range(300):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = _random_int_matrix(rng, n, m, -3, 3)
            if rational:
                a = [[Fraction(x, rng.randint(1, 6)) for x in row]
                     for row in a]
            if n > 1 and rng.random() < 0.3:
                a[-1] = [2 * x for x in a[0]]
            null = linalg.nullspace(a)
            assert linalg.rank(a) == _minor_rank(a)
            assert linalg.rank(a) + len(null) == m
            assert all(linalg.mat_vec(a, x) == [0] * n for x in null)
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 6) if rational
                          else 1) for _ in range(n)]
            if rng.random() < 0.5:
                b = linalg.mat_vec(a, [rng.randint(-2, 2) for _ in range(m)])
            x = linalg.solve_exact(a, b)
            consistent = _minor_rank(a) == _minor_rank(
                [row + [y] for row, y in zip(a, b)])
            assert (x is not None) == consistent
            assert x is None or linalg.mat_vec(a, x) == b
            seen.add((rational, "consistent", consistent))
            if n == m:
                d = linalg.det(a)
                assert d == _leibniz(a)
                seen.add((rational, "singular", d == 0))
                rows = [linalg.cleared(row) for row in a]
                solved = linalg.fraction_free_inverse([e for e, _ in rows])
                if d:
                    # a = diag(1/k) E, so a^-1 = E^-1 diag(k) = m diag(k) / d
                    e_det, m = solved
                    assert [[Fraction(x * k, e_det) for x, (_, k) in
                             zip(row, rows)] for row in m] == _inverse(a)
                else:
                    assert solved is None and _inverse(a) is None
    assert len(seen) == 8


def test_fraction_free_inverse_properties():
    """On seeded integer matrices of sizes 1-6 with entries in [-9, 9],
    some made singular by a repeated or combined row or a zero column:
    None exactly when det(a) == 0, else (d, m) with a m = d I and d the
    determinant up to sign, all integers."""
    rng = random.Random(43)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        a = _random_int_matrix(rng, n, n)
        kind = rng.random()
        if n > 1 and kind < 0.15:
            a[-1] = list(a[0])
        elif n > 1 and kind < 0.3:
            a[-1] = [x - 3 * y for x, y in zip(a[0], a[1])]
        elif kind < 0.35:
            for row in a:
                row[-1] = 0
        solved = linalg.fraction_free_inverse(a)
        det = linalg.det(a)
        assert (solved is None) == (det == 0)
        seen.add(det == 0)
        if solved is not None:
            d, m = solved
            assert all(type(x) is int for x in [d] + sum(m, []))
            assert abs(d) == abs(det)
            assert mat_mul(a, m) == [[d * x for x in row]
                                     for row in _identity(n)]
    assert seen == {True, False}


def test_integer_inverse_unimodular():
    a = [[1, 2], [1, 3]]
    inv = linalg.integer_inverse(a)
    assert mat_mul(a, inv) == _identity(2)


def test_iroot_boundaries():
    for n in (1, 2, 3, 10, 31, 99):
        for k in (1, 2, 3, 5):
            assert linalg.iroot(n ** k, k) == n
            assert linalg.iroot(n ** k - 1, k) == n - 1
            if k > 1:
                assert linalg.iroot(n ** k + 1, k) == n


def _newton_iroot(x, k):
    """Integer Newton iteration alone, the reference for linalg.iroot."""
    if x in (0, 1) or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@pytest.mark.parametrize("k", range(1, 7))
def test_iroot_matches_newton(k):
    """Around r^k for r on both sides of 2^(52/k), where the float seed
    gives way to Newton, and of 2^(64/k)."""
    rs = {1, 2, 3}
    for bits in (52, 64):
        edge = round(2 ** (bits / k))
        rs.update(range(max(1, edge - 3), edge + 4))
    rng = random.Random(k)
    rs.update(rng.randrange(1, 2 ** (80 // k)) for _ in range(200))
    for r in sorted(rs):
        for x in (r ** k - 1, r ** k, r ** k + 1):
            assert linalg.iroot(x, k) == _newton_iroot(x, k), (x, k)


def test_floor_rational_power():
    assert linalg.floor_rational_power(Fraction(1000), 1, 2) == 31
    assert linalg.floor_rational_power(Fraction(1000), 1, 3) == 10
    assert linalg.floor_rational_power(Fraction(961), 1, 2) == 31
    assert linalg.floor_rational_power(Fraction(960), 1, 2) == 30
    assert linalg.floor_rational_power(Fraction(7, 2), 2, 1) == 12
    assert linalg.floor_rational_power(Fraction(1, 2), 1, 1) == 0


def test_primitive_vector():
    assert linalg.cleared([Fraction(1, 2), 3, Fraction(-1, 3)]) == \
        ((3, 18, -2), 6)
    assert linalg.cleared([4, -6]) == ((4, -6), 1)
    assert linalg.primitive_vector([4, -6]) == [2, -3]
    assert linalg.primitive_vector([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]


def test_public_names_resolve():
    assert [n for n in toricount.__all__ if not hasattr(toricount, n)] == []
