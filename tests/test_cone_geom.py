"""Rational cones, the alpha constant, and the section-limit constant."""

import random
from fractions import Fraction
from itertools import combinations
from math import exp, sqrt

import pytest

from toricount import cones
from toricount.errors import DegenerateInputError
from conftest import BUILTIN_NAMES, get_lattice
from naive_oracle import c_p_sections, naive_extreme_rays, polytope_vertices


def test_dual_cone_quadrant():
    gens = cones.dual_cone([[1, 0], [0, 1]], 2)
    assert sorted(tuple(g) for g in gens) == [(0, 1), (1, 0)]


def test_dual_cone_halfplane_pair():
    gens = cones.dual_cone([[1, 0], [1, 1]], 2)
    assert sorted(tuple(g) for g in gens) == [(0, 1), (1, -1)]


def _in_simplicial(gens, x):
    """x lies in the cone of linearly independent gens: its exact
    coordinates in them are all >= 0."""
    coords = cones.linalg.solve_exact(
        cones.linalg.transpose([list(g) for g in gens]), list(x))
    return coords is not None and all(c >= 0 for c in coords)


def test_dual_cone_involution():
    rng = random.Random(17)
    for _ in range(15):
        dim = rng.randint(2, 3)
        gens = []
        while len(gens) < dim:
            v = [rng.randint(-3, 3) for _ in range(dim)]
            if any(v) and cones.linalg.rank(gens + [v]) > len(gens):
                gens.append(v)
        dual = cones.dual_cone(gens, dim)
        back = cones.dual_cone([list(g) for g in dual], dim)
        assert len(dual) == len(back) == dim
        for g in back:
            assert _in_simplicial(gens, g)
        for g in gens:
            assert _in_simplicial(back, g)


def test_double_dual_gives_extremal_rays():
    """The dual of the dual is the cone again, by its extremal rays: the
    redundant generator (1, 1) goes."""
    gens = [[1, 0], [1, 1], [0, 1]]
    assert cones.dual_cone(cones.dual_cone(gens, 2), 2) == [(0, 1), (1, 0)]


def _seeded_generators(rng, dim):
    """At least dim + 0..3 generators, spanning Q^dim, with zero,
    repeated, rescaled and redundant (sums of others) ones among them."""
    gens, size = [], dim + rng.randint(0, 3)
    while len(gens) < size or cones.linalg.rank(gens) < dim:
        kind = rng.random()
        if kind < 0.1:
            gens.append([0] * dim)
        elif kind < 0.3 and gens:
            a, b = rng.choice(gens), rng.choice(gens)
            c = rng.randint(1, 3)
            gens.append([c * x + y for x, y in zip(a, b)])
        elif kind < 0.4 and gens:
            gens.append([rng.randint(1, 2) * x for x in rng.choice(gens)])
        else:
            gens.append([rng.randint(-3, 3) for _ in range(dim)])
    return gens


def test_dual_cone_matches_extreme_ray_oracle():
    """dual_cone keeps a double-description ray by the rank of the
    generators vanishing on it; the oracle takes the kernel of every
    rank-(d - 1) subset of generators instead."""
    rng = random.Random(29)
    for _ in range(200):
        dim = rng.randint(2, 5)
        gens = _seeded_generators(rng, dim)
        assert cones.dual_cone(gens, dim) == naive_extreme_rays(gens, dim)


def test_nu_simplicial_values():
    assert cones.nu_simplicial([(1, 0), (0, 1)], [2, 2]) == Fraction(1, 4)
    assert cones.nu_simplicial([(1,)], [2]) == Fraction(1, 2)
    assert cones.nu_simplicial([(1,)], [3]) == Fraction(1, 3)


def test_nu_scaling_invariance():
    base = cones.nu_simplicial([(1, 0), (0, 1)], [2, 2])
    assert cones.nu_simplicial([(3, 0), (0, 1)], [2, 2]) == base
    assert cones.nu_simplicial([(1, 0), (0, 7)], [2, 2]) == base


def test_nu_additive_under_apex_split():
    rng = random.Random(19)
    omega = [Fraction(2), Fraction(3)]
    for _ in range(10):
        g1 = [rng.randint(1, 4), rng.randint(0, 3)]
        g2 = [rng.randint(0, 3), rng.randint(1, 4)]
        if cones.linalg.rank([g1, g2]) < 2:
            continue
        mid = [a + b for a, b in zip(g1, g2)]
        whole = cones.nu_simplicial([g1, g2], omega)
        left = cones.nu_simplicial([g1, mid], omega)
        right = cones.nu_simplicial([mid, g2], omega)
        assert whole == left + right


@pytest.mark.parametrize("name,alpha", [("P1", Fraction(1, 2)),
                                        ("P2", Fraction(1, 3)),
                                        ("P1xP1", Fraction(1, 4)),
                                        ("P3", Fraction(1, 4))])
def test_alpha_exact_values(name, alpha):
    lat = get_lattice(name)
    got = cones.alpha_constant([list(c) for c in lat.classes],
                               list(lat.anticanonical))
    assert got == alpha


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_alpha_triangulation_invariant(name):
    lat = get_lattice(name)
    classes = [list(c) for c in lat.classes]
    omega = list(lat.anticanonical)
    a_lex = cones.alpha_constant(classes, omega, order="lex")
    a_rev = cones.alpha_constant(classes, omega, order="revlex")
    assert a_lex == a_rev


def _covers(dec, dual_gens, samples, seed=20240801):
    """Random nonnegative combinations of the dual cone's generators land in
    some cone of the decomposition."""
    rng = random.Random(seed)
    gens = [list(g) for g in dual_gens]
    for _ in range(samples):
        point = [Fraction(0)] * dec.ambient_dim
        for g in gens:
            c = Fraction(rng.randint(0, 12), rng.randint(1, 7))
            point = [a + c * b for a, b in zip(point, g)]
        if not any(_in_simplicial(c, point) for c in dec.cones):
            return False
    return True


def _intersections_proper(dec):
    """Pairwise intersections have dimension at most ambient_dim - 1."""
    for a, b in combinations(dec.cones, 2):
        shared = [g for g in a if g in set(map(tuple, b))]
        if shared and cones.linalg.rank([list(g) for g in shared]) \
                >= dec.ambient_dim:
            return False
    return True


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_decomposition_covers_and_meets_properly(name):
    lat = get_lattice(name)
    dec = cones.effective_decomposition([list(c) for c in lat.classes],
                                        list(lat.anticanonical))
    dual = cones.dual_cone([list(c) for c in lat.classes], lat.rank)
    assert _covers(dec, dual, samples=100)
    assert _intersections_proper(dec)
    assert sum(dec.nus, Fraction(0)) > 0


def test_alpha_matches_monte_carlo():
    """Exponential-measure volume of the dual effective cone, sampled."""
    lat = get_lattice("F1")
    classes = [list(c) for c in lat.classes]
    omega = list(lat.anticanonical)
    alpha = cones.alpha_constant(classes, omega)
    dual = [list(g) for g in cones.dual_cone(classes, lat.rank)]
    rng = random.Random(101)
    n = 200000
    hits = 0
    cap = 12.0
    for _ in range(n):
        y = [rng.random() * cap, rng.random() * cap]
        if all(sum(c[i] * y[i] for i in range(2)) >= 0 for c in classes):
            w = sum(omega[i] * y[i] for i in range(2))
            if rng.random() < exp(-w):
                hits += 1
    est = hits / n * cap * cap
    sigma = sqrt(est * cap * cap / n) + 1e-9
    assert abs(est - float(alpha)) < 3 * sigma + 0.02
    # the sampled region really was the dual effective cone
    for g in dual:
        assert all(sum(c[i] * g[i] for i in range(2)) >= 0 for c in classes)


def test_cp_is_inverse_factorial():
    for rho in (1, 2, 3):
        poly = cones.hyperbola_polytope([[1] * rho], [1] * rho)
        cp = cones.c_p_constant(poly)
        fact = 1
        for i in range(1, rho):
            fact *= i
        assert cp["exact"] == Fraction(1, fact)


def test_cp_section_profile():
    """Sections at sum t = (1-delta) a shrink like (1-delta)^{rho-1}, and
    their extrapolation to delta = 0 (the reference in naive_oracle) meets
    the exact face volume."""
    for rho in (2, 3):
        poly = cones.hyperbola_polytope([[1] * rho], [1] * rho)
        exact = cones.c_p_constant(poly)["exact"]
        sections, extrapolated = c_p_sections(poly)
        for d, vol in sections:
            assert vol == exact * (1 - d) ** (rho - 1)
        # linear extrapolation is exact for rho = 2, off by O(d1 d2) beyond
        assert abs(extrapolated - exact) <= Fraction(1, 100000)
    poly2 = cones.hyperbola_polytope([[1, 1]], [1, 1])
    assert c_p_sections(poly2)[1] == cones.c_p_constant(poly2)["exact"] == 1


def test_cp_rejects_degenerate_face():
    # two constraints whose top face is a vertex, not a facet
    poly = cones.hyperbola_polytope([[2, 1], [1, 2]], [1, 1])
    assert poly.face_dim == 0
    assert poly.face_vertices == [(Fraction(1, 3), Fraction(1, 3))]
    with pytest.raises(DegenerateInputError):
        cones.c_p_constant(poly)


def test_hyperbola_polytope_vertices_match_oracle():
    """The vertices read off the homogenised dual cone are those of every
    square subsystem of the inequalities that lands in P."""
    rng = random.Random(108)
    checked = 0
    while checked < 60:
        s = rng.randint(1, 4)
        rows = [[rng.randint(0, 4) for _ in range(s)]
                for _ in range(rng.randint(1, 4))]
        try:
            poly = cones.hyperbola_polytope(
                rows, [rng.randint(1, 4) for _ in range(s)])
        except DegenerateInputError:
            continue
        assert poly.vertices == polytope_vertices(poly)
        checked += 1


def test_hyperbola_polytope_validation():
    with pytest.raises(DegenerateInputError):
        cones.hyperbola_polytope([[1, 0]], [1, 1])
    with pytest.raises(DegenerateInputError):
        cones.hyperbola_polytope([[1, -1], [0, 1]], [1, 1])
    with pytest.raises(DegenerateInputError):
        cones.hyperbola_polytope([[1]], [0])
    with pytest.raises(DegenerateInputError, match="coordinate hyperplane"):
        cones.hyperbola_polytope([[1, 2]], [1, 1])


def test_triangulate_square():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    tri = cones.triangulate_polytope(verts)
    assert len(tri) == 2
    covered = set()
    for s in tri:
        assert len(s) == 3
        covered.update(s)
    assert covered == {0, 1, 2, 3}
    assert cones.triangulate_polytope(verts, order="revlex") != tri
    with pytest.raises(ValueError, match="unknown order"):
        cones.triangulate_polytope(verts, order="given")


def test_section_measure_normalization():
    """Unit segment in the diagonal hyperplane of the plane."""
    simplex = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    u = [Fraction(1), Fraction(1)]
    got = cones.section_measure(simplex, u)
    assert got == Fraction(1)
