"""Exact enumeration, boxes, histograms, and hyperbola sums."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from types import SimpleNamespace

import pytest

from toricount import counting, fans, heights, linalg
from toricount.cones import dual_cone, effective_decomposition
from toricount.counting import (
    FTable, Region, WallCollisionError, anticanonical_region,
    build_box_decomposition, coordinate_bounds, count_anticanonical,
    count_box, count_cone_box, count_translated_polyhedron,
    enumerate_region, hyperbola_sum, nu_neg_cone, partition_first_coordinate,
    region_from_json, tabulate_f)
from toricount.errors import BudgetError, CoprimalityError, DegenerateInputError

from conftest import BUILTIN_NAMES, get_lattice
from naive_oracle import (ExactLog, coordinate_bounds_exactlog, naive_count,
                          sign_class_count)


# -- exact logarithmic arithmetic -------------------------------------------


def test_exactlog_basic():
    x = ExactLog({Fraction(8): Fraction(1, 3)})
    assert x.exp_floor() == 2
    assert x.sign() > 0
    assert ExactLog.zero().exp_floor() == 1
    assert ExactLog.zero().sign() == 0
    assert ExactLog({Fraction(1, 2): 1}).exp_floor() == 0


def test_exactlog_combine_collapses_equal_bases():
    b = ExactLog({Fraction(100): Fraction(1)})
    z = b.combine(b, Fraction(-1))
    assert z.terms == {}
    assert z.exp_floor() == 1
    y = b.combine(ExactLog({Fraction(100): Fraction(1, 2)}))
    assert y.terms == {Fraction(100): Fraction(3, 2)}
    assert y.exp_floor() == 1000


def test_exactlog_cmp():
    a = ExactLog({Fraction(2): 3})     # log 8
    b = ExactLog({Fraction(3): 2})     # log 9
    assert a.cmp(b) < 0
    assert b.cmp(a) > 0
    assert a.cmp(ExactLog({Fraction(8): 1})) == 0


def test_exactlog_scaled_and_fraction_powers():
    a = ExactLog({Fraction(9, 4): 1}).scaled(Fraction(1, 2))  # log(3/2)
    assert a.exp_floor() == 1
    assert a.scaled(-1).exp_floor() == 0
    with pytest.raises(DegenerateInputError):
        ExactLog({Fraction(-2): 1})


# -- regions -----------------------------------------------------------------


def test_region_contains_reference():
    lat = get_lattice("P1")
    region = anticanonical_region(lat)
    assert region.contains((Fraction(3),), 9)
    assert not region.contains((Fraction(3),), 8)
    half = Region([((Fraction(1, 2),), 1, Fraction(1, 2))])  # H^(1/2) <= B^(1/2)
    assert half.contains((Fraction(9),), 9)
    assert not half.contains((Fraction(10),), 9)


def test_region_facets_and_dedupe():
    region = Region([((1, 1), 1, 1)], facets=[(1, -1), (1, -1), (0, 1)])
    assert region.facets == ((1, -1), (0, 1))
    assert region.contains((3, 2), 100)
    assert not region.contains((2, 3), 100)   # violates h1 >= h2


def test_region_cone_generators_to_facets():
    region = Region([((1, 1), 1, 1)], cone_generators=[[1, 0], [1, 1]])
    # facets of cone{(1,0),(1,1)}: y2 >= 0 and y1 - y2 >= 0
    assert set(region.facets) == {(0, 1), (1, -1)}


def test_region_rejects_nonpositive_gamma():
    with pytest.raises(DegenerateInputError):
        Region([((1,), 0, 1)])


def test_region_from_json_shapes():
    region = region_from_json({
        "constraints": [{"class": [2, 2], "gamma": "1", "s": "1"}],
        "cone": {"generators": [[1, 0], [0, 1]]},
    })
    assert region.constraints[0].cls == (2, 2)
    assert region.constraints[0].s == 1
    assert len(region.facets) == 2
    region2 = region_from_json({"constraints": [{"class": [1]}],
                                "facets": [[1]]})
    assert region2.constraints[0].gamma == 1
    assert region2.constraints[0].s == 0
    assert region2.facets == ((1,),)


def test_region_from_json_errors():
    with pytest.raises(DegenerateInputError):
        region_from_json({"cone": {}})
    with pytest.raises(DegenerateInputError):
        region_from_json({"constraints": [{"class": [1], "gamma": 1.5}]})


# -- coordinate bounds -------------------------------------------------------


def test_coordinate_bounds_projective():
    p1 = get_lattice("P1")
    assert coordinate_bounds(p1, anticanonical_region(p1), 100) == [10, 10]
    p2 = get_lattice("P2")
    assert coordinate_bounds(p2, anticanonical_region(p2), 1000) == [10, 10, 10]
    assert coordinate_bounds(p2, anticanonical_region(p2), 999) == [9, 9, 9]


def test_coordinate_bounds_products_and_f1():
    pp = get_lattice("P1xP1")
    assert coordinate_bounds(pp, anticanonical_region(pp), 100) == [10] * 4
    f1 = get_lattice("F1")
    assert coordinate_bounds(f1, anticanonical_region(f1), 1000) == \
        [10, 31, 10, 31]


def test_coordinate_bounds_unbounded_region():
    pp = get_lattice("P1xP1")
    with pytest.raises(DegenerateInputError):
        coordinate_bounds(pp, Region([((1, 0), 1, 1)]), 100)


def test_coordinate_bounds_empty_region():
    p1 = get_lattice("P1")
    region = Region([((2,), Fraction(1, 2), 0)])
    assert coordinate_bounds(p1, region, 1) == [0, 0]
    res = enumerate_region(p1, region, 1)
    assert res.count == 0 and res.visited == 0


def test_coordinate_bounds_rejects_nonpositive_B():
    p1 = get_lattice("P1")
    with pytest.raises(DegenerateInputError):
        coordinate_bounds(p1, anticanonical_region(p1), 0)


def _bounds_or_error(fn, lat, region, B):
    try:
        return fn(lat, region, B)
    except DegenerateInputError as exc:
        return str(exc)


def _random_region(rng, lat):
    """1-3 constraints with exponents and s in (1/2)Z, 0 < gamma <= 9,
    an optional facet, and 0 < B <= 300."""
    def half(lo, hi):
        return Fraction(rng.randint(2 * lo, 2 * hi), rng.choice((1, 2)))

    cons = []
    for _ in range(rng.randint(1, 3)):
        gamma = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        cons.append((tuple(half(-2, 3) for _ in range(lat.rank)), gamma,
                     half(-1, 2)))
    facets = []
    if rng.random() < 0.4:
        facets.append(tuple(rng.randint(-1, 1) for _ in range(lat.rank)))
    B = Fraction(rng.randint(1, 300), rng.randint(1, 2))
    return Region(cons, facets=facets), B


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_coordinate_bounds_match_exactlog_oracle(name):
    """The compiled integer program against the symbolic-log vertex solve,
    on seeded random regions: equal bounds, or the same error."""
    lat = get_lattice(name)
    rng = random.Random(f"bounds-{name}")
    kinds = set()
    for _ in range(60):
        region, B = _random_region(rng, lat)
        got = _bounds_or_error(coordinate_bounds, lat, region, B)
        assert got == _bounds_or_error(coordinate_bounds_exactlog, lat,
                                       region, B), (region.constraints, B)
        kinds.add("error" if isinstance(got, str)
                  else "bounded" if any(got) else "empty")
    assert kinds == {"error", "bounded", "empty"}


def test_coordinate_bounds_pinned_oracle_cases():
    f1 = get_lattice("F1")
    half = Fraction(1, 2)
    empty = Region([((half, 1), Fraction(1, 3), 0), ((-1, half), 2, -half)],
                   facets=[(1, -1)])
    assert coordinate_bounds(f1, empty, 7) == [0] * 4
    assert coordinate_bounds_exactlog(f1, empty, 7) == [0] * 4
    unbounded = Region([((1, -half), 9, half)])
    for fn in (coordinate_bounds, coordinate_bounds_exactlog):
        with pytest.raises(DegenerateInputError, match="unbounded"):
            fn(f1, unbounded, Fraction(300, 7))
    mixed = Region([((half, 1), 5, half), ((-1, half), 2, 0)],
                   facets=[(1, 0)])
    got = coordinate_bounds(f1, mixed, Fraction(299, 2))
    assert got == coordinate_bounds_exactlog(f1, mixed, Fraction(299, 2))
    assert all(got)


def test_coordinate_bounds_compiles_once_per_shape(monkeypatch):
    """The 1 + 24 enumerations of a cone box share one constraint shape, so
    the vertex solve (its inverse calls) runs once for all of them; only
    gamma differs, and each box still gets its own exact bounds."""
    lat = get_lattice("P1xP1")
    calls = []
    inverse = linalg.inverse

    def counted(a):
        calls.append(1)
        return inverse(a)

    monkeypatch.setattr(linalg, "inverse", counted)
    region = Region([((1, 0), 20, 0), ((-1, 0), 1, 0),
                     ((0, 1), 20, 0), ((0, -1), 1, 0)])
    counting._vertex_program.cache_clear()
    coordinate_bounds(lat, region, 1)
    one_compile = len(calls)
    assert one_compile > 0

    def cone_box():
        calls.clear()
        out = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), seed=7)
        assert out["count"] == out["histogram_total"] == 260100
        assert out["kept"] == (5, 3)      # 6 * 4 box regions
        return len(calls)

    warm = cone_box()          # no compile: only the one dual-basis solve
    assert warm == 1
    counting._vertex_program.cache_clear()
    assert cone_box() == one_compile + warm

    decomp = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=7)
    boxes = [counting._box_region(decomp, (20, 20), n) for n in
             [(1, 1), (2, 3)]]
    got = [coordinate_bounds(lat, box, 1) for box in boxes]
    assert got[0] != got[1]
    assert got == [coordinate_bounds_exactlog(lat, box, 1) for box in boxes]


# -- enumeration -------------------------------------------------------------


def test_p1_frozen_counts():
    lat = get_lattice("P1")
    region = anticanonical_region(lat)
    assert enumerate_region(lat, region, 100).count == 126
    assert enumerate_region(lat, region, 1).count == 2
    assert enumerate_region(lat, region, Fraction(1, 2)).count == 0


def test_f1_count_and_callbacks_agree():
    lat = get_lattice("F1")
    region = anticanonical_region(lat)
    plain = enumerate_region(lat, region, 50)
    assert plain.count == 268

    ev = heights._evaluator(lat)
    seen = []

    def cb(coords, hvals):
        assert ev.is_canonical(coords)
        mh = heights.multi_height(lat, coords)
        assert tuple(Fraction(h) for h in hvals) == mh.values
        assert region.contains(mh.values, 50)
        seen.append(tuple(coords))

    res_cb = enumerate_region(lat, region, 50, callback=cb)
    assert res_cb.count == 268
    assert len(seen) == 268
    assert len(set(seen)) == 268

    weights = []

    def tcb(mags, hvals, weight):
        assert all(m >= 1 for m in mags)
        weights.append(weight)

    res_t = enumerate_region(lat, region, 50, tuple_callback=tcb)
    assert res_t.count == 268
    assert sum(weights) == 268
    assert set(weights) == {2 ** (lat.fan.n_rays - lat.rank)}


def test_tuple_weight_matches_sign_class_count():
    lat = get_lattice("P1xP1")
    assert sign_class_count(lat) == 2 ** (lat.fan.n_rays - lat.rank)


@pytest.mark.parametrize("name,B", [("P1", 200), ("P2", 200),
                                    ("P1xP1", 200), ("F1", 200)])
def test_oracle_equivalence_small(name, B):
    lat = get_lattice(name)
    region = anticanonical_region(lat)
    fast = enumerate_region(lat, region, B).count
    assert fast == naive_count(lat, region, B)


def test_oracle_equivalence_cone_restricted():
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat, cone_generators=[[1, 0], [1, 1]])
    fast = enumerate_region(lat, region, 100).count
    assert fast == naive_count(lat, region, 100)
    full = enumerate_region(lat, anticanonical_region(lat), 100).count
    assert 0 < fast < full


def test_oracle_equivalence_general_region():
    lat = get_lattice("F1")
    region = Region([((1, 0), 4, 0), ((0, 1), 1, 1)])
    fast = enumerate_region(lat, region, 30).count
    assert fast == naive_count(lat, region, 30)


def test_f1_counts_without_multi_height(monkeypatch):
    """F1's basis class (0,1) is not nef; its heights come from the nef
    split, never from the place-by-place evaluator."""
    def refuse(self, point):
        raise AssertionError("multi_height called by the enumerator")

    monkeypatch.setattr(heights.HeightEvaluator, "multi_height", refuse)
    lat = get_lattice("F1")
    assert enumerate_region(lat, anticanonical_region(lat),
                            10 ** 4).count == 102316
    region = Region([((1, 0), 4, 0), ((0, 1), 1, 1)])
    assert enumerate_region(lat, region, 30).count == 72924
    test_hyperbola_sandwich_f1()


def test_fan_without_ample_class_is_rejected():
    fan = fans.make_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 2),
            (-1, -1, -1)],
        [(0, 1, 4), (0, 1, 6), (0, 2, 3), (0, 2, 6), (0, 3, 4), (1, 2, 5),
         (1, 2, 6), (1, 4, 5), (2, 3, 5), (3, 4, 5)], validate=False)
    lat = fans.class_lattice(fan)
    with pytest.raises(DegenerateInputError, match="not projective"):
        enumerate_region(lat, anticanonical_region(lat), 10)


def test_monotone_in_B():
    for name in ("P1", "F1"):
        lat = get_lattice(name)
        region = anticanonical_region(lat)
        counts = [enumerate_region(lat, region, b).count
                  for b in (10, 50, 100, 200)]
        assert counts == sorted(counts)
        assert counts[0] > 0


def test_budget_dynamic():
    lat = get_lattice("P1")
    with pytest.raises(BudgetError):
        enumerate_region(lat, anticanonical_region(lat), 10 ** 6, budget=100)


def test_budget_static_precheck():
    lat = get_lattice("F1")
    # neither constraint class is nef, so no pruning is available and the
    # candidate box size check fires before any enumeration
    region = Region([((1, -1), 2, 0), ((-1, 2), 4, 0)])
    with pytest.raises(BudgetError) as exc:
        enumerate_region(lat, region, 1, budget=10)
    assert "candidate box" in str(exc.value)


def test_first_range_partition():
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat)
    B = 1000
    full = enumerate_region(lat, region, B).count
    assert full == 10372
    ranges = partition_first_coordinate(lat, region, B, 4)
    assert ranges[0][0] == 1
    assert ranges[-1][1] == coordinate_bounds(lat, region, B)[0]
    total = sum(enumerate_region(lat, region, B, first_range=r).count
                for r in ranges)
    assert total == full


def test_partition_empty_region():
    lat = get_lattice("P1")
    region = Region([((2,), Fraction(1, 2), 0)])
    assert partition_first_coordinate(lat, region, 1, 3) == [(1, 0)]


def _both_leaf_paths(lat, region, B, **kw):
    """Counts a region twice: without a callback, where the last coordinate
    is counted in closed form when no constraint has mixed sign, and with a
    tuple_callback, which walks it value by value."""
    plain = enumerate_region(lat, region, B, **kw)
    weights = []
    streamed = enumerate_region(
        lat, region, B, tuple_callback=lambda m, h, w: weights.append(w),
        **kw)
    assert plain.count == streamed.count == sum(weights)
    assert plain.visited == streamed.visited
    return plain


@pytest.mark.parametrize("name,B", [("P2", 2000), ("P3", 300),
                                    ("P1xP1", 1000), ("F1", 500)])
def test_closed_form_leaf_anticanonical(name, B):
    lat = get_lattice(name)
    assert _both_leaf_paths(lat, anticanonical_region(lat), B).count > 0


def test_closed_form_leaf_mixed_region():
    lat = get_lattice("F1")
    region = Region([((1, 0), 4, 0), ((0, 1), 1, 1)])
    assert _both_leaf_paths(lat, region, 30).count == 72924


def test_closed_form_leaf_cone_boxes():
    """Box regions carry anti-nef lower bounds H_{L_i} >= c, which raise
    the low end of the leaf interval."""
    lat = get_lattice("P1xP1")
    decomp = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=7)
    b_vec = (20, 20)
    total = 0
    for n_vec in product(*(range(1, k + 2) for k in decomp.kept(b_vec))):
        region = counting._box_region(decomp, b_vec, n_vec)
        total += _both_leaf_paths(lat, region, 1).count
    cone = count_cone_box(lat, [[1, 0], [0, 1]], b_vec, histogram=False)
    assert total == cone["count"] == 260100
    box = Region([((1, 0), 12, 0), ((-1, 0), Fraction(1, 5), 0),
                  ((0, 1), 9, 0), ((0, -1), Fraction(2, 7), 0)])
    assert _both_leaf_paths(lat, box, 1).count > 0


@pytest.mark.parametrize("name,B,low", [("P2", 20000, 7001),
                                        ("P1xP1", 3000, 1001),
                                        ("P3", 3000, 999)])
def test_closed_form_leaf_anticanonical_annulus(name, B, low):
    """low <= H_{omega^-1} <= B: the anti-nef lower end needs a root of
    order 2 to 4 of a bound that is not a perfect power."""
    lat = get_lattice(name)
    anti = [-x for x in lat.anticanonical]
    region = Region([(lat.anticanonical, B, 0), (anti, Fraction(1, low), 0)])
    full = anticanonical_region(lat)
    want = (enumerate_region(lat, full, B).count
            - enumerate_region(lat, full, low - 1).count)
    assert _both_leaf_paths(lat, region, 1).count == want > 0


@pytest.mark.parametrize("name,B", [("P1xP1", 300), ("F1", 200)])
def test_closed_form_leaf_inclusion_exclusion_facets(name, B):
    lat = get_lattice(name)
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    facet_lists = [dual_cone([list(g) for g in cone], lat.rank)
                   for cone in dec.cones]
    for k in range(1, len(facet_lists) + 1):
        for sub in combinations(facet_lists, k):
            facets = [f for fl in sub for f in fl]
            _both_leaf_paths(lat, anticanonical_region(lat, facets=facets), B)


@pytest.mark.parametrize("low", [30030, 30031])
def test_closed_form_leaf_many_primes(low):
    """The prefix magnitude 30030 = 2*3*5*7*11*13 makes the Moebius sum run
    over 2^6 divisors; low = 30031 leaves the lower end to the last
    coordinate alone."""
    lat = get_lattice("P1")
    region = Region([((1,), 30100, 0), ((-1,), Fraction(1, low), 0)])
    res = _both_leaf_paths(lat, region, 1, first_range=(30030, 30030))
    want = sum(1 for m in range(1, 30101)
               if gcd(m, 30030) == 1 and max(m, 30030) >= low)
    assert res.count == 2 * want
    assert res.visited == 1 + 30100


def test_visited_is_pinned():
    """visited counts descent nodes plus full leaf widths; these values
    predate the closed-form leaf and fix what a budget means."""
    lat = get_lattice("P1xP1")
    res = enumerate_region(lat, anticanonical_region(lat), 1000)
    assert (res.count, res.visited) == (10372, 4278)
    out = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), histogram=False)
    assert (out["count"], out["visited"]) == (260100, 102276)


# -- direct vs inclusion-exclusion -------------------------------------------


@pytest.mark.parametrize("name,B,expected", [("P2", 300, 724),
                                             ("F1", 100, 540),
                                             ("P1xP1", 200, 1732)])
def test_direct_equals_inclusion_exclusion(name, B, expected):
    lat = get_lattice(name)
    direct = count_anticanonical(lat, B, mode="direct")
    ie = count_anticanonical(lat, B, mode="inclusion_exclusion")
    assert direct["count"] == expected
    assert ie["count"] == expected
    if name == "P1xP1":
        assert ie["pieces"] >= 1


def test_inclusion_exclusion_custom_split():
    lat = get_lattice("P1xP1")
    split = SimpleNamespace(cones=[[(1, 0), (1, 1)], [(1, 1), (0, 1)]])
    direct = count_anticanonical(lat, 500, mode="direct")["count"]
    ie = count_anticanonical(lat, 500, mode="inclusion_exclusion",
                             decomposition=split)
    assert ie["count"] == direct
    assert len(ie["terms"]) == 3


def test_count_anticanonical_rejects_unknown_mode():
    lat = get_lattice("P1")
    with pytest.raises(DegenerateInputError):
        count_anticanonical(lat, 10, mode="sideways")


# -- translated polyhedra and boxes ------------------------------------------


def test_translated_polyhedron_p1():
    lat = get_lattice("P1")
    out = count_translated_polyhedron(lat, [[(1, 2)]], [Fraction(1, 2)],
                                      10 ** 4, tau=2.0)
    assert out["count"] == 36912
    assert out["nu"] == Fraction(3, 2)
    assert out["exponent"] == 1
    assert out["prediction"] == pytest.approx(3.0 * 10 ** 4)
    assert out["ratio"] == pytest.approx(36912 / 3e4)


def test_translated_polyhedron_validation():
    lat = get_lattice("P1")
    with pytest.raises(DegenerateInputError):
        count_translated_polyhedron(lat, [[(1, 2)]], [0], 100)
    with pytest.raises(DegenerateInputError):
        count_translated_polyhedron(lat, [[(2, 1)]], [Fraction(1, 2)], 100)
    with pytest.raises(DegenerateInputError):
        count_translated_polyhedron(lat, [[(0, 2)]], [Fraction(1, 2)], 100)


def test_translated_polyhedron_union_adds():
    lat = get_lattice("P1")
    u = [Fraction(1, 2)]
    both = count_translated_polyhedron(lat, [[(1, 2)], [(2, 4)]], u, 400)
    lo = count_translated_polyhedron(lat, [[(1, 2)]], u, 400)
    hi = count_translated_polyhedron(lat, [[(2, 4)]], u, 400)
    assert both["count"] == lo["count"] + hi["count"]
    assert both["nu"] == lo["nu"] + hi["nu"]


def test_count_box_frozen():
    lat = get_lattice("P1xP1")
    out = count_box(lat, [[1, 0], [0, 1]], [1, 1], [2, 2], [10, 10], tau=1.0)
    assert out["count"] == 160000
    assert out["nu"] == Fraction(9, 4)
    assert list(out["exponents"]) == [2, 2]
    assert out["ratio"] == pytest.approx(160000 / (2.25 * 10 ** 4))


def test_count_box_is_product_on_p1xp1():
    pp = get_lattice("P1xP1")
    p1 = get_lattice("P1")
    out = count_box(pp, [[1, 0], [0, 1]], [1, 1], [2, 2], [10, 10])
    region = Region([((1,), 20, 0), ((-1,), Fraction(1, 10), 0)])
    per_factor = enumerate_region(p1, region, 1).count
    assert out["count"] == per_factor ** 2


def test_count_box_validation():
    lat = get_lattice("P1xP1")
    with pytest.raises(DegenerateInputError):
        count_box(lat, [[1, 0], [0, 1]], [2, 1], [2, 2], [10, 10])
    with pytest.raises(DegenerateInputError):
        count_box(lat, [[1, 0], [0, 1]], [1, 1], [2, 2], [10, Fraction(1, 2)])
    with pytest.raises(DegenerateInputError):
        count_box(lat, [[1, 0], [2, 0]], [1, 1], [2, 2], [10, 10])
    with pytest.raises(DegenerateInputError):
        count_box(lat, [[1, 0], [0, -1]], [1, 1], [2, 2], [10, 10])


def test_nu_neg_cone_values():
    lat = get_lattice("P1xP1")
    assert nu_neg_cone(lat, [[1, 0], [0, 1]]) == Fraction(1, 4)
    assert nu_neg_cone(lat, [[1, -1], [0, 1]]) == Fraction(1, 8)
    with pytest.raises(DegenerateInputError):
        nu_neg_cone(lat, [[1, -1], [0, -1]])


# -- box decompositions and histograms ----------------------------------------


def test_box_decomposition_walls_and_locate():
    lat = get_lattice("P1")
    decomp = build_box_decomposition(lat, [[1]], ratios=[Fraction(2)])
    assert decomp.kept((8,)) == (4,)
    assert decomp.walls(8, 0, 3) == [8, 4, 2, 1]
    assert decomp.locate((8,), (8,)) == (1,)     # outer wall is closed
    assert decomp.locate((5,), (8,)) == (1,)
    assert decomp.locate((3,), (8,)) == (2,)
    with pytest.raises(WallCollisionError):
        decomp.locate((4,), (8,))                # internal wall hit
    with pytest.raises(WallCollisionError):
        decomp.locate((1,), (8,))                # 1 = 8 r^-3 is a wall too
    with pytest.raises(DegenerateInputError):
        decomp.locate((9,), (8,))


def test_box_decomposition_validation():
    lat = get_lattice("P1xP1")
    with pytest.raises(DegenerateInputError):
        build_box_decomposition(lat, [[1, 0], [0, 1]], ratios=[1, 2])
    with pytest.raises(DegenerateInputError):
        build_box_decomposition(lat, [[1, 0], [0, -1]])
    d1 = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=0)
    d2 = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=0)
    assert d1.ratios == d2.ratios
    assert all(r > 1 for r in d1.ratios)


def test_cone_box_histogram_consistency():
    lat = get_lattice("P1xP1")
    out = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), seed=7)
    assert out["count"] == 260100
    assert out["histogram_total"] == out["count"]
    assert out["empty_boxes_ok"]
    assert out["redraws"] == 0
    assert out["tail"]["ok"]
    assert out["nu_neg"] == Fraction(1, 4)
    assert sum(out["histogram"].values()) == out["count"]
    assert all(cnt > 0 for cnt in out["histogram"].values())
    kept = out["kept"]
    assert all(len(n) == 2 and n <= kept for n in out["histogram"])


def test_cone_box_wall_collision_redraw():
    lat = get_lattice("P1xP1")
    bad = build_box_decomposition(lat, [[1, 0], [0, 1]],
                                  ratios=[Fraction(20, 7), Fraction(19, 6)])
    out = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), seed=0,
                         decomposition=bad)
    assert out["redraws"] >= 1
    assert out["count"] == 260100
    assert out["histogram_total"] == out["count"]


def test_cone_box_below_one_is_empty():
    lat = get_lattice("P1xP1")
    out = count_cone_box(lat, [[1, 0], [0, 1]], (Fraction(1, 2), 20),
                         tau=1.0)
    assert out["count"] == 0
    assert out["empty_boxes_ok"]
    assert out["histogram_total"] == 0 and out["tail"]["ok"]
    assert out["prediction"] > 0 and out["ratio"] == 0


def test_cone_box_rejects_cone_outside_dual_effective():
    lat = get_lattice("P1xP1")
    with pytest.raises(DegenerateInputError):
        count_cone_box(lat, [[1, 1], [0, -1]], (10, 10))


# -- f tables and hyperbola sums ----------------------------------------------


def test_hyperbola_three_way_p1():
    lat = get_lattice("P1")
    floor_t, ceil_t = tabulate_f(lat, [[1]], [200])
    assert floor_t.variant == "floor" and ceil_t.variant == "ceil"
    direct = enumerate_region(lat, anticanonical_region(lat), 10 ** 4).count
    assert direct == 12174
    s_floor = hyperbola_sum(floor_t, [[2]], 10 ** 4)
    s_ceil = hyperbola_sum(ceil_t, [[2]], 10 ** 4)
    assert s_floor == s_ceil == direct
    # same domain written with a fractional exponent
    assert hyperbola_sum(floor_t, [[Fraction(1, 2)]], 10) == direct


def test_hyperbola_sandwich_f1():
    lat = get_lattice("F1")
    floor_t, ceil_t = tabulate_f(lat, [[1, 0], [0, 1]], [7, 16])
    for B in (50, 100, 200):
        direct = enumerate_region(lat, anticanonical_region(lat), B).count
        s_floor = hyperbola_sum(floor_t, [[3, 2]], B)
        s_ceil = hyperbola_sum(ceil_t, [[3, 2]], B)
        assert s_ceil <= direct <= s_floor


def _fraction_tables(lat, l_rows, b_max):
    """Rounded-height tables with every fingerprint built from Fractions."""
    cons = []
    for row, b in zip(l_rows, b_max):
        cons += [(row, b, 0), ([-x for x in row], 1, 0)]
    floor_d, ceil_d = {}, {}

    def cb(mags, hvals, weight):
        vals = []
        for row in l_rows:
            v = Fraction(1)
            for h, e in zip(hvals, row):
                v *= Fraction(h) ** e
            vals.append(v)
        kf = tuple(v.numerator // v.denominator for v in vals)
        kc = tuple(-(-v.numerator // v.denominator) for v in vals)
        floor_d[kf] = floor_d.get(kf, 0) + weight
        ceil_d[kc] = ceil_d.get(kc, 0) + weight

    enumerate_region(lat, Region(cons), 1, tuple_callback=cb)
    return floor_d, ceil_d


@pytest.mark.parametrize("name,l_rows,b_max", [
    ("P1xP1", [[1, 0], [0, 1]], [9, 7]),
    ("P1xP1", [[1, -1], [0, 1]], [3, 6]),
    ("F1", [[1, 0], [0, 1]], [7, 16])])
def test_tabulate_f_matches_fraction_fingerprints(name, l_rows, b_max):
    """Integer fingerprints give the tables the Fraction ones give; on F1
    the basis class (0, 1) is not nef, so its hvals are Fractions."""
    lat = get_lattice(name)
    floor_t, ceil_t = tabulate_f(lat, l_rows, b_max)
    floor_d, ceil_d = _fraction_tables(lat, l_rows, b_max)
    assert floor_t.data == floor_d and ceil_t.data == ceil_d
    assert floor_d


def test_hyperbola_sum_rational_bounds():
    """The integer membership test agrees with a Fraction evaluation for
    rational B and rational exponents."""
    lat = get_lattice("P1xP1")
    floor_t, _ = tabulate_f(lat, [[1, 0], [0, 1]], [12, 12])
    for alphas, B in [([[2, 2]], Fraction(289, 2)),
                      ([[Fraction(3, 2), Fraction(1, 2)]], Fraction(10, 3)),
                      ([[1, 0], [Fraction(1, 2), 1]], Fraction(50, 7))]:
        want = sum(cnt for y, cnt in floor_t.data.items()
                   if all(Fraction(y[0]) ** a[0] * Fraction(y[1]) ** a[1]
                          <= B for a in alphas))
        assert hyperbola_sum(floor_t, alphas, B) == want > 0


def test_ftable_mass():
    lat = get_lattice("P1")
    floor_t, _ = tabulate_f(lat, [[1]], [50])
    assert floor_t.mass((50,)) == sum(floor_t.data.values())
    assert floor_t.mass((10,)) == \
        enumerate_region(lat, anticanonical_region(lat), 100).count
    with pytest.raises(DegenerateInputError):
        floor_t.mass((51,))


def test_hyperbola_sum_validation():
    lat = get_lattice("P1")
    floor_t, _ = tabulate_f(lat, [[1]], [50])
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(floor_t, [[-1]], 10)
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(floor_t, [[1]], 300)      # cap exceeds the table
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(floor_t, [[1, 1]], 10)    # rank mismatch
    pp = get_lattice("P1xP1")
    fl, _ = tabulate_f(pp, [[1, 0], [0, 1]], [5, 5])
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(fl, [[1, 0]], 4)          # unbounded second coordinate


def test_tabulate_extra_constraints_restrict():
    lat = get_lattice("P1")
    full, _ = tabulate_f(lat, [[1]], [50])
    low, _ = tabulate_f(lat, [[1]], [50],
                        extra_constraints=[((2,), 100, 0)])
    assert sum(low.data.values()) == \
        enumerate_region(lat, anticanonical_region(lat), 100).count
    assert sum(low.data.values()) < sum(full.data.values())
