"""Exact enumeration, boxes, histograms, and hyperbola sums."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt, lcm, prod
from types import SimpleNamespace

import pytest

from toricount import counting, fans, heights, linalg
from toricount.cones import (dual_cone, effective_decomposition,
                             nu_simplicial)
from toricount.counting import (
    DEFAULT_BUDGET, Region, anticanonical_region,
    build_box_decomposition, coordinate_bounds, count_anticanonical,
    count_box, count_cone_box, count_translated_polyhedron,
    enumerate_region, hyperbola_sum, region_from_json, tabulate_f)
from toricount.errors import BudgetError, CoprimalityError, DegenerateInputError

from conftest import BUILTIN_NAMES, OFF_BUILTIN_FANS, get_lattice
from naive_oracle import (ExactLog, _membership, _naive_points, _unit_box,
                          coordinate_bounds_exactlog, naive_box_histogram,
                          naive_count, naive_tables, sign_class_count,
                          vertex_program_fractions)


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
    assert _membership(region, 9)((Fraction(3),))
    assert not _membership(region, 8)((Fraction(3),))
    half = Region([((Fraction(1, 2),), 1, Fraction(1, 2))])  # H^(1/2) <= B^(1/2)
    assert _membership(half, 9)((Fraction(9),))
    assert not _membership(half, 9)((Fraction(10),))


def test_region_facets_and_dedupe():
    region = Region([((1, 1), 1, 1)], facets=[(1, -1), (1, -1), (0, 1)])
    assert region.facets == ((1, -1), (0, 1))
    assert _membership(region, 100)((3, 2))
    assert not _membership(region, 100)((2, 3))   # violates h1 >= h2


def test_region_clears_rational_facets():
    """A rational facet is cleared to an integer vector, not truncated:
    (1/2, -3/2) is the cone H_1 >= H_2^3, and int() of each entry would
    have made it (0, -1)."""
    region = Region([((1, 0), 10, 0)],
                    facets=[(Fraction(1, 2), Fraction(-3, 2))])
    assert region.facets == ((1, -3),)
    assert _membership(region, 1)((8, 2))
    assert not _membership(region, 1)((7, 2))
    assert Region([((1,), 5, 0)], facets=[(2,)]).facets == ((2,),)


def test_region_from_json_facet_entries():
    """JSON facet entries parse like class entries: "p/q" strings are
    rationals, and floats are refused."""
    region = region_from_json({"constraints": [{"class": [1, 0]}],
                               "facets": [["1/2", "-3/2"], [0, 1]]})
    assert region.facets == ((1, -3), (0, 1))
    with pytest.raises(DegenerateInputError):
        region_from_json({"constraints": [{"class": [1, 0]}],
                          "facets": [[0.5, -1.5]]})


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
    """Malformed region JSON is a DegenerateInputError: when it is parsed,
    or, for a length that does not match the rank, when the region is
    compiled, here on P1xP1 (rho = 2)."""
    pp = get_lattice("P1xP1")
    anti = {"class": [2, 2], "s": 1}
    for obj in [
            {"cone": {}},
            {"constraints": [{"class": [1], "gamma": 1.5}]},
            {"constraints": [{"gamma": 1}]},
            {"constraints": [[2, 2]]},
            {"constraints": [{"class": ["x", 2]}]},
            {"constraints": [{"class": [2]}]},
            {"constraints": [{"class": [2, 2, 2], "s": 1}]},
            {"constraints": [anti], "facets": [[1]]},
            {"constraints": [anti], "cone": {"generators": [[1, 0],
                                                            [1, 1, 0]]}}]:
        with pytest.raises(DegenerateInputError):
            enumerate_region(pp, region_from_json(obj), 100)


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


def _pipeline_boxes(lat, monkeypatch):
    """The box regions that the cone-box and hyperbola pipelines build on
    the basis rows, as they build them: every corner of a count_cone_box
    at B_i = 12 on seeded walls (~2^28 denominators), the corners at the
    wall below 1 included, and every staircase box of tabulate_f up to B =
    60, with the strict walls hi + 1 - 1/D (and lo - 1 + 1/D on the
    ceiling table of a row that is not nef)."""
    rho = lat.rank
    rows = [[int(i == j) for j in range(rho)] for i in range(rho)]
    boxes, box_region = [], counting._box_region

    def recorded(*args):
        boxes.append(box_region(*args))
        return boxes[-1]

    with monkeypatch.context() as mp:
        mp.setattr(counting, "_box_region", recorded)
        cone = count_cone_box(lat, rows, [12] * rho, seed=11)
        corners = len(boxes)
        tabulate_f(lat, rows, [counting._dual_basis_data(lat, rows)[0]],
                   [20, 60])
    assert cone["empty_boxes_ok"] and corners == prod(
        k + 1 for k in cone["kept"])
    return boxes


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_coordinate_bounds_match_exactlog_oracle(name, monkeypatch):
    """The compiled integer program against the symbolic-log vertex solve,
    on seeded random regions and on the boxes the pipelines build
    (_pipeline_boxes): equal bounds, or the same error."""
    lat = get_lattice(name)
    rng = random.Random(f"bounds-{name}")
    inputs = [_random_region(rng, lat) for _ in range(60)]
    inputs += [(box, 1) for box in _pipeline_boxes(lat, monkeypatch)]
    kinds = set()
    for region, B in inputs:
        got = _bounds_or_error(coordinate_bounds, lat, region, B)
        assert got == _bounds_or_error(coordinate_bounds_exactlog, lat,
                                       region, B), (region.constraints, B)
        kinds.add("error" if isinstance(got, str)
                  else "bounded" if any(got) else "empty")
    assert kinds == {"error", "bounded", "empty"}


@pytest.mark.parametrize("name", BUILTIN_NAMES + list(OFF_BUILTIN_FANS))
def test_vertex_program_matches_fraction_oracle(name):
    """The fraction-free vertex program gives the very (program, limit)
    tuples of the Fraction solve, or the same error, on the anticanonical,
    cone-box corner, lower-wall box, staircase box and cut-off box shapes,
    and on a builtin fan
    also on the seeded regions of test_coordinate_bounds_match_exactlog_oracle,
    whose rows and slopes lie in (1/2)Z."""
    lat = get_lattice(name)
    rows = [[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)]
    ones, caps = [1] * lat.rank, [20] * lat.rank
    regions = [anticanonical_region(lat),
               counting._box_region(rows, ones, caps),
               _unit_box(rows, caps),
               counting._box_region(rows, [2] * lat.rank, caps),
               Region(counting._box_region(rows, ones, caps).constraints
                      + ((lat.anticanonical, 32, 1),), facets=rows)]
    if name in BUILTIN_NAMES:
        rng = random.Random(f"bounds-{name}")
        regions += [_random_region(rng, lat)[0] for _ in range(60)]

    def program(fn, shape):
        try:
            return fn(lat.classes, *shape)
        except DegenerateInputError as exc:
            return str(exc)

    for region in regions:
        assert program(counting._vertex_program, region.shape) \
            == program(vertex_program_fractions, region.shape), region.shape


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
    """The 24 corner enumerations of a cone box share one constraint shape,
    so the vertex solve (_vertex_program) runs once for all of them; only
    gamma differs, and each box still gets its own exact bounds.  On a
    cold cache a count_cone_box call compiles one shape, and a tabulate_f
    call one per distinct box shape: which rows have their lower wall at 1
    (a facet).  Its staircase boxes, whose first row starts at 1 or above
    it, make two, and _denominators' box shares the first."""
    lat = get_lattice("P1xP1")
    calls = []
    vertex_program = counting._vertex_program

    def counted(*shape):
        calls.append(1)
        return vertex_program(*shape)

    monkeypatch.setattr(counting, "_vertex_program", counted)
    region = counting._box_region([[1, 0], [0, 1]], [1, 1], (20, 20))
    counting._compiled_shape.cache_clear()
    coordinate_bounds(lat, region, 1)
    assert len(calls) == 1

    def cone_box():
        calls.clear()
        out = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), seed=7)
        assert out["count"] == out["histogram_total"] == 260100
        assert out["kept"] == (5, 3)      # 6 * 4 corners
        return len(calls)

    assert cone_box() == 0     # warm: no compile
    counting._compiled_shape.cache_clear()
    assert cone_box() == 1
    assert counting._compiled_shape.cache_info().misses == 1
    for name in ("P1xP1", "F1"):
        counting._compiled_shape.cache_clear()
        staircase = get_lattice(name)
        alphas = counting._dual_basis_data(staircase, [[1, 0], [0, 1]])[0]
        tables = tabulate_f(staircase, [[1, 0], [0, 1]], [alphas], [20, 60])
        assert tables[0].data.keys() == tables[1].data.keys()
        shapes = {tuple(lo == 1 for lo, _ in box) for box in tables[0].data}
        assert counting._compiled_shape.cache_info().misses == len(shapes) \
            == 2

    decomp = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=7)
    boxes = [_box(decomp, (20, 20), n) for n in [(1, 1), (2, 3)]]
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
    """F1 at B = 50 against the brute-force oracle, which streams every
    canonical point through the place-by-place multi_height."""
    lat = get_lattice("F1")
    region = anticanonical_region(lat)
    assert enumerate_region(lat, region, 50).count == 268
    assert naive_count(lat, region, 50) == 268


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
    """F1's basis class (0,1) is not nef; the enumerator reads its heights
    off the nef split's monomials, never through a per-point multi_height."""
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


def _slices(cap, parts):
    """[1, cap] cut into `parts` contiguous first_range slices of equal
    width, the last one possibly shorter."""
    step = -(-cap // parts)
    return [(lo, min(cap, lo + step - 1)) for lo in range(1, cap + 1, step)]


def test_first_range_partition():
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat)
    B = 1000
    full = enumerate_region(lat, region, B)
    assert full.count == 10372
    bounds = coordinate_bounds(lat, region, B)
    ranges = _slices(bounds[full.order[0]], 4)
    assert ranges[0][0] == 1
    assert ranges[-1][1] == bounds[0]
    runs = [enumerate_region(lat, region, B, first_range=r) for r in ranges]
    assert sum(r.count for r in runs) == full.count
    # the memo lives for one call, so visited stays additive: each part
    # adds one root node of its own
    assert len(ranges) == 4 and all(r.reused for r in runs)
    assert sum(r.visited for r in runs) == full.visited + len(ranges) - 1


@contextmanager
def _forced(order, **patches):
    """counting with every region shape descending in `order` and with the
    stand-ins `patches` (attribute name -> value) in place.  Tests that
    switch off part of the signature program force the order too, so that
    both runs descend alike.  A shape compiled before the patch would
    bypass it, and one compiled under it must not outlive it, so the shape
    cache is cleared on the way in and on the way out.  Yields
    enumerate_region, which inside the context (for counting's own callers
    too) asserts that every result reports `order`."""
    order = tuple(order)

    def checked(*args, **kw):
        res = enumerate_region(*args, **kw)
        assert res.order == order
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_descent_order", lambda *args: order)
        mp.setattr(counting, "enumerate_region", checked)
        for name, value in patches.items():
            mp.setattr(counting, name, value)
        counting._compiled_shape.cache_clear()
        yield checked
    counting._compiled_shape.cache_clear()


def _memo_on_and_off(lat, region, B, **kw):
    """Counts a region twice: as is, and with the signature memo and the
    runs switched off, which descends every prefix and never reuses a
    subtree.  Both descend in the order chosen for the first, and agree on
    count and visited.  Both count each leaf by the same closed form, so
    naive_count is the independent check of that."""
    plain = enumerate_region(lat, region, B, **kw)
    with _forced(plain.order, _signature_program=lambda *a: {}) as run:
        walked = run(lat, region, B, **kw)
    assert (plain.count, plain.visited) == (walked.count, walked.visited)
    assert walked.reused == 0
    return plain


@pytest.mark.parametrize("name,B", [("P2", 2000), ("P3", 300),
                                    ("P1xP1", 1000), ("F1", 500)])
def test_closed_form_leaf_anticanonical(name, B):
    lat = get_lattice(name)
    region = anticanonical_region(lat)
    assert _memo_on_and_off(lat, region, B).count == naive_count(
        lat, region, B) > 0


def test_closed_form_leaf_mixed_region():
    lat = get_lattice("F1")
    region = Region([((1, 0), 4, 0), ((0, 1), 1, 1)])
    assert _memo_on_and_off(lat, region, 30).count == 72924


def _f1_box():
    """1 <= H_(1,0) <= 10, 1 <= H_(0,1) <= 31 on F1: the class (0,1) is
    not nef, so both of its bounds have mixed sign."""
    return get_lattice("F1"), counting._box_region([[1, 0], [0, 1]], [1, 1],
                                                   [10, 31])


def test_mixed_leaf_f1_box():
    """The lower wall of (0, 1), a facet on an effective row, is dropped by
    the compile; its upper wall is the one mixed constraint."""
    lat, box = _f1_box()
    assert _mixed_split(lat, box) == [(0, 1)]
    res = enumerate_region(lat, box, 1)
    assert (res.count, res.visited) == (1040804, 605751)


def test_mixed_leaf_tests_no_candidate(monkeypatch):
    """The mixed constraints are cut into pieces in closed form at each
    leaf: _sides evaluates the bounds and caps of the call, never one of
    the box's 605,751 candidates, nor one of its leaves."""
    sides, calls = counting._sides, [0]

    def counted(*args):
        calls[0] += 1
        return sides(*args)

    monkeypatch.setattr(counting, "_sides", counted)
    lat, box = _f1_box()
    assert enumerate_region(lat, box, 1).count == 1040804
    assert 0 < calls[0] < 1000


def _mixed_split(lat, region):
    """The class e of every mixed constraint of the region's compiled
    shape, in order, each checked against its nef split: the compiled
    lists are the per-cone monomials of nef classes a and b, relabelled by
    the shape's order, with a - b = e, and they are monomials(a) and
    monomials(b) of HeightEvaluator.split(e).  The mixed rows are read off
    the region itself: its constraints, then its facets f as -f, each
    cleared to integers, less the facets on the effective cone."""
    shape = counting._compiled_shape(lat, region.shape)
    ev = heights._evaluator(lat)
    eff_dual = dual_cone([list(c) for c in lat.classes], lat.rank)
    rows = [tuple(q) + (s,) for q, s in zip(*region.shape[:2])] + [
        tuple(-x for x in f) + (0,) for f in region.facets
        if any(linalg.vec_dot(f, g) < 0 for g in eff_dual)]
    want = []
    for row in rows:
        e = linalg.cleared(row)[0][:-1]
        if not (lat.is_nef(e) or lat.is_nef([-x for x in e])):
            want.append(e)

    def relabelled(w):
        return tuple(w[lam] for lam in shape.order)

    def class_of(w):  # w in the shape's labels
        return tuple(sum(x * lat.classes[lam][i]
                         for x, lam in zip(w, shape.order))
                     for i in range(lat.rank))

    got = []
    for _, (left, right) in shape.mixed:
        (a,), (b,) = {class_of(w) for w in left}, {class_of(w) for w in right}
        assert lat.is_nef(a) and lat.is_nef(b)
        e = tuple(x - y for x, y in zip(a, b))
        assert [left, right] == [[relabelled(w) for w in ev.monomials(c)]
                                 for c in ev.split(e)]
        got.append(e)
    assert got == want
    return got


def _mixed_regions(lat, rng):
    """Seeded regions with a mixed constraint on the lattice: random
    regions, boxes on the Picard basis with rational walls, and the
    inclusion-exclusion terms of the anticanonical count."""
    out = []
    while len(out) < 12:
        region, _ = _random_region(rng, lat)
        out.append(region)
    for _ in range(4):
        highs = [Fraction(rng.randint(3, 30), rng.randint(1, 3))
                 for _ in range(lat.rank)]
        lows = [h / rng.randint(2, 9) for h in highs]
        basis = [[int(i == j) for j in range(lat.rank)]
                 for i in range(lat.rank)]
        out.append(counting._box_region(basis, lows, highs))
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    facet_lists = [dual_cone([list(g) for g in cone], lat.rank)
                   for cone in dec.cones]
    for k in range(1, len(facet_lists) + 1):
        for sub in combinations(facet_lists, k):
            out.append(anticanonical_region(
                lat, facets=[f for fl in sub for f in fl]))
    return out


@pytest.mark.parametrize("name", ["F1", "F2", "BlP2", "dP6"])
def test_each_mixed_constraint_is_split_once(name):
    """Every mixed constraint of seeded regions compiles to the nef split
    of its own class (_mixed_split), on the fans with a basis class that
    is not nef; on dP6 some of them span three or more basis classes."""
    lat = _dp6() if name == "dP6" else get_lattice(name)
    rng = random.Random(f"split-{name}")
    classes = []
    for region in _mixed_regions(lat, rng):
        try:
            classes += _mixed_split(lat, region)
        except DegenerateInputError:  # an unbounded random region
            continue
    assert len(classes) >= 10
    if name == "dP6":
        assert max(sum(map(bool, e)) for e in classes) >= 3


def test_leaf_pieces_match_the_walk():
    """_leaf_pieces on seeded random constraints, each a left and a right
    list of (coefficient, exponent of m) terms, against the per-candidate
    test max_a L_a m^a <= max_b R_b m^b on every m of [lo, 60].  Terms of
    the left side that fail on nested gaps, roots and ceiling roots that
    land exactly on an integer (a right term built as L_a t^(a-b) from a
    left one), and terms of one side that share an exponent of m occur
    among them."""
    rng = random.Random(3)

    def side():
        terms = [(rng.randint(1, 40) * rng.randint(1, 10 ** 3),
                  rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:  # a second term with the same exponent
            terms.append((rng.randint(1, 4 * 10 ** 4), terms[0][1]))
        return terms

    for _ in range(400):
        mixed = []
        for _ in range(rng.randint(1, 2)):
            lhs, rhs = side(), side()
            if rng.random() < 0.3:  # a root that lands on an integer
                la, a = rng.choice(lhs)
                b = rng.randint(0, 4)
                if a != b:
                    t = rng.randint(2, 9) ** abs(a - b)
                    rhs.append((la * t if a > b else -(-la // t), b))
            mixed.append((lhs, rhs))
        lo, hi = rng.randint(1, 20), 60
        pieces = counting._leaf_pieces(lo, hi, mixed)
        got = [m for a, b in pieces for m in range(a, b + 1)]
        want = [m for m in range(lo, hi + 1) if all(
            max(c * m ** w for c, w in lhs) <= max(c * m ** w for c, w in rhs)
            for lhs, rhs in mixed)]
        assert got == want
        assert all(b + 1 < c for (_, b), (c, _) in zip(pieces, pieces[1:]))


@pytest.mark.parametrize("name,cls,gamma", [("F1", (0, 2), 30),
                                            ("F1", (-1, 2), 3),
                                            ("F2", (0, 2), 40),
                                            ("F2", (-1, 2), 5)])
def test_mixed_leaf_products_of_maxima(name, cls, gamma):
    """A mixed constraint with an exponent 2, or over both basis classes,
    is split as its own class; under an anticanonical bound its pieces
    give naive_count's count."""
    lat = get_lattice(name)
    region = Region([(lat.anticanonical, 1, 1), (cls, gamma, 0)])
    assert _mixed_split(lat, region) == [cls]
    assert _memo_on_and_off(lat, region, 300).count == naive_count(
        lat, region, 300) > 0


@pytest.mark.parametrize("name,top", [("F1", 24), ("F2", 15)])
def test_mixed_leaf_random_boxes(name, top):
    """Seeded boxes lo_i <= H_(L_i) <= hi_i with rational walls on the
    basis of F1 and F2, whose second class is not nef."""
    lat = get_lattice(name)
    rng = random.Random(7)
    for _ in range(6):
        highs = [Fraction(rng.randint(4, top), 3) for _ in range(2)]
        lows = [h / Fraction(rng.randint(4, 30), 3) for h in highs]
        box = counting._box_region([[1, 0], [0, 1]], lows, highs)
        assert enumerate_region(lat, box, 1).count == naive_count(lat, box, 1)


def test_closed_form_leaf_cone_boxes():
    """Box regions carry anti-nef lower bounds H_{L_i} >= c, which raise
    the low end of the leaf interval."""
    lat = get_lattice("P1xP1")
    decomp = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=7)
    b_vec = (20, 20)
    total = reused = 0
    for n_vec in product(*(range(1, k + 2) for k in _kept(decomp, b_vec))):
        res = _memo_on_and_off(lat, _box(decomp, b_vec, n_vec), 1)
        total += res.count
        reused += res.reused
    cone = count_cone_box(lat, [[1, 0], [0, 1]], b_vec, histogram=False)
    assert total == cone["count"] == 260100
    assert reused > 0
    box = Region([((1, 0), 12, 0), ((-1, 0), Fraction(1, 5), 0),
                  ((0, 1), 9, 0), ((0, -1), Fraction(2, 7), 0)])
    assert _memo_on_and_off(lat, box, 1).count == naive_count(lat, box, 1) > 0


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
    assert _memo_on_and_off(lat, region, 1).count == want > 0


@pytest.mark.parametrize("name,B", [("P1xP1", 300), ("F1", 200)])
def test_closed_form_leaf_inclusion_exclusion_facets(name, B):
    lat = get_lattice(name)
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    facet_lists = [dual_cone([list(g) for g in cone], lat.rank)
                   for cone in dec.cones]
    for k in range(1, len(facet_lists) + 1):
        for sub in combinations(facet_lists, k):
            region = anticanonical_region(lat, facets=[f for fl in sub
                                                       for f in fl])
            assert _memo_on_and_off(lat, region, B).count == naive_count(
                lat, region, B)


@pytest.mark.parametrize("low", [30030, 30031])
def test_closed_form_leaf_many_primes(low):
    """The prefix magnitude 30030 = 2*3*5*7*11*13 makes the Moebius sum run
    over 2^6 divisors; low = 30031 leaves the lower end to the last
    coordinate alone."""
    lat = get_lattice("P1")
    region = Region([((1,), 30100, 0), ((-1,), Fraction(1, low), 0)])
    res = _memo_on_and_off(lat, region, 1, first_range=(30030, 30030))
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


# -- subtree memo --------------------------------------------------------------


def _own_program(lat, region):
    """_signature_program of the region's shape in the fan's own labels."""
    nef, anti, _ = counting._compile_constraints(lat, region.shape)
    return counting._signature_program(
        [w for _, reps in nef for w in reps], [reps for _, reps in anti],
        lat.fan.max_cones, lat.fan.n_rays)


@pytest.mark.parametrize("name,depths", [("P1", []), ("P2", [1]),
                                         ("P3", [1, 2]), ("P1xP1", [2]),
                                         ("F1", [])])
def test_signature_depths(name, depths):
    """Memo depths lie in 1..n-2, never at depth 0, where first_range acts,
    nor at the leaf depth n-1, which the 2-D leaf counts together with its
    parent; a depth with a nef group of one nonconstant prefix monomial
    (F1 in its builtin order at depths 1 and 2, P1xP1 at depth 1) is
    skipped.  The shape compiled in that order then drops depth 1, where a
    group of part (c) is x0 itself and no key repeats (_compiled_shape):
    P2 keys no depth and P3 depth 2 alone."""
    lat = get_lattice(name)
    region = anticanonical_region(lat)
    assert sorted(_own_program(lat, region)) == depths
    with _forced(range(lat.fan.n_rays)):
        compiled = counting._compiled_shape(lat, region.shape).program
    assert sorted(compiled) == [d for d in depths if d != 1]


@pytest.mark.parametrize("name,B", [("P1xP1", 10000), ("P3", 20000)])
def test_memo_matches_streaming_walk(name, B):
    """Many hits at depth n-2 (6048 on P1xP1, 110 on P3) against the
    walk of every prefix with no memo."""
    lat = get_lattice(name)
    res = _memo_on_and_off(lat, anticanonical_region(lat), B)
    assert res.reused > 100


def test_memo_keeps_prefix_gcd():
    """P3 prefixes (6, x1) have gcd 1, 2, 3 or 6: the subtree below depends
    on it, and prefixes with equal gcd share one, so 12 - 4 of them reuse
    one.  Below each, the 2-D leaf counts (x2, x3) with no key."""
    lat = get_lattice("P3")
    B = 12 ** 4
    assert coordinate_bounds(lat, anticanonical_region(lat), B)[1] == 12
    res = _memo_on_and_off(lat, anticanonical_region(lat), B,
                           first_range=(6, 6))
    assert res.reused == 12 - 4


def test_memo_keeps_anti_nef_threshold():
    """max(x0, x1) max(y0, y1) >= c under max-norm caps on P1xP1: at depth 2
    the nef quotas are constant and the threshold ceil(c / max(x0, x1)) is
    all that tells prefixes apart.  A coprime pair has max-norm k in a(k)
    ways, a(1) = 1 and a(k) = 2 phi(k), and 4 sign classes."""
    cap, c = 20, 80
    lat = get_lattice("P1xP1")
    region = Region([((1, 0), cap, 0), ((0, 1), cap, 0),
                     ((-1, -1), Fraction(1, c), 0)])
    a = [0, 1] + [2 * sum(gcd(j, k) == 1 for j in range(1, k + 1))
                  for k in range(2, cap + 1)]
    want = 4 * sum(a[kx] * a[ky] for kx in range(1, cap + 1)
                   for ky in range(1, cap + 1) if kx * ky >= c)
    res = _memo_on_and_off(lat, region, 1)
    assert res.count == want > 0
    assert res.reused > 0


def test_memo_reuse_by_fan():
    """F1 in its builtin order has no eligible depth; the order chosen for
    it, (y0, y2, y1, y3), has depth 2 and walks runs at depth 1."""
    results = {}
    for name in ("P1xP1", "P3", "F1"):
        lat = get_lattice(name)
        results[name] = enumerate_region(lat, anticanonical_region(lat), 2000)
    assert results["P1xP1"].reused > 0 and results["P3"].reused > 0
    assert results["F1"].order == (0, 2, 1, 3) and results["F1"].reused > 0
    lat = get_lattice("F1")
    with _forced(range(4)) as run:
        builtin = run(lat, anticanonical_region(lat), 2000)
    assert builtin.count == results["F1"].count
    assert builtin.reused == 0


def test_memo_hits_respect_budget():
    """A hit adds the stored visited before the budget check, so the memo
    raises exactly where the walk would."""
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat)
    res = enumerate_region(lat, region, 1000)
    assert res.reused > 0
    enumerate_region(lat, region, 1000, budget=res.visited)
    with pytest.raises(BudgetError):
        enumerate_region(lat, region, 1000, budget=res.visited - 1)


# -- root keys -----------------------------------------------------------------


def _moebius(n):
    """mu(0), ..., mu(n), mu(0) = 0, by trial division."""
    mu = [0, 1] + [1] * (n - 1)
    for p in range(2, n + 1):
        if all(p % q for q in range(2, p)):
            for k in range(p, n + 1, p):
                mu[k] *= 0 if k % (p * p) == 0 else -1
    return mu


def _prefixes_less_keys(lat, B, depth):
    """The prefixes at `depth` of the anticanonical region at B less their
    distinct subtree keys, by brute force from the definition in
    enumerate_region: per group of nef pairs with the same nonzero
    remaining vector v, iroot(least quota, gcd(v)); per group of cones with
    the same remaining rays outside, the gcd of the prefix complement
    products.  Where `depth` is the only memo depth, every such prefix is
    looked up and each distinct key misses once, so this is `reused`."""
    region = anticanonical_region(lat)
    order = enumerate_region(lat, region, B).order
    ((_, reps),), _, _ = counting._compile_constraints(lat, region.shape)
    reps = [tuple(w[lam] for lam in order) for w in reps]
    cones = [{order.index(lam) for lam in c} for c in lat.fan.max_cones]
    caps = [coordinate_bounds(lat, region, B)[lam] for lam in order[:depth]]
    prefixes, keys = 0, set()
    for y in product(*(range(1, c + 1) for c in caps)):
        quotas = [B // prod(x ** e for x, e in zip(y, w)) for w in reps]
        comps = [prod(x for i, x in enumerate(y) if i not in c)
                 for c in cones]
        if 0 in quotas or gcd(*comps) != 1:
            continue
        prefixes += 1
        least, outside = {}, {}
        for q, w in zip(quotas, reps):
            if any(w[depth:]):
                least[w[depth:]] = min(least.get(w[depth:], q), q)
        for c, comp in zip(cones, comps):
            rest = tuple(lam for lam in range(depth, len(order))
                         if lam not in c)
            outside[rest] = gcd(outside.get(rest, 0), comp)
        keys.add((frozenset((v, linalg.iroot(q, gcd(*v)))
                            for v, q in least.items()),
                  frozenset(outside.items())))
    return prefixes - len(keys)


@pytest.mark.parametrize("B,want", [(5000, 2972), (30000, 18362),
                                    (10 ** 6, 608321)])
def test_p1xp1_reused_is_prefixes_less_root_keys(B, want):
    """P1xP1 keys depth 2 alone.  Its prefixes there are the coprime (x0,
    x1) in [1, N]^2, N = isqrt(B), and one with max(x0, x1) = k keys to
    isqrt(B // k^2): the two -K groups hold the same quotas B // x0^2 and
    B // x1^2, with the root 2 of their remaining vectors (0, 2) and
    (2, 0), and the gcd part is gcd(x0, x1) = 1.  Every k <= N is the
    max-norm of (k, 1).  Keyed by B // k^2 itself, reused read 2956, 18330
    and 608196."""
    lat = get_lattice("P1xP1")
    big = isqrt(B)
    mu = _moebius(big)
    coprime = sum(mu[d] * (big // d) ** 2 for d in range(1, big + 1))
    keys = {isqrt(B // k ** 2) for k in range(1, big + 1)}
    res = enumerate_region(lat, anticanonical_region(lat), B)
    assert res.reused == coprime - len(keys) == want
    if B <= 30000:
        assert _prefixes_less_keys(lat, B, 2) == want


def _check_roots(pair_reps, owners, program):
    """Each kept group's root is the gcd of the remaining vectors of every
    group it stands for (those that hold the same (constraint, prefix
    vector) pairs), or 1 where all its prefix vectors are zero.  Returns
    the roots."""
    roots = []
    for d, (nef, *_) in program.items():
        rests = {}
        for i, w in enumerate(pair_reps):
            if any(w[d:]):
                rests.setdefault(w[d:], []).append(i)
        stands_for = {}
        for rest, grp in rests.items():
            held = frozenset((owners[i], pair_reps[i][:d]) for i in grp)
            stands_for.setdefault(held, []).append(rest)
        assert len(nef) == len(stands_for)
        for get, g in nef:
            grp = get(range(len(pair_reps)))
            held = frozenset((owners[i], pair_reps[i][:d]) for i in grp)
            if any(any(pair_reps[i][:d]) for i in grp):
                assert g == gcd(*(x for rest in stands_for[held]
                                  for x in rest)), (d, grp)
            else:
                assert g == 1, (d, grp)
            roots.append(g)
    return roots


def test_root_is_the_gcd_of_the_groups_kept():
    """_check_roots on the compiled programs of the anticanonical regions
    of every tested fan and of seeded random regions, and on a program
    whose kept group stands for the remaining vectors (2, 0) and (0, 3):
    its root is 1, not the 2 of the kept group alone.  The program is made
    up: the regions tried on the tested fans merge only groups with equal
    own roots."""
    roots = []
    for name in BUILTIN_NAMES + list(OFF_BUILTIN_FANS):
        lat = get_lattice(name)
        rng = random.Random(f"roots-{name}")
        regions = [anticanonical_region(lat)] + [
            _random_region(rng, lat)[0] for _ in range(30)]
        for region in regions:
            try:
                shape = counting._compiled_shape(lat, region.shape)
            except DegenerateInputError:
                continue
            roots += _check_roots(
                [w for _, reps in shape.nef for w in reps],
                [j for j, (_, reps) in enumerate(shape.nef) for _ in reps],
                shape.program)
    assert {1, 2, 3} <= set(roots)
    pair_reps = [(1, 0, 2, 0), (0, 1, 2, 0), (1, 0, 0, 3), (0, 1, 0, 3)]
    program = counting._signature_program(
        pair_reps, [], [{0, 2}, {0, 3}, {1, 2}, {1, 3}], 4, [0] * 4)
    assert len(program[2][0]) == 1
    assert _check_roots(pair_reps, [0] * 4, program) == [1]


@pytest.mark.parametrize("name,B", [("F1", 30000), ("F2", 30000),
                                    ("P1xP2", 20000)])
def test_root_keys_match_the_walk(name, B):
    """Memo and runs on and off, and runs against the walk of every child
    with the memo on, where groups key by a root g > 1 of a quota that
    moves with the prefix: the anticanonical regions of F1, F2 and P1xP2,
    whole and in first_range slices."""
    lat = _p1xp2() if name == "P1xP2" else get_lattice(name)
    region = anticanonical_region(lat)
    shape = counting._compiled_shape(lat, region.shape)
    assert any(g > 1 for spec in shape.program.values() for _, g in spec[0])
    full = _memo_on_and_off(lat, region, B)
    assert _blocked_and_per_child(lat, region, B).reused == full.reused > 0
    parts = _slices(coordinate_bounds(lat, region, B)[full.order[0]], 3)
    assert sum(_memo_on_and_off(lat, region, B, first_range=r).count
               for r in parts) == full.count > 0


def test_root_keys_of_two_constraints():
    """H_(1,1) <= 30 and H_(1,3) <= 90 on P1xP1, descended as labelled: at
    depth 2 the H_(1,3) group keys by the cube root of its quota, the
    H_(1,1) group by its quota.  P2's and P3's groups have all-zero prefix
    vectors, so their quotas are the call's own and key as they are.  P2
    keys no depth (depth 1, where each x0 has its own gcd part, is
    dropped), so its slice x0 in [5, 30] reuses nothing; it counts 4 per
    coprime (x0, x1, x2) with x1, x2 <= N = 46, N^3 <= 10^5, a Moebius
    sum.  P3 reuses the subtrees of equal gcd(6, x1)."""
    lat = get_lattice("P1xP1")
    region = Region([((1, 1), 30, 0), ((1, 3), 90, 0)])
    with _forced((0, 1, 2, 3)):
        shape = counting._compiled_shape(lat, region.shape)
        assert sorted(g for _, g in shape.program[2][0]) == [1, 3]
        assert _memo_on_and_off(lat, region, 1).count == naive_count(
            lat, region, 1) == 3012
    mu = _moebius(46)
    for name, first in (("P2", (5, 30)), ("P3", (6, 6))):
        lat = get_lattice(name)
        region = anticanonical_region(lat)
        shape = counting._compiled_shape(lat, region.shape)
        assert all(g == 1 for spec in shape.program.values()
                   for _, g in spec[0])
        res = _memo_on_and_off(lat, region, 10 ** 5, first_range=first)
        if name == "P2":
            assert res.reused == 0
            assert res.count == 4 * sum(
                mu[d] * (30 // d - 4 // d) * (46 // d) ** 2
                for d in range(1, 47))
        else:
            assert res.reused > 0


# -- blocked descent --------------------------------------------------------


def _blocked_and_per_child(lat, region, B, **kw):
    """Counts a region twice: as is, where a blockable depth counts its
    children one run and gcd class at a time, and with counting._blockable
    switched off, which walks every child, in the order chosen for the
    first.  count, visited and reused agree."""
    blocked = enumerate_region(lat, region, B, **kw)
    with _forced(blocked.order, _blockable=lambda *a: None) as run:
        single = run(lat, region, B, **kw)
    assert ((blocked.count, blocked.visited, blocked.reused)
            == (single.count, single.visited, single.reused))
    return blocked


@pytest.mark.parametrize("name,blocked", [("P1", []), ("P2", []),
                                          ("P3", [2]), ("P1xP1", [2]),
                                          ("F1", [])])
def test_blockable_depths(name, blocked):
    """Children are counted by runs where every cone group of the child
    depth has a cone that holds the parent's ray: never at P2 and P3 depth
    0 (the cone outside all later rays misses ray 0) nor on F1 in its
    builtin order.  The parent of the leaf depth walks no runs: the 2-D
    leaf counts its children in closed form."""
    lat = get_lattice(name)
    program = _own_program(lat, anticanonical_region(lat))
    assert sorted(d for d, spec in program.items() if spec[3]) == blocked


@pytest.mark.parametrize("name,B", [("P2", 3000), ("P3", 20000),
                                    ("P1xP1", 30032), ("F1", 3000)])
def test_blocked_descent_anticanonical(name, B):
    lat = get_lattice(name)
    assert _blocked_and_per_child(lat, anticanonical_region(lat), B).count > 0


def test_blocked_descent_inclusion_exclusion_facets():
    lat = get_lattice("P1xP1")
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    facet_lists = [dual_cone([list(g) for g in cone], lat.rank)
                   for cone in dec.cones]
    for k in range(1, len(facet_lists) + 1):
        for sub in combinations(facet_lists, k):
            facets = [f for fl in sub for f in fl]
            _blocked_and_per_child(
                lat, anticanonical_region(lat, facets=facets), 5032)


def test_blocked_descent_cone_boxes():
    lat = get_lattice("P1xP1")
    decomp = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=7)
    b_vec = (20, 20)
    regions = [_box(decomp, b_vec, n_vec) for n_vec in
               product(*(range(1, k + 2) for k in _kept(decomp, b_vec)))]
    assert len(regions) == 24
    total = sum(_blocked_and_per_child(lat, r, 1).count for r in regions)
    assert total == 260100


@pytest.mark.parametrize("name,B,low", [("P2", 20000, 7001),
                                        ("P1xP1", 3000, 1001),
                                        ("P1xP1", 30000, 2900),
                                        ("P3", 3000, 999),
                                        ("P3", 50000, 4001)])
def test_blocked_descent_annulus(name, B, low):
    """low <= H_{omega^-1} <= B: the anti-nef threshold and its mark end
    runs as well as the nef quotas."""
    lat = get_lattice(name)
    anti = [-x for x in lat.anticanonical]
    region = Region([(lat.anticanonical, B, 0), (anti, Fraction(1, low), 0)])
    assert _blocked_and_per_child(lat, region, 1).count > 0


def test_blocked_descent_anti_nef_threshold():
    cap, c = 37, 1000
    lat = get_lattice("P1xP1")
    region = Region([((1, 0), cap, 0), ((0, 1), cap, 0),
                     ((-1, -1), Fraction(1, c), 0)])
    assert _blocked_and_per_child(lat, region, 1).reused > 0


def test_blocked_descent_gcd_classes():
    """P3 below x0 = 6: the x1 in [1, 12] fall into the classes
    gcd(x1, 6) = 1, 2, 3, 6, each one subtree, so 12 - 4 of them reuse
    one; other x0 give other divisor lattices."""
    lat = get_lattice("P3")
    region = anticanonical_region(lat)
    res = _blocked_and_per_child(lat, region, 12 ** 4, first_range=(6, 6))
    assert res.reused == 12 - 4
    for x0 in (1, 12, 24, 30):
        _blocked_and_per_child(lat, region, 30 ** 4, first_range=(x0, x0))


@pytest.mark.parametrize("name,B", [("P2", 1000), ("P3", 500),
                                    ("P1xP2", 300)])
def test_blocked_descent_classes_differ_in_part_c(name, B):
    """On P2, P3 and P1xP2 (in the order chosen for it, P2 rays first)
    some runs hold children of several classes D = gcd(m, L) whose
    subtrees differ in part (c), which each class keys from the child D:
    the count is that of the per-child loop and of naive_count."""
    lat = get_lattice(name)
    region = anticanonical_region(lat)
    res = _blocked_and_per_child(lat, region, B)
    assert res.count == naive_count(lat, region, B)


def test_blocked_descent_nested_depths():
    """On P4 depths 1 and 2 count their children by runs, each inside
    the subtrees the one before descends, and the 2-D leaf counts (y3, y4).
    Its torus points of anticanonical height <= N^5 number
    (1/2) sum_d mu(d) (2 floor(N/d))^5."""
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
            [-1, -1, -1, -1]]
    lat = fans.class_lattice(fans.make_fan(
        4, rays, list(combinations(range(5), 4)), name="P4"))
    region = anticanonical_region(lat)
    program = _own_program(lat, region)
    assert sorted(d for d, spec in program.items() if spec[3]) == [2, 3]
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
    res = _blocked_and_per_child(lat, region, 8 ** 5)
    assert res.count == sum(m * (2 * (8 // d)) ** 5
                            for d, m in mu.items()) // 2 == 507376
    assert res.reused > 0
    _blocked_and_per_child(lat, region, 12 ** 5, first_range=(6, 6))


def test_blocked_descent_respects_budget():
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat)
    res = enumerate_region(lat, region, 30032)
    assert enumerate_region(lat, region, 30032,
                            budget=res.visited).count == res.count
    with pytest.raises(BudgetError):
        enumerate_region(lat, region, 30032, budget=res.visited - 1)


def test_p1xp1_at_a_million():
    """The closed form of bench/reference.py, sum_k a(k) A(N / k), gives
    20879748; visited is that of the per-child loop, and reused is the
    count of test_p1xp1_reused_is_prefixes_less_root_keys."""
    lat = get_lattice("P1xP1")
    start = time.perf_counter()
    res = enumerate_region(lat, anticanonical_region(lat), 10 ** 6)
    elapsed = time.perf_counter() - start
    assert (res.count, res.visited, res.reused) == (20879748, 8509144,
                                                    608321)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_p1xp1_at_ten_million():
    """The closed form of bench/reference.py at 10^7.  Of the 16,098 runs
    at depth 1, 2,097 cover one child, which is counted with no class
    sums; keyed by the raw quota there were 105,799 runs, 45,656 of one
    child."""
    lat = get_lattice("P1xP1")
    start = time.perf_counter()
    res = enumerate_region(lat, anticanonical_region(lat), 10 ** 7)
    elapsed = time.perf_counter() - start
    assert (res.count, res.visited, res.reused) == (242924644, 99024948,
                                                    6078340)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


# -- the 2-D leaf ------------------------------------------------------------


def _p1xp2():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)]
    cones = [(x,) + pair for x in (0, 1) for pair in ((2, 3), (3, 4), (2, 4))]
    return fans.class_lattice(fans.make_fan(3, rays, cones, name="P1xP2"))


def _dp6():
    """P2 blown up in three torus-fixed points: 6 rays, rho = 4, and no
    basis class nef."""
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    cones = [(i, (i + 1) % 6) for i in range(6)]
    return fans.class_lattice(fans.make_fan(2, rays, cones, name="dP6"))


def _annulus(lat, B, low):
    """low <= H_{omega^-1} <= B, counted at B = 1."""
    anti = [-x for x in lat.anticanonical]
    return Region([(lat.anticanonical, B, 0), (anti, Fraction(1, low), 0)])


@pytest.mark.parametrize("name,B", [("P1", 3000), ("P2", 2000),
                                    ("P3", 1000), ("P1xP1", 1000),
                                    ("F1", 1000), ("F2", 600),
                                    ("BlP2", 400), ("P1xP2", 300)])
def test_leaf_pair_matches_naive_count(name, B):
    """The 2-D leaf against the brute force on every tested fan, with the
    memo on and off: on the anticanonical region, where the caps of v fall
    along u on BlP2 (pairs u v^2 and u^2 v); on the annulus B/3 <= H <= B,
    whose anti-nef lower end lo_v falls along u too; and on first_range
    slices, which add up to the whole."""
    lat = _p1xp2() if name == "P1xP2" else get_lattice(name)
    for region, b in ((anticanonical_region(lat), B),
                      (_annulus(lat, B, -(-B // 3)), 1)):
        res = _memo_on_and_off(lat, region, b)
        assert res.count == naive_count(lat, region, b) > 0
        parts = _slices(coordinate_bounds(lat, region, b)[res.order[0]], 3)
        assert sum(_memo_on_and_off(lat, region, b, first_range=r).count
                   for r in parts) == res.count


@pytest.mark.parametrize("name,both,B", [("P1xP1", False, 30000),
                                         ("F1", False, 30000),
                                         ("P2", True, 10 ** 6),
                                         ("P3", True, 10 ** 6)])
def test_leaf_pair_coprimality_cases(name, both, B):
    """Where no cone holds both u and v (P1xP1, F1) v is kept iff it is
    coprime to u g_u, and e runs over every squarefree e up to the cap;
    where one does (P2, P3), e runs over the divisors of rad g_both.  Both
    against the per-child walk of the parents (with the runs off) and the
    memo off, and on P2 and P3 against the closed form
    (1/2) sum_d mu(d) (2 floor(N/d))^n, N = iroot(B, n)."""
    lat = get_lattice(name)
    region = anticanonical_region(lat)
    shape = counting._compiled_shape(lat, region.shape)
    n = lat.fan.n_rays
    last = {shape.order[n - 2], shape.order[n - 1]}
    assert any(last <= set(c) for c in lat.fan.max_cones) == both
    res = _memo_on_and_off(lat, region, B)
    assert _blocked_and_per_child(lat, region, B).count == res.count
    if both:
        big = linalg.iroot(B, n)
        mu = _moebius(big)
        assert res.count == sum(mu[d] * (2 * (big // d)) ** n
                                for d in range(1, big + 1)) // 2


@pytest.mark.parametrize("name,region,B", [
    ("BlP2", None, 10 ** 4), ("P1xP1", (3000, 1001), 1),
    ("BlP2", (3000, 1001), 1)])
def test_leaf_pair_respects_budget(name, region, B):
    """The 2-D leaf adds the visited of every u at once and raises after:
    the exact budget passes and one less raises, on BlP2 at 10^4 and on
    annuli 1001 <= H <= 3000."""
    lat = get_lattice(name)
    region = (anticanonical_region(lat) if region is None
              else _annulus(lat, *region))
    res = enumerate_region(lat, region, B)
    assert enumerate_region(lat, region, B,
                            budget=res.visited).count == res.count > 0
    with pytest.raises(BudgetError):
        enumerate_region(lat, region, B, budget=res.visited - 1)


def test_leaf_pair_walks_a_short_u_range(monkeypatch):
    """Where e would run more than four times past the u, as on a slice of
    P1 far from 1 (one u = 3001 below a cap of v of 3100), the 2-D leaf
    hands its u back to the walk, whose 1-D leaf cuts _leaf_pieces; on
    P1xP1's anticanonical region nothing is walked.  Slices of 100 u walk
    from u = 401 on, where e would run to min(3100, hi) > 4 * 100, and
    walked and closed slices add up to (1/2) sum_d mu(d) (2 floor(N/d))^2,
    N = 3100."""
    calls = []
    pieces = counting._leaf_pieces

    def counted(*args):
        calls.append(args[:2])
        return pieces(*args)

    monkeypatch.setattr(counting, "_leaf_pieces", counted)
    lat = get_lattice("P1xP1")
    enumerate_region(lat, anticanonical_region(lat), 1000)
    assert calls == []
    lat = get_lattice("P1")
    region = anticanonical_region(lat)
    res = enumerate_region(lat, region, 3100 ** 2, first_range=(3001, 3001))
    assert calls == [(1, 3100)]
    assert res.visited == 1 + 3100
    mu = _moebius(3100)
    assert sum(enumerate_region(lat, region, 3100 ** 2, first_range=r).count
               for r in _slices(3100, 31)) == 2 * sum(
                   mu[d] * (3100 // d) ** 2 for d in range(1, 3101))
    assert len(calls) > 20


def test_leaf_memo_respects_budget():
    """P2 keys depth 1 alone, where no prefix repeats, so nothing is
    reused; the budget holds on the 2-D leaf below every x0."""
    lat = get_lattice("P2")
    region = anticanonical_region(lat)
    res = enumerate_region(lat, region, 300000)
    assert res.reused == 0
    assert enumerate_region(lat, region, 300000,
                            budget=res.visited).count == res.count
    with pytest.raises(BudgetError):
        enumerate_region(lat, region, 300000, budget=res.visited - 1)


@pytest.mark.parametrize("name,B,want", [
    ("P2", 10 ** 9, (3328184548, 1000001001, 0)),
    ("P3", 10 ** 10, (73713849720, 9971320909, 99540))])
def test_leaf_memo_at_scale(name, B, want):
    """The closed form (1/2) sum_d mu(d) (2 floor(N/d))^n, N = B^(1/n), of
    bench/reference.py.  visited is that of the per-child loop.  P2 keys
    depth 1 alone, where no x0 repeats a key.  P3 keys depth 2, where all
    N^2 = 316^2 prefixes (x0, x1) pass and key by gcd(x0, x1) alone, so
    all but the 316 distinct gcds reuse a subtree."""
    lat = get_lattice(name)
    n = lat.fan.n_rays
    big = linalg.iroot(B, n)
    mu = _moebius(big)
    assert sum(mu[d] * (2 * (big // d)) ** n
               for d in range(1, big + 1)) // 2 == want[0]
    start = time.perf_counter()
    res = enumerate_region(lat, anticanonical_region(lat), B)
    elapsed = time.perf_counter() - start
    assert (res.count, res.visited, res.reused) == want
    assert elapsed < 1.0, f"{elapsed:.2f} s"


# -- descent order -------------------------------------------------------------


def _relabelled(name, perm):
    """The fan `name` with its ray lam renamed perm[lam]."""
    base = get_lattice(name).fan
    rays = [None] * base.n_rays
    for old, new in enumerate(perm):
        rays[new] = base.rays[old]
    cones = [sorted(perm[lam] for lam in c) for c in base.max_cones]
    return fans.class_lattice(fans.make_fan(base.dim, rays, cones))


@pytest.mark.parametrize("name,B", [("F1", 300), ("P1xP1", 300),
                                    ("BlP2", 200)])
def test_every_order_counts_alike(name, B):
    """Every order of the rays, forced through the chooser, counts what
    naive_count counts: on the anticanonical region, and on an annulus
    B/3 <= H_{omega^-1} <= B, whose anti-nef representatives the
    relabelling moves too."""
    lat = get_lattice(name)
    anti = [-x for x in lat.anticanonical]
    cases = [(anticanonical_region(lat), B),
             (Region([(lat.anticanonical, B, 0),
                      (anti, Fraction(3, B), 0)]), 1)]
    want = [naive_count(lat, region, b) for region, b in cases]
    assert all(want)
    for order in permutations(range(lat.fan.n_rays)):
        with _forced(order) as run:
            assert [run(lat, region, b).count for region, b in cases] == want


def test_chooser_keeps_the_order_of_symmetric_fans():
    """Ties keep the caller's order: P2, P3 and the builtin P1xP1 descend
    as labelled, on the anticanonical region and, for P1xP1, on the
    corner, staircase-box and cone-box regions of the hyperbola pipeline."""
    for name in ("P2", "P3", "P1xP1"):
        lat = get_lattice(name)
        res = enumerate_region(lat, anticanonical_region(lat), 100)
        assert res.order == tuple(range(lat.fan.n_rays))
    lat = get_lattice("P1xP1")
    rows = [[1, 0], [0, 1]]
    boxes = [counting._box_region(rows, [1, 1], [20, 20]),
             counting._box_region(rows, [3, 1], [5, 7]),
             _box(build_box_decomposition(lat, rows, seed=7), (20, 20),
                  (2, 3))]
    for region in boxes:
        assert enumerate_region(lat, region, 1).order == (0, 1, 2, 3)


def test_chooser_on_relabelled_fans():
    """Whatever the labels: F1 never descends y3 at depth 2 and reuses
    subtrees, and P1xP1 descends the two rays of one factor first."""
    for perm in permutations(range(4)):
        f1 = _relabelled("F1", perm)
        res = enumerate_region(f1, anticanonical_region(f1), 2000)
        assert res.order[2] != perm[3] and res.reused > 0
        pp = _relabelled("P1xP1", perm)
        res = enumerate_region(pp, anticanonical_region(pp), 2000)
        assert set(res.order[:2]) in ({perm[0], perm[1]}, {perm[2], perm[3]})


def test_chooser_past_six_rays_scores_transpositions(monkeypatch):
    """On a seven-ray surface the chooser scores the caller's order and its
    21 transpositions, not 5040 orders, and the order it picks counts what
    the caller's order counts."""
    rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
    lat = fans.class_lattice(fans.make_fan(
        2, rays, [(i, (i + 1) % 7) for i in range(7)]))
    region = anticanonical_region(lat)
    scored = []
    program = counting._signature_program

    def counted(*args):
        scored.append(1)
        return program(*args)

    monkeypatch.setattr(counting, "_signature_program", counted)
    counting._compiled_shape.cache_clear()
    res = enumerate_region(lat, region, 3000)
    assert 0 < len(scored) <= 1 + 1 + 21  # the scores, then the descent
    assert sum(a != b for a, b in zip(res.order, range(7))) in (0, 2)
    with _forced(range(7)) as run:
        assert run(lat, region, 3000).count == res.count > 0


def test_partition_splits_the_first_ray_of_the_order():
    """first_range acts on the first ray descended, here ray 1 of a
    relabelled F1, whose cap is not ray 0's: slices of that ray's range
    add up to the full count."""
    lat = _relabelled("F1", (2, 0, 1, 3))
    region = anticanonical_region(lat)
    B = 10 ** 4
    full = enumerate_region(lat, region, B)
    bounds = coordinate_bounds(lat, region, B)
    first = full.order[0]
    assert first != 0 and bounds[first] < bounds[0]
    ranges = _slices(bounds[first], 3)
    assert ranges[0][0] == 1 and ranges[-1][1] == bounds[first]
    assert sum(enumerate_region(lat, region, B, first_range=r).count
               for r in ranges) == full.count == 102316


# -- compiled shapes -----------------------------------------------------------


def _outcome(res):
    return res.count, res.visited, res.reused, res.order


def _one_shape(kind):
    """A lattice and (region, B) pairs of one region shape at several gamma
    and B."""
    if kind == "annulus":  # anti-nef lower end: B / k <= H_{omega^-1} <= B
        lat = get_lattice("F1")
        anti = [-x for x in lat.anticanonical]
        return lat, [(Region([(lat.anticanonical, 1, 1), (anti, k, -1)]), B)
                     for B, k in ((120, 3), (200, 4), (300, 5))]
    if kind == "mixed":  # H_{(0,1)} is not nef on F1
        lat = get_lattice("F1")
        return lat, [(Region([((1, 0), g, 0), ((0, 1), 1, 1)]), B)
                     for g, B in ((2, 12), (3, 14), (4, 10))]
    if kind == "caps":  # the 2-D leaf's cap of v grows with B
        lat = get_lattice("P1xP1")
        return lat, [(anticanonical_region(lat), B) for B in (30, 300, 1000)]
    lat = get_lattice("P1xP1")  # box lower walls: regions of a cone box
    decomp = build_box_decomposition(lat, [[1, 0], [0, 1]], seed=7)
    return lat, [(_box(decomp, (8, 8), n_vec), 1)
                 for n_vec in ((2, 1), (2, 2), (3, 1), (1, 2))]


@pytest.mark.parametrize("kind", ["annulus", "mixed", "box", "caps"])
def test_shape_cache_keeps_no_call_data(kind, monkeypatch):
    """One shape counted at several gamma and B, each on a cold shape cache
    and then all on the entry compiled for the last of them: count,
    visited, reused and order agree, and the counts are naive_count's.
    Every call also shares the table of mu of _squarefree_upto: the cold
    calls start on a fresh table in the given order, on "caps" one of
    increasing cap, so that the table grows between calls, and the warm
    calls on a fresh table in the reverse order."""
    lat, regions = _one_shape(kind)
    monkeypatch.setattr(counting, "_MOEBIUS", [bytearray(b"\1"), b""])
    cold = []
    for region, B in regions:
        counting._compiled_shape.cache_clear()
        cold.append(_outcome(enumerate_region(lat, region, B)))
    compiled = counting._compiled_shape.cache_info().misses
    monkeypatch.setattr(counting, "_MOEBIUS", [bytearray(b"\1"), b""])
    warm = [_outcome(enumerate_region(lat, region, B))
            for region, B in reversed(regions)][::-1]
    assert counting._compiled_shape.cache_info().misses == compiled
    assert warm == cold
    assert [res[0] for res in cold] == [naive_count(lat, region, B)
                                        for region, B in regions]
    assert all(res[0] for res in cold)


@pytest.mark.parametrize("name,B,want", [
    ("P1xP1", 5000, (65444, 26552, 2972, (0, 1, 2, 3))),
    ("P2", 10 ** 6, (3330772, 1000101, 0, (0, 1, 2)))])
def test_nef_facets_change_no_count(name, B, want):
    """The facets of the inclusion-exclusion terms are nef here, so each is
    an anti-nef constraint with threshold c = 1, which every point meets:
    with and without them, count, visited and order are the values of the
    enumerator that still carried such constraints, and reused on P1xP1 is
    that of test_p1xp1_reused_is_prefixes_less_root_keys; on P2 it is 0,
    as in test_leaf_memo_at_scale."""
    lat = get_lattice(name)
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    facets = [f for cone in dec.cones for f in dual_cone(cone, lat.rank)]
    assert facets and all(lat.is_nef(f) for f in facets)
    for region in (anticanonical_region(lat),
                   anticanonical_region(lat, facets=facets)):
        assert _outcome(enumerate_region(lat, region, B))[:4] == want


def test_effective_facets_are_dropped():
    """F1's inclusion-exclusion term has the facets (0, 1) and (1, 0).
    Both are effective classes, which every point of the effective-dual
    region meets, so the shape drops them before it is compiled; (0, 1) is
    not nef and would be a mixed constraint, with no memo and no runs.  So
    the term counts as the direct count does.  A facet that is not
    effective, (1, -1) on P1xP1, stays a mixed constraint."""
    lat = get_lattice("F1")
    dec = effective_decomposition([list(c) for c in lat.classes],
                                  list(lat.anticanonical))
    (cone,) = dec.cones
    facets = dual_cone(cone, lat.rank)
    assert facets == [(0, 1), (1, 0)] and not lat.is_nef((0, 1))
    region = anticanonical_region(lat, facets=facets)
    shape = counting._compiled_shape(lat, region.shape)
    assert not shape.mixed and not shape.anti and shape.program
    got = _outcome(enumerate_region(lat, region, 5000))
    assert got[:3] == (48252, 17541, 176)
    assert got[2] == _prefixes_less_keys(lat, 5000, 2)
    assert got == _outcome(enumerate_region(lat, anticanonical_region(lat),
                                            5000))
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat, facets=[(1, 0), (1, -1)])
    shape = counting._compiled_shape(lat, region.shape)
    assert _mixed_split(lat, region) == [(-1, 1)] and not shape.anti
    assert enumerate_region(lat, region, 300).count == naive_count(
        lat, region, 300) > 0


def test_nef_groups_with_equal_pairs_are_one():
    """At depth 2 of P1xP1 the -K pairs with remaining vectors (0, 2) and
    (2, 0) hold the same prefix vectors (0, 2) and (2, 0) of the same
    constraint, so the same quotas: the program keeps one of the two
    groups, and count, visited and reused are those of both."""
    lat = get_lattice("P1xP1")
    region = anticanonical_region(lat)
    shape = counting._compiled_shape(lat, region.shape)
    nef, _, _, (moving, _, _) = shape.program[2]
    assert len(nef) == len(moving) == 1
    program = counting._signature_program

    def apart(pair_reps, anti_reps, cones, n, owners=()):
        return program(pair_reps, anti_reps, cones, n)

    with _forced(shape.order, _signature_program=apart) as run:
        split = counting._compiled_shape(lat, region.shape)
        assert len(split.program[2][0]) == 2
        both = _outcome(run(lat, region, 30000))
    assert _outcome(enumerate_region(lat, region, 30000)) == both
    assert both[:3] == (470244, 191138, 18362)
    # H_(1,1) <= 30 and H_(1,3) <= 90: the groups of the two constraints
    # hold the same prefix vectors, but not the same quotas
    region = Region([((1, 1), 30, 0), ((1, 3), 90, 0)])
    with _forced((0, 1, 2, 3)) as run:
        assert run(lat, region, 1).count == naive_count(lat, region, 1) == 3012
        shape = counting._compiled_shape(lat, region.shape)
        assert len(shape.program[2][0]) == 2


def test_lower_walls_at_one_change_nothing():
    """Lower-wall constraints (-L_i, 1/lo_i, 0) at lo_i = 1 have threshold
    c = 1, which every prefix monomial reaches, so they change no count,
    visited, reused or order; a later call of the same shape with walls at
    3 and 2 on its warm entry still applies them, and the entry keeps both
    anti-nef constraints in its list and in every depth of its program."""
    lat = get_lattice("P1xP1")
    rows = [[1, 0], [0, 1]]
    upper = Region([((1, 0), 12, 0), ((0, 1), 9, 0)])

    def explicit(lows):
        return Region([(row, hi, 0) for row, hi in zip(rows, (12, 9))]
                      + [([-x for x in row], Fraction(1, lo), 0)
                         for row, lo in zip(rows, lows)])

    ones, walls = explicit([1, 1]), explicit([3, 2])
    assert ones.shape == walls.shape
    counting._compiled_shape.cache_clear()
    cold = _outcome(enumerate_region(lat, walls, 1))
    counting._compiled_shape.cache_clear()
    plain = _outcome(enumerate_region(lat, upper, 1))
    assert _outcome(enumerate_region(lat, ones, 1))[:4] == plain[:4]
    assert _outcome(enumerate_region(lat, walls, 1)) == cold
    assert plain[0] == naive_count(lat, upper, 1) > cold[0]
    assert cold[0] == naive_count(lat, walls, 1) > 0
    shape = counting._compiled_shape(lat, ones.shape)
    assert len(shape.anti) == 2 and shape.program
    assert all(len(spec[1]) == 2 for spec in shape.program.values())


@pytest.mark.parametrize("name", ["P1xP1", "F1"])
def test_box_walls_at_one_as_facets_count_alike(name):
    """A box whose lower walls at 1 are facets counts what the box with
    lower-wall constraints (the oracle's _unit_box) counts, node for node,
    at seeded corners, and both equal the brute force at small corners."""
    lat = get_lattice(name)
    rows = [[1, 0], [0, 1]]
    rng = random.Random(21)
    for top in (40, 40, 40, 6, 6):
        corner = [Fraction(rng.randrange(2, 2 * top), 2) for _ in rows]
        facets = counting._box_region(rows, [1, 1], corner)
        walls = _unit_box(rows, corner)
        assert facets.facets == ((1, 0), (0, 1))
        got = _outcome(enumerate_region(lat, facets, 1))
        assert got == _outcome(enumerate_region(lat, walls, 1))
        if top == 6:
            assert got[0] == naive_count(lat, facets, 1) \
                == naive_count(lat, walls, 1)


def test_box_corner_shapes_drop_effective_walls():
    """The effective walls of a cone-box corner are gone from its compiled
    shape: on P1xP1 no anti-nef constraint is left and the vertex program
    has 4 entries of 2 tests, where the lower-wall constraints gave 9 of 4;
    on F1 the wall on (0, 1), which is not nef, was a second mixed
    constraint."""
    rows = [[1, 0], [0, 1]]
    corner = counting._box_region(rows, [1, 1], (20, 20))
    walls = _unit_box(rows, (20, 20))
    lat = get_lattice("P1xP1")
    shapes = [counting._compiled_shape(lat, region.shape)
              for region in (corner, walls)]
    assert [len(shape.anti) for shape in shapes] == [0, 2]
    assert [[len(tests) for tests, _ in shape.vertex_program]
            for shape in shapes] == [[2] * 4, [4] * 9]
    lat = get_lattice("F1")
    shapes = [counting._compiled_shape(lat, region.shape)
              for region in (corner, walls)]
    assert [len(shape.mixed) for shape in shapes] == [1, 2]


def test_box_wall_on_a_row_that_is_not_effective_is_applied():
    """(1, -1) is not effective on P1xP1, so its wall H_1 >= H_2 cuts
    points: it stays in the compiled shape, a mixed constraint beside the
    row's upper wall, and the box counts what the brute force counts,
    fewer points than the box without that wall."""
    lat = get_lattice("P1xP1")
    rows = [[1, 0], [0, 1], [1, -1]]
    box = counting._box_region(rows, [1, 1, 1], [12, 12, 3])
    assert box.facets == ((1, 0), (0, 1), (1, -1))
    assert _mixed_split(lat, box) == [(1, -1), (-1, 1)]
    unwalled = Region([(row, hi, 0) for row, hi in zip(rows, [12, 12, 3])])
    count = enumerate_region(lat, box, 1).count
    assert count == naive_count(lat, box, 1)
    assert 0 < count < enumerate_region(lat, unwalled, 1).count
    assert count == enumerate_region(lat, _unit_box(rows, [12, 12, 3]),
                                     1).count


def test_box_region_clears_rational_rows():
    """A rational row L_i is a valid box axis: its wall at 1 becomes the
    cleared facet, and the box counts what the integer row's box does."""
    lat = get_lattice("F1")
    half = counting._box_region([[Fraction(1, 2), 0], [0, 1]], [1, 1],
                                [3, 9])
    whole = counting._box_region([[1, 0], [0, 1]], [1, 1], [9, 9])
    assert half.facets == whole.facets == ((1, 0), (0, 1))
    assert _outcome(enumerate_region(lat, half, 1))[:2] \
        == _outcome(enumerate_region(lat, whole, 1))[:2]


def test_enumerations_compile_each_shape_once(monkeypatch):
    """The 24 corner enumerations of a cone box share one shape, so the
    per-cone representatives and the signature program are computed for
    the first of them only."""
    lat = get_lattice("P1xP1")
    rep = fans.ClassLattice.class_representative
    program, enumerate_ = counting._signature_program, enumerate_region
    calls, now = [], [0, 0]

    def counted_rep(self, *args):
        now[0] += 1
        return rep(self, *args)

    def counted_program(*args):
        now[1] += 1
        return program(*args)

    def per_call(*args, **kw):
        now[:] = [0, 0]
        res = enumerate_(*args, **kw)
        calls.append(tuple(now))
        return res

    monkeypatch.setattr(fans.ClassLattice, "class_representative",
                        counted_rep)
    monkeypatch.setattr(counting, "_signature_program", counted_program)
    monkeypatch.setattr(counting, "enumerate_region", per_call)
    counting._compiled_shape.cache_clear()
    out = count_cone_box(lat, [[1, 0], [0, 1]], (20, 20), seed=7)
    assert out["count"] == out["histogram_total"] == 260100
    assert len(calls) == 24
    assert all(calls[0]) and not any(map(any, calls[1:]))


def test_f1_at_10_to_the_8():
    """The closed form of bench/reference.py gives 1941255932.  The order
    chosen for F1 takes 1.4 s on a shared 2-core VM, against 6.5 s for its
    builtin order."""
    lat = get_lattice("F1")
    start = time.perf_counter()
    res = enumerate_region(lat, anticanonical_region(lat), 10 ** 8)
    elapsed = time.perf_counter() - start
    assert res.order == (0, 2, 1, 3)
    assert (res.count, res.visited) == (1941255932, 752184842)
    assert elapsed < 6.0, f"{elapsed:.2f} s"


def test_interleaved_p1xp1_at_a_million():
    """P1xP1 with its rays listed (1,0), (0,1), (-1,0), (0,-1) counts
    20879748 like the builtin fan.  Descended one factor first, it visits
    and reuses what the builtin order does, and runs within 2x of it
    (best of two runs each); in its own order it reuses nothing."""
    inter = _relabelled("P1xP1", (0, 2, 1, 3))
    assert inter.fan.rays == ((1, 0), (0, 1), (-1, 0), (0, -1))
    builtin = get_lattice("P1xP1")
    runs = {}
    for lat in (builtin, inter) * 2:
        start = time.perf_counter()
        res = enumerate_region(lat, anticanonical_region(lat), 10 ** 6)
        elapsed = time.perf_counter() - start
        runs[lat] = min(runs.get(lat, (elapsed,))[0], elapsed), res
    assert runs[inter][1].order == (0, 2, 1, 3)
    for _, res in runs.values():
        assert (res.count, res.visited, res.reused) == (20879748, 8509144,
                                                        608321)
    assert runs[inter][0] < 2 * runs[builtin][0], runs


# -- direct vs inclusion-exclusion -------------------------------------------


@pytest.mark.parametrize("name,B,expected", [("P2", 300, 724),
                                             ("F1", 100, 540),
                                             ("P1xP1", 200, 1732),
                                             ("dP6", 50, 724),
                                             ("dP6", 300, 7348)])
def test_direct_equals_inclusion_exclusion(name, B, expected):
    """dP6 at 50 is naive_count's value; its terms carry mixed facets over
    three and four basis classes."""
    lat = _dp6() if name == "dP6" else get_lattice(name)
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


def test_inclusion_exclusion_budget_is_per_call():
    """The 2^k - 1 terms share one budget: each fits alone, their sum
    does not."""
    lat = get_lattice("P1xP1")
    split = SimpleNamespace(cones=[[(1, 0), (1, 1)], [(1, 1), (0, 1)]])

    def ie(budget=DEFAULT_BUDGET):
        return count_anticanonical(lat, 300, mode="inclusion_exclusion",
                                   decomposition=split, budget=budget)

    full = ie()
    visited = [t["visited"] for t in full["terms"]]
    assert len(visited) == 3
    assert full["visited"] == sum(visited) > max(visited)
    with pytest.raises(BudgetError):
        ie(max(visited))
    assert ie(sum(visited))["count"] == full["count"]


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


def test_translated_polyhedron_budget_is_per_call():
    """Both boxes share one budget: each fits alone, their sum does not."""
    lat = get_lattice("P1")
    u = [Fraction(1, 2)]
    boxes = [[(1, 2)], [(2, 4)]]
    visited = [count_translated_polyhedron(lat, [box], u, 400)["visited"]
               for box in boxes]
    both = count_translated_polyhedron(lat, boxes, u, 400)
    assert both["visited"] == sum(visited) > max(visited)
    with pytest.raises(BudgetError):
        count_translated_polyhedron(lat, boxes, u, 400, budget=max(visited))
    assert count_translated_polyhedron(
        lat, boxes, u, 400, budget=sum(visited))["count"] == both["count"]


def test_count_box_frozen():
    lat = get_lattice("P1xP1")
    out = count_box(lat, [[1, 0], [0, 1]], [1, 1], [2, 2], [10, 10], tau=1.0)
    assert out["count"] == 160000
    assert out["nu"] == Fraction(9, 4)
    assert list(out["exponents"]) == [2, 2]
    assert out["ratio"] == pytest.approx(160000 / (2.25 * 10 ** 4))


def test_count_box_nu_exact_or_float():
    """nu(D(a,b)) is an exact Fraction when every c_i is an integer, and a
    float otherwise: L = diag(3, 1) on P1xP1 gives c = (2/3, 2)."""
    lat = get_lattice("P1xP1")
    out = count_box(lat, [[1, 0], [0, 1]], [1, 1], [2, 3], [4, 5])
    assert out["nu"] == Fraction(3 * 8, 2 * 2) and type(out["nu"]) is Fraction
    out = count_box(lat, [[3, 0], [0, 1]], [1, 1], [2, 3], [4, 5])
    assert list(out["exponents"]) == [Fraction(2, 3), 2]
    assert type(out["nu"]) is float
    assert out["nu"] == 1.1748021039363987
    assert out["nu"] == (1.0 / 3.0 * ((2.0 ** (2 / 3) - 1.0) / (2 / 3))
                         * float(Fraction(3 ** 2 - 1, 2)))


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


def test_count_box_rejects_bad_basis_before_enumerating(monkeypatch):
    """<omega, L_2^*> = -2 for L = [[1, 0], [0, -1]] on P1xP1: the dual
    basis check fails before any enumeration starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a box with a bad basis")

    monkeypatch.setattr(counting, "enumerate_region", refuse)
    lat = get_lattice("P1xP1")
    with pytest.raises(DegenerateInputError, match="interior"):
        count_box(lat, [[1, 0], [0, -1]], [1, 1], [2, 2], [10, 10])


def test_nu_neg_cone_values():
    """nu(-Lambda) of the cone dual to the L_i, from the generators that
    _dual_basis_data solves for; a basis with the anticanonical class
    outside its cone is refused there."""
    lat = get_lattice("P1xP1")
    omega = lat.anticanonical

    def nu_neg(l_rows):
        return nu_simplicial(counting._dual_basis_data(lat, l_rows)[2], omega)

    assert nu_neg([[1, 0], [0, 1]]) == Fraction(1, 4)
    assert nu_neg([[1, -1], [0, 1]]) == Fraction(1, 8)
    with pytest.raises(DegenerateInputError):
        nu_neg([[1, -1], [0, -1]])


@pytest.mark.parametrize("name", BUILTIN_NAMES + list(OFF_BUILTIN_FANS))
def test_dual_basis_nu_closed_form(name):
    """On every piece Lambda of the effective decomposition, with the L_i
    its facets, _dual_basis_data's one elimination gives c with sum_i c_i
    L_i = omega, |det L|, and nu(-Lambda) = 1 / (|det L| prod c_i), which
    equals nu_simplicial on Lambda's generators and on the dual basis."""
    lat = get_lattice(name)
    omega = list(lat.anticanonical)
    dec = effective_decomposition([list(c) for c in lat.classes], omega)
    for piece, nu in zip(dec.cones, dec.nus):
        l_rows = dual_cone([list(g) for g in piece], lat.rank)
        c, det, gens, nu_neg = counting._dual_basis_data(lat, l_rows)
        assert [linalg.vec_dot(c, col) for col in zip(*l_rows)] == omega
        assert det == abs(linalg.det(l_rows))
        assert nu_neg == nu == nu_simplicial(gens, omega)


# -- box decompositions and histograms ----------------------------------------


def _box(decomp, b_vec, n_vec):
    """Closed region of box n of a BoxDecomposition:
    B_i r_i^{-n_i} <= H_{L_i} <= B_i r_i^{-(n_i-1)}."""
    highs = [Fraction(b) / r ** (n - 1)
             for b, r, n in zip(b_vec, decomp.ratios, n_vec)]
    return counting._box_region(decomp.l_rows, [h / r for h, r in
                                                zip(highs, decomp.ratios)],
                                highs)


def _kept(decomp, b_vec):
    """Largest box index per axis not excluded by the emptiness bound."""
    return tuple(len(w) - 1 for w in decomp.walls(b_vec))


def test_box_decomposition_walls_and_locate():
    lat = get_lattice("P1")
    decomp = build_box_decomposition(lat, [[1]], ratios=[Fraction(2)])
    assert _kept(decomp, (8,)) == (4,)


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
    assert out["tail"]["ok"]
    assert out["nu_neg"] == Fraction(1, 4)
    assert sum(out["histogram"].values()) == out["count"]
    assert all(cnt > 0 for cnt in out["histogram"].values())
    kept = out["kept"]
    assert all(len(n) == 2 and n <= kept for n in out["histogram"])


@pytest.mark.parametrize("name,b_vec,ratios,total", [
    ("P1xP1", (20, 20), (Fraction(20, 7), Fraction(19, 6)), 260100),
    ("F1", (6, 6), (Fraction(2), Fraction(2)), 8876)])
def test_cone_box_histogram_on_walls_at_heights(name, b_vec, ratios, total):
    """Walls that equal point heights: the wall 20 / (20/7) = 7 on P1xP1,
    and on F1 the walls 3 and 3/2 of the row (0, 1), which is not nef and
    has heights 3/2.  Half-open boxes put each such point in one box."""
    lat = get_lattice(name)
    rows = [[1, 0], [0, 1]]
    decomp = build_box_decomposition(lat, rows, ratios=ratios)
    out = count_cone_box(lat, rows, b_vec, decomposition=decomp)
    assert out["ratios"] == ratios
    assert out["histogram"] == naive_box_histogram(lat, rows, b_vec, ratios)
    assert out["count"] == out["histogram_total"] == total
    assert out["empty_boxes_ok"]


def test_cone_box_below_one_is_empty():
    lat = get_lattice("P1xP1")
    out = count_cone_box(lat, [[1, 0], [0, 1]], (Fraction(1, 2), 20),
                         tau=1.0)
    assert out["count"] == 0
    assert out["empty_boxes_ok"]
    assert out["histogram_total"] == 0 and out["tail"]["ok"]
    assert out["prediction"] > 0 and out["ratio"] == 0


def test_cone_box_budget_is_per_call():
    """The corners of the wall grid share one budget: each enumeration
    fits alone, their sum does not, and the call reports the sum."""
    lat = get_lattice("P1xP1")
    l_rows, b_vec = [[1, 0], [0, 1]], (20, 20)
    out = count_cone_box(lat, l_rows, b_vec)
    visited = [
        enumerate_region(lat, counting._box_region(l_rows, [1, 1], corner),
                         1).visited
        for corner in product(*out["decomposition"].walls(b_vec))]
    assert out["visited"] == sum(visited) > max(visited)
    with pytest.raises(BudgetError):
        count_cone_box(lat, l_rows, b_vec, budget=max(visited))
    again = count_cone_box(lat, l_rows, b_vec, budget=sum(visited))
    assert again["histogram"] == out["histogram"]


def test_cone_box_rejects_cone_outside_dual_effective():
    lat = get_lattice("P1xP1")
    with pytest.raises(DegenerateInputError):
        count_cone_box(lat, [[1, 1], [0, -1]], (10, 10))


# -- f tables and hyperbola sums ----------------------------------------------


def _staircase_sum(table, alphas, B):
    """The sum of a brute-force table over S = {y : prod y^alpha_k <= B},
    each row decided in Fractions as prod y^(den alpha) <= B^den."""
    def inside(y, row):
        den = lcm(*(Fraction(a).denominator for a in row))
        return prod(Fraction(v) ** (Fraction(a) * den)
                    for v, a in zip(y, row)) <= Fraction(B) ** den

    return sum(cnt for y, cnt in table.items()
               if all(inside(y, row) for row in alphas))


def test_hyperbola_three_way_p1():
    lat = get_lattice("P1")
    floor_t, ceil_t = tabulate_f(lat, [[1]], [[2]], [10 ** 4])
    assert floor_t is ceil_t  # the row is nef: one table
    direct = enumerate_region(lat, anticanonical_region(lat), 10 ** 4).count
    assert direct == 12174
    assert hyperbola_sum(floor_t, [[2]], 10 ** 4) == direct
    # same domain written with a fractional exponent: the same box
    assert hyperbola_sum(floor_t, [[Fraction(1, 2)]], 10) == direct


def test_hyperbola_sandwich_f1():
    lat = get_lattice("F1")
    grid = (50, 100, 200)
    floor_t, ceil_t = tabulate_f(lat, [[1, 0], [0, 1]], [[3, 2]], grid)
    for B in grid:
        direct = enumerate_region(lat, anticanonical_region(lat), B).count
        s_floor = hyperbola_sum(floor_t, [[3, 2]], B)
        s_ceil = hyperbola_sum(ceil_t, [[3, 2]], B)
        assert s_ceil <= direct <= s_floor


def test_hyperbola_floor_needs_slack_on_non_nef_rows():
    """F1's floor boxes reach up to H < hi + 1, written hi + 1 - 1/D, on
    its row (0, 1), which is not nef.  With D = 1 there, as on a nef row,
    the walls close at hi and the floor sum at 10^3 reads 7,356, not the
    9,188 of run_hyperbola.  The wrong sum still brackets the count from
    above, so only a pinned value catches it."""
    lat = get_lattice("F1")
    rows = [[1, 0], [0, 1]]
    B = 1000
    direct = enumerate_region(lat, anticanonical_region(lat), B).count
    floor_t, ceil_t = tabulate_f(lat, rows, [[3, 2]], [B])
    assert counting._denominators(lat, rows, [11, 32]) == [1, 3872]
    assert hyperbola_sum(ceil_t, [[3, 2]], B) == 7356 <= direct == 7996
    assert hyperbola_sum(floor_t, [[3, 2]], B) == 9188
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_denominators", lambda lat, rows, caps: [1, 1])
        short, _ = tabulate_f(lat, rows, [[3, 2]], [B])
    assert hyperbola_sum(short, [[3, 2]], B) == 7356


@pytest.mark.parametrize("name,rows", [("F1", [[1, 0], [0, 1]]),
                                       ("F2", [[1, 0], [0, 1]]),
                                       ("P1xP1", [[1, -1], [0, 1]])])
def test_strict_walls_at_one_over_d(name, rows):
    """H < c is H <= c - 1/D and H > c is H >= c + 1/D for every integer c,
    D = _denominators (the proof is in tabulate_f): on seeded boxes
    {1 <= H_{L_j} <= hi_j}, each wall on the row that is not nef counts
    what naive_count's points count by the strict inequality.  A wall at
    c - 1, the rule with D = 1, counts fewer on some box."""
    lat = get_lattice(name)
    i = next(j for j, row in enumerate(rows) if not lat.is_nef(row))
    rng = random.Random(f"strict-{name}")
    weight = sign_class_count(lat)
    fewer = False
    for _ in range(3):
        highs = [rng.randint(3, 6) for _ in rows]
        step = Fraction(1, counting._denominators(lat, rows, highs)[i])
        heights = [mh.of_class(rows[i]) for _, mh in
                   _naive_points(lat, _unit_box(rows, highs), 1)]
        for c in range(1, highs[i] + 1):
            below, above = list(highs), [1] * len(rows)
            below[i], above[i] = c - step, c + step
            assert enumerate_region(
                lat, counting._box_region(rows, [1] * len(rows), below),
                1).count == weight * sum(h < c for h in heights)
            assert enumerate_region(
                lat, counting._box_region(rows, above, highs),
                1).count == weight * sum(h > c for h in heights)
            below[i] = max(c - 1, 1)
            fewer |= enumerate_region(
                lat, counting._box_region(rows, [1] * len(rows), below),
                1).count < weight * sum(h < c for h in heights)
    assert fewer


def test_hyperbola_tables_with_a_non_nef_row_match_naive():
    """P1xP1 with rows (1, -1), (0, 1): the first is not nef.  The box
    sums equal the sums over S of brute-force tables over a domain that
    holds every point they read: a floor cell y of S at B <= 100 has y <=
    (10, 3) and H_i < y_i + 1 <= 2 y_i, so every cap doubled and H_omega =
    H^alpha < 2^(sum alpha) B = 64 B."""
    lat = get_lattice("P1xP1")
    rows = [[1, -1], [0, 1]]
    assert [lat.is_nef(row) for row in rows] == [False, True]
    alphas = counting._dual_basis_data(lat, rows)[0]
    assert alphas == [2, 4]
    grid = (10, 37, 99, 100)
    floor_t, ceil_t = tabulate_f(lat, rows, [alphas], grid)
    assert floor_t is not ceil_t
    wide = naive_tables(lat, rows, [20, 6], [(lat.anticanonical, 6400, 0)])
    sums = []
    for B in grid:
        got = [hyperbola_sum(t, [alphas], B) for t in (floor_t, ceil_t)]
        assert got == [_staircase_sum(t, [alphas], B) for t in wide]
        sums.append(tuple(got))
    assert sums == [(28, 28), (140, 108), (620, 364), (652, 396)]


def _fraction_tables(lat, l_rows, b_max):
    """Rounded-height tables with every fingerprint built from Fraction
    powers of the basis heights, once per distinct height vector, over the
    brute-force points."""
    cons = []
    for row, b in zip(l_rows, b_max):
        cons += [(row, b, 0), ([-x for x in row], 1, 0)]
    weight = sign_class_count(lat)
    floor_d, ceil_d = {}, {}
    cells = {}
    for _, mh in _naive_points(lat, Region(cons), 1):
        hvals = mh.values
        if hvals not in cells:
            vals = []
            for row in l_rows:
                v = Fraction(1)
                for h, e in zip(hvals, row):
                    v *= Fraction(h) ** e
                vals.append(v)
            cells[hvals] = (
                tuple(v.numerator // v.denominator for v in vals),
                tuple(-(-v.numerator // v.denominator) for v in vals))
        kf, kc = cells[hvals]
        floor_d[kf] = floor_d.get(kf, 0) + weight
        ceil_d[kc] = ceil_d.get(kc, 0) + weight
    return floor_d, ceil_d


@pytest.mark.parametrize("name,l_rows,b_max", [
    ("P1xP1", [[1, 0], [0, 1]], [9, 7]),
    ("P1xP1", [[1, -1], [0, 1]], [3, 6]),
    ("F1", [[1, 0], [0, 1]], [7, 16])])
def test_tabulate_f_matches_fraction_fingerprints(name, l_rows, b_max):
    """The box sums over S = {y_0 y_1 <= B} equal the sums over S of the
    tables whose fingerprints come from Fraction powers of the basis
    heights over {1 <= H_{L_i} <= b_max_i}, at every B < min(b_max): a
    point that S reads has H_i < y_i + 1 <= B + 1 <= b_max_i.  On F1 the
    basis class (0, 1) is not nef, so its heights are Fractions."""
    lat = get_lattice(name)
    grid = range(1, min(b_max))
    tables = tabulate_f(lat, l_rows, [[1, 1]], grid)
    want = _fraction_tables(lat, l_rows, b_max)
    for B in grid:
        assert [hyperbola_sum(t, [[1, 1]], B) for t in tables] == \
            [_staircase_sum(t, [[1, 1]], B) for t in want]
    assert want[0]


@pytest.mark.parametrize("name,l_rows,b_max,extra", [
    # H_omega = (H_0 H_1)^2 <= 43^2 on every point the sums read
    ("P1xP1", [[1, 0], [0, 1]], [44, 44], [((2, 2), 8000, 0)]),
    ("P1xP1", [[1, -1], [0, 1]], [3, 6], []),
    ("P1xP1", [[1, 1], [0, 1]], [30, 5], []),
    ("F1", [[1, 0], [0, 1]], [5, 10], []),
    ("F1", [[1, 1], [0, 1]], [16, 5], []),
    ("P2", [[1]], [16], []),
    ("P3", [[1]], [6], [])])
def test_tabulate_f_matches_naive_tables(name, l_rows, b_max, extra):
    """The box sums over S = {prod y_i <= B} equal the sums over S of the
    brute-force tables, built from multi_height with no descent and no
    memo, at every B < min(b_max), as in the Fraction test above; `extra`
    cuts the brute force only where no point that S reads lies."""
    lat = get_lattice(name)
    alphas = [[1] * len(l_rows)]
    grid = range(1, min(b_max))
    tables = tabulate_f(lat, l_rows, alphas, grid)
    want = naive_tables(lat, l_rows, b_max, extra)
    for B in grid:
        assert [hyperbola_sum(t, alphas, B) for t in tables] == \
            [_staircase_sum(t, alphas, B) for t in want]
    assert want[0]


def test_tabulate_f_reports_its_enumeration():
    """The criterion 6c table: 19 boxes, one table for both roundings
    (both rows are nef), whose counts add up to the count at 10^4.  It
    reports the visited of its box counts, and its budget covers them
    all: the exact budget passes, one less raises."""
    lat = get_lattice("P1xP1")
    rows, B = [[1, 0], [0, 1]], 10 ** 4
    floor_t, ceil_t = tabulate_f(lat, rows, [[2, 2]], [B])
    assert floor_t is ceil_t and len(floor_t.data) == 19
    assert sum(floor_t.data.values()) == 143748
    again, _ = tabulate_f(lat, rows, [[2, 2]], [B], budget=floor_t.visited)
    assert again.data == floor_t.data
    with pytest.raises(BudgetError):
        tabulate_f(lat, rows, [[2, 2]], [B], budget=floor_t.visited - 1)


def test_hyperbola_sum_rational_bounds():
    """Rational B and rational exponents: the staircase's integer roots
    agree with a Fraction evaluation over the brute-force table."""
    lat = get_lattice("P1xP1")
    rows = [[1, 0], [0, 1]]
    want, _ = naive_tables(lat, rows, [12, 12])
    for alphas, B in [([[2, 2]], Fraction(289, 2)),
                      ([[Fraction(3, 2), Fraction(1, 2)]], Fraction(10, 3)),
                      ([[1, 0], [Fraction(1, 2), 1]], Fraction(50, 7))]:
        table, _ = tabulate_f(lat, rows, alphas, [B])
        assert hyperbola_sum(table, alphas, B) == \
            _staircase_sum(want, alphas, B) > 0


def test_hyperbola_sum_validation():
    """A table holds the boxes of its own grid only."""
    lat = get_lattice("P1")
    table, _ = tabulate_f(lat, [[1]], [[1]], [50])
    assert hyperbola_sum(table, [[1]], 50) == enumerate_region(
        lat, anticanonical_region(lat), 2500).count
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(table, [[-1]], 10)
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(table, [[1]], 300)      # a box the table lacks
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(table, [[1, 1]], 10)    # rank mismatch
    with pytest.raises(DegenerateInputError):
        tabulate_f(lat, [[1]], [[-1]], [10])
    pp = get_lattice("P1xP1")
    fl, _ = tabulate_f(pp, [[1, 0], [0, 1]], [[1, 1]], [5])
    with pytest.raises(DegenerateInputError):
        hyperbola_sum(fl, [[1, 0]], 4)          # unbounded second coordinate
