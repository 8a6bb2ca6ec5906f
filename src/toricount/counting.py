"""Point enumeration and the counts behind the multi-height theorems.

Regions are multiplicative with rational data, so every membership test is a
comparison of exact rationals and every count is a reproducible integer.  The
enumerator walks coordinate magnitudes in lexicographic order with per-cone
pruning; each surviving magnitude tuple is counted with multiplicity
2^(n - rho), the number of canonical sign patterns on it.  It descends the
rays in an order chosen once per region shape (_descent_order): a count
does not depend on how the rays are labelled, but which depths can use the
memo and the runs below does.

Heights stay in integers.  On a canonical point the height of a nef class is
the largest of its per-cone monomials, so each basis class is split once per
lattice into nef classes, e_i = a_i - b_i, and H_{e_i} is a ratio of two such
maxima.  Every constraint, region facets included, is compiled once per
region shape to integer exponents, and per call to an integer bound
fraction; the descent decides the nef ones exactly, and the last coordinate
is counted in closed form by Moebius inversion over an interval, or over
the pieces of it that the constraints of mixed sign leave: each of them
fails on at most one gap of the interval per term of its left side
(enumerate_region).

Prefixes that leave the same subtree are counted once.  On the closed path
each prefix of depth 1..n-1 has an integer signature: per group of nef
monomials with the same remaining exponents, the least quota floor(bound /
prefix monomial); per anti-nef constraint, whether it already holds, or per
group its least threshold ceil(c / prefix monomial); per group of cones with
the same remaining rays outside them, the gcd of their prefix complement
products.  Equal signatures have equal subtrees (the proof is in
enumerate_region), so a per-call memo maps each signature to its (count,
visited).  A depth where some nef group has a single nonconstant prefix
monomial is skipped, since its signatures would not repeat; F1 in its
builtin order has no other depth, and the order chosen for it, (y0, y2, y1,
y3), keys depth 2.  The leaf depth n-1, whose subtree is one closed-form
count, is keyed only where its parent walks long runs (P2 and P3, not
P1xP1 or F1 in any order).

Children with equal signatures are also counted together.  Along the
children m of a prefix the quota and threshold parts of the signature are
monotone step functions, so they are constant on runs of m that end at exact
integer roots; where every cone group holds the prefix's own ray, the gcd
part depends on m only through gcd(m, L) for an integer L of the prefix.
Each run and gcd class then costs one memo lookup and, past one child, one
Moebius count: on P1xP1 the (x0, x1) loop takes one step per run of equal
floor(B / max(x0, x1)^2), the grouping by max-norm of the hyperbola method.

The rounded-height tables of tabulate_f are tallied on the same path.  The
leaf then walks the last coordinate and adds each point to its floor and
ceiling fingerprint cells; the signature also holds, per group of the
max-monomials that make up the basis heights, the largest prefix monomial,
so equal signatures give equal fingerprints, and a stored subtree keeps
its two sub-tables, which a hit merges into the caller's.

A region's shape is all of it but its scales gamma, and what depends on
the shape alone is compiled once per shape (_compiled_shape): the split of
the constraints, the vertex solve of the per-coordinate caps
(coordinate_bounds), the order and the signature program.  A call only
evaluates the caps, quotas, thresholds and mixed bounds at its gamma and
B, as integer fractions; the box regions of a cone box share one shape.
Their lower walls at 1 are facets, which the compile drops on effective
rows: a P1xP1 corner evaluates 4 vertex subsets of 2 tests, about 40 us
of a 0.2 ms call on a shared 2-core VM, where the walls as constraints
gave 9 subsets of 4 tests, 80-120 us of a 0.4 ms call.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import itemgetter
import random

from . import linalg
from .cones import dual_cone, effective_decomposition, nu_simplicial
from .errors import BudgetError, DegenerateInputError
from .heights import _evaluator
from .tamagawa import nu_of_box

DEFAULT_BUDGET = 10 ** 10
TABLE_LIMIT = 20_000_000  # floor-table cells a tally may hold


@dataclass(frozen=True)
class Constraint:
    """Multiplicative bound prod_i H_{e_i}^{cls_i} <= gamma * B^s."""

    cls: tuple
    gamma: Fraction
    s: Fraction


class Region:
    """Intersection of multiplicative constraints, optionally cone-restricted.

    The cone restriction is membership of h in a rational cone of the dual
    Picard space, stored through its facet functionals: h is inside when
    prod_i H_{e_i}^{f_i} >= 1 for every facet vector f.  A rational facet is
    cleared to an integer vector d f, d > 0 (_cleared), which bounds the
    same points: H^{d f} >= 1 iff H^f >= 1.  `shape` is all of it but the
    scales gamma: the key of _compiled_shape.
    """

    def __init__(self, constraints, facets=(), cone_generators=None):
        cons = []
        for c in constraints:
            if isinstance(c, Constraint):
                cons.append(c)
            else:
                q, gamma, s = c
                cons.append(Constraint(tuple(Fraction(x) for x in q),
                                       Fraction(gamma), Fraction(s)))
        for c in cons:
            if c.gamma <= 0:
                raise DegenerateInputError("constraint scale must be positive")
        self.constraints = tuple(cons)
        facets = [_cleared([Fraction(x) for x in f])[0] for f in facets]
        if cone_generators is not None:
            gens = [list(g) for g in cone_generators]
            if gens:
                dim = len(gens[0])
                facets += [tuple(f) for f in dual_cone(gens, dim)]
        self.facets = tuple(dict.fromkeys(facets))
        self.shape = (tuple(c.cls for c in cons), tuple(c.s for c in cons),
                      self.facets)


def region_from_json(obj):
    """Region from the CLI JSON shape.

    {"constraints": [{"class": [...], "gamma": "p/q", "s": "p/q"}, ...],
     "cone": {"generators": [[...], ...]}}   (or "facets": [[...], ...])
    """
    def frac(x):
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise DegenerateInputError(f"not a rational: {x!r}")

    if not isinstance(obj, dict) or "constraints" not in obj:
        raise DegenerateInputError("region JSON needs a 'constraints' list")
    cons = []
    for c in obj["constraints"]:
        cons.append((tuple(frac(x) for x in c["class"]),
                     frac(c.get("gamma", 1)), frac(c.get("s", 0))))
    facets = [[frac(x) for x in f] for f in obj.get("facets", ())]
    gens = None
    if "cone" in obj:
        gens = obj["cone"].get("generators")
    return Region(cons, facets=facets, cone_generators=gens)


def anticanonical_region(lattice, facets=(), cone_generators=None):
    """H_{omega^{-1}} <= B as a Region."""
    return Region([(lattice.anticanonical, 1, 1)], facets=facets,
                  cone_generators=cone_generators)


# -- coordinate bounds -----------------------------------------------------

def _sides(e, bn, bd, num, den):
    """Both sides of prod (num_k/den_k)^{e_k} <= bn/bd, cross-multiplied."""
    lhs, rhs = bd, bn
    for k, ei in enumerate(e):
        if ei > 0:
            lhs = lhs * num[k] ** ei
            rhs = rhs * den[k] ** ei
        elif ei < 0:
            lhs = lhs * den[k] ** -ei
            rhs = rhs * num[k] ** -ei
    return lhs, rhs


def _cleared(vec):
    """(integer vector, d) with vec == integer vector / d, d > 0 least."""
    d = 1
    for x in vec:
        d = lcm(d, x.denominator)
    return tuple(int(x * d) for x in vec), d


def _over(num, den):
    """num / den, an integer vector over a nonzero integer, as (e, d) with
    num / den == e / d and d > 0 least: _cleared without Fractions."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    return tuple(x // g for x in num), den // g


def _vertex_program(classes, cls_rows, s_vals, facets):
    """The vertex solve of coordinate_bounds for one region shape.

    In log coordinates the region is the polytope <q, a> <= rhs over the
    constraint rows q = cls (rhs = log gamma + s log B), the ray classes and
    the facets (both negated, rhs = 0).  Each rhs, and so each vertex, is a
    rational combination of the logs of the k + 1 bases (gamma_1, ...,
    gamma_k, B).  For every nonsingular rho-subset of rows this returns the
    integer exponent vectors over those bases of its feasibility tests (the
    vertex satisfies row i iff prod base^e <= 1) and, per ray class, the
    pair (e, d) with <[D_lam], vertex> = sum_b (e_b / d) log base_b.

    It also returns the vertices of the limit shape, the region divided by
    log B as B grows with every gamma fixed: a vertex is one when every
    test's B-exponent is <= 0, and it is given by its pairings with the ray
    classes, the B-parts e_B / d, scaled by one common denominator to
    integers.  _descent_order reads its prefix sums off them.

    No step leaves the integers: each row is cleared once to (Q, P) / m,
    linalg.fraction_free_inverse inverts each subset as M / det, and the
    vertex is X / det, X = M P.  Row j's test is (Q_j X - det P_j) over
    m_j det and class c's pairing c X over det, each cleared by one gcd,
    with det's sign, to the least positive denominator.  On a shared 2-core
    VM, F1's anticanonical program takes 0.3-0.5 ms and BlP2's box with
    lower-wall constraints 16-18 ms, where Fraction inverses took 1.2-2.0
    and 100-130 ms.
    """
    rho, k = len(classes[0]), len(cls_rows)
    uniq = list(dict.fromkeys(classes))
    rows = [_cleared(tuple(q) + tuple(int(b == i) for b in range(k)) + (s,))
            for i, (q, s) in enumerate(zip(cls_rows, s_vals))]
    rows += [_cleared(tuple(-x for x in q) + (0,) * (k + 1))
             for q in uniq + list(facets)]
    rows = [(v[:rho], v[rho:], m) for v, m in rows]
    if dual_cone([[-x for x in q] for q, _, _ in rows], rho):
        raise DegenerateInputError(
            "region is unbounded over the dual effective cone")
    of_class = [k + uniq.index(c) for c in classes]

    program, limit = [], set()
    for idx in combinations(range(len(rows)), rho):
        solved = linalg.fraction_free_inverse([rows[i][0] for i in idx])
        if solved is None:  # singular subset: no vertex
            continue
        det, inv = solved
        x_cols = [[linalg.vec_dot(r, [rows[i][1][b] for i in idx])
                   for r in inv] for b in range(k + 1)]
        pair = [[linalg.vec_dot(q, x) for x in x_cols] for q, _, _ in rows]
        tests = []
        for i, (p, (_, rhs, m)) in enumerate(zip(pair, rows)):
            if i not in idx:
                e = [x - det * y for x, y in zip(p, rhs)]
                if any(e):
                    tests.append(_over(e, m * det)[0])
        # the row of class c is -c: c X / det = pair / -det
        objs = tuple(_over(pair[i], -det) for i in of_class)
        program.append((tuple(tests), objs))
        if all(e[-1] <= 0 for e in tests):
            limit.add(tuple(_over(e[-1:], den) for e, den in objs))
    den = lcm(*(y for v in limit for _, y in v))
    return tuple(program), tuple(sorted(tuple(x * (den // y) for (x,), y in v)
                                        for v in limit))


def coordinate_bounds(lattice, region, B):
    """Per-ray integer bounds M_lam with |y_lam| <= M_lam on the region.

    M_lam = floor exp sup{<[D_lam], a> : a in region and effective-dual}, the
    sup taken over the exact vertices of the rational polytope.  Raises for
    an unbounded region; an empty region yields all zeros.

    The vertex solve depends only on the region's shape (exponent rows, their
    B-exponents s, facets, ray classes), so _compiled_shape compiles it once
    per shape (_vertex_program); gamma and B enter only as the bases of its
    integer exponent vectors.  A call then decides each test prod base^e <= 1
    by cross-multiplying numerators and denominators (_sides), compares two
    objectives e1/d1 and e2/d2 as the sign of e1 d2 - e2 d1 the same way,
    and floors exp of the best by linalg.floor_rational_power: every step is
    an exact integer comparison, so the bounds equal the rational sup's.
    """
    return _evaluated(_compiled_shape(lattice, region.shape, False),
                      region, B)[0]


def _evaluated(shape, region, B):
    """The coordinate bounds of the region at B in the caller's labels, and
    the numerators and denominators of the bases (gamma_1, ..., gamma_k, B)
    they were evaluated at."""
    B = Fraction(B)
    if B <= 0:
        raise DegenerateInputError("B must be a positive rational")
    bases = [c.gamma for c in region.constraints] + [B]
    num = [b.numerator for b in bases]
    den = [b.denominator for b in bases]
    best = None
    for tests, objs in shape.vertex_program:
        if any(lhs > rhs for lhs, rhs in (_sides(e, 1, 1, num, den)
                                          for e in tests)):
            continue
        if best is None:
            best = list(objs)
            continue
        for lam, ((e1, d1), (e2, d2)) in enumerate(zip(objs, best)):
            diff = [a * d2 - b * d1 for a, b in zip(e1, e2)]
            g = gcd(*diff)
            if g:
                lhs, rhs = _sides([x // g for x in diff], 1, 1, num, den)
                if lhs > rhs:
                    best[lam] = (e1, d1)
    if best is None:
        return [0] * len(shape.order), num, den
    return [linalg.floor_rational_power(Fraction(*_sides(e, 1, 1, num, den)),
                                        1, d) for e, d in best], num, den


# -- enumeration -----------------------------------------------------------

@dataclass
class EnumerationResult:
    count: int
    visited: int
    reused: int = 0  # subtrees taken from the signature memo
    floor: dict = None  # with fingerprints: floor fingerprint -> count
    ceil: dict = None   # with fingerprints: ceiling fingerprint -> count
    order: tuple = None  # the rays in descent order (_descent_order)


def _compile_constraints(lattice, shape):
    """The shape half of the region's constraints, split into (nef,
    anti-nef, mixed) lists.

    Every region constraint prod H^q <= gamma B^s has its exponents cleared
    to integers, e = d q, and every facet f joins as the constraint
    H^{-f} <= 1.  The bound (gamma B^s)^d is prod base^v over the bases
    (gamma_1, ..., gamma_k, B) of coordinate_bounds, v = d at its gamma and
    d s at B, so a call evaluates it as the fraction _sides(v, 1, 1, ...),
    the only part that depends on gamma and B.  On canonical points a nef
    class has an integer height and an anti-nef class the reciprocal of
    one, so their bounds round to the quota floor(bound) and the threshold
    c = ceil(1/bound) without changing the point set.  Entries are (v,
    reps), reps the per-cone representatives of e (nef) or the distinct
    ones of -e (anti-nef), and (v, e) (mixed).
    """
    cls_rows, s_vals, facets = shape
    k = len(cls_rows)
    nef, anti, mixed = [], [], []
    for i, row in enumerate([tuple(q) + (s,) for q, s in zip(cls_rows, s_vals)]
                            + [tuple(-x for x in f) + (0,) for f in facets]):
        (*e, ds), d = _cleared(row)
        v = tuple(d if b == i else 0 for b in range(k)) + (ds,)
        reps = [lattice.class_representative(s, e)
                for s in range(len(lattice.fan.max_cones))]
        if all(x >= 0 for w in reps for x in w):
            nef.append((v, reps))
        elif all(x <= 0 for w in reps for x in w):
            anti.append((v, sorted({tuple(-x for x in w) for w in reps})))
        else:
            mixed.append((v, e))
    return nef, anti, mixed


def _blockable(cones, groups, ray):
    """Per group of cones, the cones that hold `ray`, or None when some
    group has none: that group's gcd then carries the new coordinate m
    itself, so the children of the depth `ray` cannot be classed by
    gcd(m, L) (enumerate_region)."""
    out = []
    for grp in groups:
        held = [s for s in grp if ray in cones[s]]
        if not held:
            return None
        out.append(held)
    return out


def _signature_program(pair_reps, anti_reps, cones, n, lists=(), owners=()):
    """Index lists of the subtree signature of enumerate_region, per
    eligible depth d.

    At depth d it holds (1) the (nef constraint, cone) pairs, as indices
    into pair_reps, grouped by their remaining exponent vector w[d:], with
    all-zero vectors left out, and one group kept of those that hold the
    same set of (constraint, prefix vector w[:d]) pairs, owners[i] the
    constraint of pair i (with no owners, every group is kept): they
    always hold the same least quota and the same moving pairs; (2) per
    anti-nef constraint, its reps and their indices grouped the same way
    (a call reads its threshold c); (3) the cones grouped by the set of
    remaining rays outside them; (4) for a tally, the distinct prefix
    vectors w[:d] of the max-monomial lists `lists`, and per list
    the groups of its reps with the same remaining vector, zero included,
    as indices into those prefix vectors; (5) without a tally, when the
    children of depth d - 1 are counted by runs (_blockable), per group of
    (1) its pairs (index, w[d-1]) with w[d-1] > 0, per group of (3) its
    cones that hold ray d - 1, and all cones that hold it; else None.  A
    zero prefix vector gives the monomial 1, which never exceeds the
    others, so it is left out, and a group of nothing else is constant and
    left out whole.  Groups (1), (3) and (4), and the cones of (5), come as
    itemgetters that always return a tuple: repeating the first index
    changes neither a min, a max nor a gcd.  Depth d in 1..n-1 is eligible
    unless some group of (1) or (4) has a single nonconstant prefix
    monomial y^v: its part of the key then takes a new value on nearly
    every prefix, so lookups there would miss.  A hit at the leaf depth
    n-1 saves only one closed-form Moebius sum, so it is keyed only where
    its parent's runs are long: without a tally, when every group of (3)
    has a cone that holds ray n-2 (else a group's gcd carries the parent's
    coordinate, as y0 does on P1xP1), and when no pair of (1) has
    w[n-2] > 0 (else the quotas move with the parent's coordinate, as on
    F1, and runs are about one child long).  This test is written out
    rather than left to _blockable, which decides runs, not eligibility.
    """
    def getters(groups):
        return [itemgetter(*grp, grp[0]) for grp in groups]

    def by_rest(vecs, d, zero=False):
        groups = {}
        for i, w in enumerate(vecs):
            if zero or any(w[d:]):
                groups.setdefault(w[d:], []).append(i)
        return list(groups.values())

    def single(vecs, groups, d):
        return any(len({vecs[i][:d] for i in grp}) == 1
                   and any(vecs[grp[0]][:d]) for grp in groups)

    program = {}
    for d in range(1, n):
        nef = by_rest(pair_reps, d)
        if owners:
            kept = {}
            for grp in nef:
                kept.setdefault(frozenset((owners[i], pair_reps[i][:d])
                                          for i in grp), grp)
            nef = list(kept.values())
        if single(pair_reps, nef, d):
            continue
        outside = {}
        for s, cone in enumerate(cones):
            rest = tuple(lam for lam in range(d, n) if lam not in cone)
            outside.setdefault(rest, []).append(s)
        if d == n - 1:  # the leaf: keyed only below long runs
            unheld = any(all(d - 1 not in cones[s] for s in grp)
                         for grp in outside.values())
            moving = any(pair_reps[i][d - 1] > 0 for grp in nef for i in grp)
            if lists or unheld or moving:
                continue
        heads = sorted({w[:d] for reps in lists for w in reps if any(w[:d])})
        tally = []
        for reps in lists:
            for grp in by_rest(reps, d, zero=True):
                idx = {heads.index(reps[i][:d]) for i in grp
                       if any(reps[i][:d])}
                if idx:
                    tally.append(sorted(idx))
        if any(len(grp) == 1 for grp in tally):
            continue
        anti = [(reps, by_rest(reps, d)) for reps in anti_reps]
        held = None if lists else _blockable(cones, outside.values(), d - 1)
        runs = None
        if held is not None:
            moving = [[(i, pair_reps[i][d - 1]) for i in grp
                       if pair_reps[i][d - 1]] for grp in nef]
            holders = [s for s, cone in enumerate(cones) if d - 1 in cone]
            runs = (moving, getters(held), itemgetter(*holders, holders[0]))
        program[d] = (getters(nef), anti, getters(outside.values()),
                      (heads, getters(tally)), runs)
    return program


def _descent_order(n, cones, pair_reps, lists, limit, closed):
    """The ray order enumerate_region descends in, for one region shape:
    order[i] is the ray at depth i.

    A count does not depend on how the rays are labelled, but the memo
    and the runs do, so each candidate order is scored on the fan
    relabelled by it.  With a closed region the score reads, from the
    _signature_program of that fan, which depths walk their children by
    runs and which are eligible, the shallower the better: a run or a memo
    hit at depth d saves a subtree of height n - d.  Ties then go to the
    fewest nodes, read off the limit vertices of _vertex_program: per depth
    k from n - 1 down to 1, the largest prefix sum sum_{i<k} log y_order[i]
    over them, the exponent of B in the number of nodes at depth k, and the
    number of vertices that reach it, which grows the power of log B.  The
    caller's order wins what is left, so symmetric fans keep it.  All n!
    orders are scored up to n = 6; beyond, the caller's order and its
    transpositions.
    """
    scores = {}

    def score(order):
        moved = itemgetter(*order)
        depth_of = {lam: i for i, lam in enumerate(order)}
        relabelled = (frozenset(map(moved, pair_reps)),
                      frozenset(frozenset(map(depth_of.get, c))
                                for c in cones),
                      frozenset(frozenset(map(moved, side))
                                for side in lists),
                      frozenset(map(moved, limit)))
        # orders that a symmetry of the fan maps onto each other relabel
        # it alike, and score alike
        if relabelled not in scores:
            reps, cone_sets, tally, vertices = relabelled
            program = (_signature_program(list(reps), (), list(cone_sets), n,
                                          [list(side) for side in tally])
                       if closed else {})
            runs = [d + 1 not in program or program[d + 1][4] is None
                    for d in range(n - 1)]
            eligible = [d not in program for d in range(1, n)]
            nodes = []
            for k in range(n - 1, 0, -1):
                sums = [sum(v[:k]) for v in vertices]
                top = max(sums, default=0)
                nodes.append((top, sums.count(top)))
            scores[relabelled] = runs, eligible, nodes
        return scores[relabelled]

    if n <= 6:
        candidates = permutations(range(n))
    else:
        def swapped(i, j):
            order = list(range(n))
            order[i], order[j] = j, i
            return tuple(order)
        candidates = [tuple(range(n))] + [swapped(i, j) for i, j in
                                          combinations(range(n), 2)]
    return min(candidates, key=score)


_Shape = namedtuple("_Shape", "vertex_program order nef anti mixed mono "
                    "outside wcol program by_runs")


@lru_cache(maxsize=256)
def _compiled_shape(lattice, shape, tally):
    """What enumerate_region needs of a region that neither gamma nor B
    moves, per lattice, Region.shape and tally flag.  A facet f that pairs
    >= 0 with the whole dual effective cone is dropped first: no region
    loses a point by it, a box region with no cone restriction included.
    Proof: such an f lies in the effective cone, the dual of the dual, so
    f = sum_lam c_lam [D_lam] with rationals c_lam >= 0.  A canonical point
    has nonzero integer coordinates and |y_lam| <= H_{[D_lam]}, the bound
    coordinate_bounds rests on, so every H_{[D_lam]} >= 1 (the ray-class
    rows of _vertex_program) and H^f = prod H_{[D_lam]}^{c_lam} >= 1: the
    point meets the facet whatever region it is counted in.  So the lower
    walls at 1 that _box_region writes as facets cost no call anything on
    an effective row L_i; on a row that is not effective the wall stays
    and is compiled as the constraint H^{-L_i} <= 1.  The entry holds the
    vertex program, the constraints (_compile_constraints), the order
    (_descent_order) and, relabelled by it (depth i holds the ray
    order[i]), the representatives, the max-monomial lists of the classes a
    tally or a mixed constraint reads (empty for the others), per depth the
    cones whose complement holds its ray and the pair exponents, and the
    _signature_program with the depths whose children walk runs.
    Every call of the shape shares the entry, so none may change it."""
    fan, n = lattice.fan, lattice.fan.n_rays
    if shape[2]:
        eff_dual = dual_cone([list(c) for c in lattice.classes], lattice.rank)
        shape = shape[:2] + (tuple(f for f in shape[2] if any(
            linalg.vec_dot(f, g) < 0 for g in eff_dual)),)
    vertex_program, limit = _vertex_program(lattice.classes, *shape)
    nef, anti, mixed = _compile_constraints(lattice, shape)
    mono = _evaluator(lattice).nef_split[2] if tally or mixed else ()
    lists = tuple(side for pair in mono for side in pair) if tally else ()
    order = _descent_order(n, fan.max_cones,
                           tuple(w for _, reps in nef for w in reps),
                           lists, limit, not mixed)
    moved = itemgetter(*order)
    nef = [(v, [moved(w) for w in reps]) for v, reps in nef]
    anti = [(v, [moved(w) for w in reps]) for v, reps in anti]
    mono = [[[moved(w) for w in side] for side in pair]
            if tally or any(e[j] for _, e in mixed) else ([], [])
            for j, pair in enumerate(mono)]
    cones = [{order.index(lam) for lam in c} for c in fan.max_cones]
    pair_reps = [w for _, reps in nef for w in reps]
    program = {} if mixed else _signature_program(
        pair_reps, [reps for _, reps in anti], cones, n,
        [side for pair in mono for side in pair] if tally else (),
        [j for j, (_, reps) in enumerate(nef) for _ in reps])
    return _Shape(vertex_program, order, nef, anti, mixed, mono,
                  [[lam not in c for c in cones] for lam in range(n)],
                  [[w[d] for w in pair_reps] for d in range(n)], program,
                  {d - 1: spec for d, spec in program.items() if spec[4]})


def _leaf_pieces(lo, hi, mixed, terms):
    """[lo, hi] less the m that fail a mixed constraint (e, bn, bd), as
    disjoint intervals in increasing order, at the leaf_terms `terms`; the
    rule and its proof are in enumerate_region."""
    def times(poly, half):  # max-plus: exponent of m -> largest coefficient
        out = {}
        for a, c in poly.items():
            for p, w in half:
                if out.get(a + w, 0) < c * p:
                    out[a + w] = c * p
        return out

    gaps = []
    for e, bn, bd in mixed:
        lhs, rhs = {0: bd}, {0: bn}
        for num, den, x in zip(*terms, e):
            if x < 0:
                num, den, x = den, num, -x
            for _ in range(x):
                lhs, rhs = times(lhs, num), times(rhs, den)
        for a, la in lhs.items():
            below, above = 0, hi + 1  # m <= below or m >= above passes
            for b, rb in rhs.items():
                if a > b:
                    below = max(below, linalg.iroot(rb // la, a - b))
                elif a < b:
                    q = -(-la // rb)
                    r = linalg.iroot(q, b - a)
                    above = min(above, r + (r ** (b - a) < q))
                elif la <= rb:
                    break
            else:
                if below + 1 < above:
                    gaps.append((below + 1, above - 1))
    pieces = []
    for start, end in sorted(gaps):
        if lo < start:
            pieces.append((lo, start - 1))
        lo = max(lo, end + 1)
    if lo <= hi:
        pieces.append((lo, hi))
    return pieces


def enumerate_region(lattice, region, B, fingerprints=None,
                     budget=DEFAULT_BUDGET, first_range=None):
    """Count canonical torsor points with multi-height in the region.

    Deterministic lexicographic walk over coordinate magnitudes with exact
    membership.  `fingerprints`, a list of integer class rows L_1..L_k,
    asks for a tally: the result's `floor` and `ceil` map each fingerprint
    (floor H_{L_i})_i, resp. (ceil H_{L_i})_i, to its number of points.

    Heights are integers throughout: each basis class is split once per
    lattice as e_i = a_i - b_i with a_i, b_i nef (HeightEvaluator.nef_split),
    and on a canonical point H_{e_i} is the ratio of the two max-monomials.
    Nef constraints are decided by the descent.  It carries, per (nef
    constraint, cone) pair with representative w and bound bn/bd, the quota
    Q = floor(bn / (bd y^w[:d])) of the prefix y_0..y_{d-1}: the point fits
    iff the rest of its monomial stays <= Q, and a child m divides Q by
    m^{w_d} (floor(floor(a/b)/c) = floor(a/(bc))), so a zero quota prunes
    and the leaf cap is min iroot(Q, w_last).  The last coordinate m then
    runs over [lo, cap]; an anti-nef constraint max_s pref_s m^{w_s} >= c
    raises lo to min_s ceil((c/pref_s)^{1/w_s}), and m keeps the point
    coprime iff gcd(m, G0) = 1, G0 the gcd of the prefix complement products
    over the cones holding the last ray.  Those m are counted as
    sum_{d | rad G0} mu(d) (floor(cap/d) - floor((lo-1)/d)), the Moebius
    treatment of torsor coprimality (Salberger, Asterisque 251; de la
    Breteche, J. Number Theory 87).  The descent's per-coordinate caps come
    from coordinate_bounds.

    Mixed constraints.  The descent does not test a constraint of mixed
    sign; the leaf cuts [lo, cap] into pieces instead (_leaf_pieces).
    With the prefix fixed, every max-monomial of nef_split is a maximum
    max_w P_w m^{w_last} of terms in m, so a mixed constraint,
    cross-multiplied as in _sides, compares two products of such maxima,
    times bd and bn.  All terms are positive, so a product of maxima is the
    maximum of the products: multiplied out as a max-plus product, keeping
    the largest coefficient per exponent of m, it reads max_a L_a m^a <=
    max_b R_b m^b.  That holds iff every a has some b with L_a m^a <= R_b
    m^b.  For a = b that test does not depend on m.  For a > b it holds
    iff m^{a-b} <= R_b / L_a, and m^{a-b} is an integer, so iff m <=
    iroot(floor(R_b / L_a), a - b); for a < b iff m^{b-a} >= ceil(L_a /
    R_b), that is from the ceiling root of ceil(L_a / R_b) of order b - a
    on.  So the m that fail term a are those above every root of the first
    kind and below every root of the second: one gap, and none when some
    a = b test holds.  The admissible m are [lo, cap] less the union of
    these gaps over every term and every mixed constraint, a union of
    disjoint pieces once overlapping gaps are merged, and each piece is
    counted by the Moebius sum above, whose G0 does not depend on m.  The
    anti-nef lower end of leaf_start is the case a = 0 with L_0 = c, kept
    as its own code.  A tally walks the m of each piece and tests
    gcd(m, G0) alone.

    Subtree memo.  On the closed path (no mixed constraint) the count and
    `visited` of the subtree below a prefix at depth d, 1 <= d <= n-1, are
    stored under its signature, and a later prefix with the same signature
    adds them without descending (`reused` counts those hits); at the leaf
    depth n-1 the subtree is the leaf itself.  With the remaining vector of
    a monomial its exponents from position d on, the signature is d
    together with
      (a) per group of nef pairs with the same nonzero remaining vector v,
          the least quota Q;
      (b) per anti-nef constraint, a mark that some prefix monomial P_w
          already reaches c, or else, per group of its representatives with
          the same nonzero remaining vector, ceil(c / max P_w);
      (c) per group of cones with the same set T of remaining rays outside
          the cone, the gcd g_T of their prefix complement products;
      (d) with a tally only, per max-monomial list of nef_split (the
          a-list and the b-list of each basis class, 2 rho lists) and per
          group of its representatives with the same remaining vector, zero
          vector included, the largest prefix monomial max P_w.
    Proof that it is complete: below the prefix, every test the descent
    and the leaf make is one of these.  (a) A nef pair's test at any depth
    is X <= Q, X the product of the new coordinates to the powers of v, and
    its leaf cap is the largest m with X' m^{v_last} <= Q; pairs with the
    same v test the same X, so together they test X <= min Q, and a zero
    remaining vector leaves a quota the parent already found >= 1.  (b)
    The leaf tests max_w P_w X_w >= c, X_w >= 1.  If some P_w >= c, it holds
    on every leaf.  Otherwise P_w X >= c iff X >= ceil(c / P_w), and the
    leaf's lower end uses ceil(c / (P_w X')) = ceil(ceil(c / P_w) / X');
    within a group the least threshold decides, and a zero remaining vector
    with P_w < c can never reach c; at c = 1 every P_w >= 1 reaches c, so
    the part is the mark on every key and the leaf keeps its lower end.
    (c) The descent's gcd tests and the leaf's G0 ask, for each prime p,
    whether p divides base_s R_s for every cone s of some set, base_s the
    prefix complement product and R_s the product of the new coordinates
    outside s.  R_s depends on s only through T_s, so p divides all of
    them iff, for every group, p divides g_T or a new coordinate in T; the
    Moebius sum reads only the primes of G0.  (d) Below the prefix a
    list's max-monomial is max_w P_w X_w, and
    X_w depends on w only through its group g, so it equals
    max_g (max_{w in g} P_w) X_g: equal keys give equal max-monomials, so
    equal H_{e_j} and equal fingerprints, point for point.  A group whose
    prefix monomials are all 1 is constant and left out of the key.  At
    the leaf depth n-1 the subtree is one interval count: part (a) and
    bounds[n-1] give its cap, and its width, the visited it adds; part (b)
    gives the lower end of leaf_start; and the group T = {} of part (c) is
    G0, whose primes are all the Moebius sum reads.  The bounds, the
    weight, the rows L_i and the budget are fixed for the call, and depth
    0, where first_range acts, is never stored.  So equal
    signatures have equal subtrees, node for node, and with a tally equal
    floor and ceiling sub-tables.  A depth is used only when
    _signature_program finds it eligible, decided once per shape.  With a
    tally a stored entry also keeps the subtree's two sub-tables: a miss
    opens fresh ones for its leaves, storing merges them into the parent's,
    and a hit merges the stored ones.  The key, the leaf and this
    bookkeeping are chosen once per call, so a count without a tally does
    no tally work at any node.

    Runs.  Without a tally, a depth d whose child depth d + 1 is eligible does
    not walk its children m one by one when every group of part (c) at d + 1
    has a cone that holds ray d (_blockable; decided once per shape).  It
    takes maximal runs [a, e] of m with equal parts (a) and (b), keyed from
    the run's own bounds: floor(q / m^w) >= v iff m <= iroot(floor(q / v),
    w), so a group's least quota v at a, the least of its least parent quota
    and floor(q / a^w) <= q over its pairs with w_d > 0, holds up to the
    least such root over those pairs; ceil(c / M) = t iff M (t - 1) < c <=
    M t, and M = max P_w m^{w_d} is nondecreasing, so a threshold t >= 2 holds
    while every P_w m^{w_d} <= floor((c - 1) / (t - 1)), and the mark while
    every P_w m^{w_d} <= c - 1.  Both parts are monotone, so a run's values
    never come back and runs have distinct signatures.  Within a run the
    children with equal D = gcd(m, L) have equal signatures, where, with
    base_s the prefix complement products, A is the gcd of base_s over the
    cones that hold ray d, and L the lcm over the groups of (c) of h, the gcd
    of base_s over the group's cones that hold ray d.  Proof: a group's part
    (c) is gcd(h, m k), k the gcd of base_s over its other cones; at each
    prime p its exponent min(v_p(h), v_p(m) + v_p(k)) depends on m only
    through min(v_p(m), v_p(h)), that is through gcd(m, h) = gcd(D, h), since
    h | L, so it is gcd(h, D k), the part (c) of the child D, keyed once per
    walk and class.  The descent's coprimality test asks gcd(A, m K) = 1, K
    the gcd over the other cones, where gcd(A, K) = 1 already (the prefix
    passed it): it holds iff gcd(D, A) = 1, as A | L.  So each D | L coprime
    to A is one class, of N_D = sum_{f | rad(L/D)} mu(f) (floor(e / Df) -
    floor((a - 1) / Df)) children, and adds N_D times the memo entry of its
    signature; a miss builds the products and quotas of its least child and
    descends it first.  A run of one child a takes no class sums: it is the
    class gcd(a, L), kept iff gcd(a, A) = 1.  Classes are taken in order of
    their least child, so the descents, and the memo each of them finds, are
    those of the per-child walk, and count, visited and reused do not change.

    Order.  The descent runs on the fan relabelled by the order that
    _descent_order picks for the region's shape: depth i holds the ray
    order[i], and the bounds, the representatives of the constraints, the
    max-monomial lists and the cones are permuted to match.  Relabelling
    the rays permutes the coordinates of the torsor points and changes no
    height, so everything above holds of the relabelled fan as written.
    The count, the tally (its fingerprints are heights of classes, not of
    rays) and `reused` are reported as they are; `order` gives the order.

    `first_range=(lo, hi)` restricts the first coordinate descended, that
    of ray order[0], so that tests can pin one prefix or add up slices.
    `visited` counts descent nodes plus full leaf widths, reused subtrees
    included, so it does not depend on the memo or the tally, only on the
    order.  Raises BudgetError past `budget` candidates,
    DegenerateInputError when a tally's floor table (the whole one or a
    subtree's, whose cells all reach the whole one) passes TABLE_LIMIT
    cells, checked after each leaf and each merge, and DegenerateInputError
    for a fan with no ample class (a complete fan that is not projective).
    """
    _evaluator(lattice).nef_split  # raises for a fan that is not projective
    n, rho = lattice.fan.n_rays, lattice.rank
    tally = fingerprints is not None
    rows = [[int(x) for x in row] for row in fingerprints or ()]
    (_, order, nef_cons, anti_cons, mixed_cons, mono, outside, wcol, program,
     by_runs) = shape = _compiled_shape(lattice, region.shape, tally)
    bounds, *bases = _evaluated(shape, region, B)

    def empty():
        return EnumerationResult(count=0, visited=0,
                                 floor={} if tally else None,
                                 ceil={} if tally else None, order=order)

    if any(m == 0 for m in bounds):
        return empty()
    bounds = [bounds[lam] for lam in order]
    weight = 1 << (n - rho)

    if not nef_cons:
        vol = 1
        for m in bounds:
            vol *= 2 * m
        if vol > budget:
            raise BudgetError(
                f"candidate box of size {vol} exceeds the budget {budget} "
                "and the region offers no usable pruning")

    visited = 0
    count = 0
    reused = 0
    over = f"enumeration visited more than {budget} candidates"

    # at this gamma and B: per (nef constraint, cone) pair the quota
    # floor(bound / prefix monomial), a prefix fitting iff every quota is
    # >= 1; per anti-nef constraint c; per mixed one its bound bn / bd
    quota = [[]]
    for v, reps in nef_cons:
        bn, bd = _sides(v, 1, 1, *bases)
        quota[0] += [bn // bd] * len(reps)
    if 0 in quota[0]:
        return empty()
    thresholds = [-(-bd // bn) for bn, bd in (_sides(v, 1, 1, *bases)
                                              for v, _ in anti_cons)]
    mixed_cons = [(e, *_sides(v, 1, 1, *bases)) for v, e in mixed_cons]
    # per-cone running complement products
    comp_prod = [[1] * len(lattice.fan.max_cones)]
    memo = {}
    # the floor and ceiling tables of the subtrees being stored, innermost
    # last, under the whole call's
    tables = [({}, {})]

    def leaf_cap(depth, quotas):
        cap = bounds[depth]
        for q, w in zip(quotas, wcol[depth]):
            if w > 0:
                c = linalg.iroot(q, w)
                if c < cap:
                    cap = c
        return cap

    mags = [0] * n
    factored = {}

    def prefix(w, depth):
        """The monomial y^w over the assigned magnitudes mags[:depth]."""
        out = 1
        for lam in range(depth):
            if w[lam]:
                out *= mags[lam] ** w[lam]
        return out

    def primes_of(m):
        """Distinct primes of a magnitude, by trial division, cached."""
        if m not in factored:
            out, x, p = [], m, 2
            while p * p <= x:
                if x % p == 0:
                    out.append(p)
                    while x % p == 0:
                        x //= p
                p += 1
            factored[m] = out + [x] * (x > 1)
        return factored[m]

    def leaf_start(lo, hi, depth):
        """The least admissible last coordinate from lo, and G0.

        An anti-nef constraint max_s pref_s m^{w_s} >= c holds exactly from
        min_s ceil((c/pref_s)^{1/w_s}) on: the rule of _leaf_pieces for a
        left side c m^0 of one term a = 0.  The prefix complement products
        are coprime (the descent checked them), so m keeps them coprime iff
        gcd(m, G0) = 1, G0 their gcd over the cones that hold the last ray.
        """
        for c, (_, reps) in zip(thresholds, anti_cons):
            ends = []
            for w in reps:
                pref = prefix(w, depth)
                if pref >= c:
                    break
                if w[depth]:
                    q = -(-c // pref)
                    r = linalg.iroot(q, w[depth])
                    ends.append(r + (r ** w[depth] < q))
            else:  # with no ends, no cone's monomial ever reaches c
                lo = max(lo, min(ends, default=hi + 1))
        return lo, gcd(*(b for b, out in zip(comp_prod[-1], outside[depth])
                         if not out))

    def leaf_count(lo, hi, depth):
        """Admissible last coordinates in [lo, hi], in closed form: one
        Moebius sum over the interval, or over each of its _leaf_pieces."""
        nonlocal count
        lo, g0 = leaf_start(lo, hi, depth)
        if hi < lo:
            return
        divs = [(1, 1)]
        for p in {p for lam in range(depth) for p in primes_of(mags[lam])
                  if g0 % p == 0}:
            divs += [(d * p, -mu) for d, mu in divs if d * p <= hi]
        if mixed_cons:
            count += weight * sum(
                mu * (b // d - (a - 1) // d) for a, b in _leaf_pieces(
                    lo, hi, mixed_cons, leaf_terms(depth)) for d, mu in divs)
        else:
            count += weight * sum(mu * (hi // d - (lo - 1) // d)
                                  for d, mu in divs)

    def leaf_terms(depth):
        """Numerator and denominator halves of the split: per basis class,
        the (prefix monomial, last exponent) pairs at the prefix mags[:depth].
        """
        return [[[(prefix(w, depth), w[depth]) for w in vecs] for vecs in side]
                for side in zip(*mono)]

    def guard(table):
        if len(table) > TABLE_LIMIT:
            raise DegenerateInputError("f table exceeds the memory guard")

    def merge(sub):
        for table, part in zip(tables[-1], sub):
            for y, cnt in part.items():
                table[y] = table.get(y, 0) + cnt
        guard(tables[-1][0])

    def leaf_walk(lo, hi, depth):
        """The tally's leaf: the last coordinates of [lo, hi], or of its
        _leaf_pieces, one by one."""
        nonlocal count
        lo, g0 = leaf_start(lo, hi, depth)
        terms = leaf_terms(depth)
        floor_t, ceil_t = tables[-1]
        for a, b in (_leaf_pieces(lo, hi, mixed_cons, terms) if mixed_cons
                     else ((lo, hi),)):
            for m in range(a, b + 1):
                if gcd(m, g0) != 1:
                    continue
                num, den = ([max(p * m ** w for p, w in half)
                             for half in side] for side in terms)
                count += weight
                yf, yc = [], []
                for row in rows:
                    lhs, rhs = _sides(row, 1, 1, num, den)
                    yf.append(lhs // rhs)
                    yc.append(-(-lhs // rhs))
                yf, yc = tuple(yf), tuple(yc)
                floor_t[yf] = floor_t.get(yf, 0) + weight
                ceil_t[yc] = ceil_t.get(yc, 0) + weight
        guard(floor_t)

    def signature(depth, comp, quotas):
        """The memo key of the subtree below the prefix mags[:depth], given
        that prefix's complement products and nef quotas."""
        nef, anti, coprime, _, _ = program[depth]
        key = [depth]
        for get in nef:
            key.append(min(get(quotas)))
        for c, (reps, groups) in zip(thresholds, anti):
            pref = [prefix(w, depth) for w in reps]
            key.append(None if max(pref) >= c else
                       tuple(-(-c // max(pref[i] for i in grp))
                             for grp in groups))
        for get in coprime:
            key.append(gcd(*get(comp)))
        return tuple(key)

    def tally_signature(depth, comp, quotas):
        """signature with part (d): the largest prefix monomial per group
        of each max-monomial list."""
        heads, groups = program[depth][3]
        vals = [prefix(v, depth) for v in heads]
        return signature(depth, comp, quotas) + tuple(max(get(vals))
                                                      for get in groups)

    def tally_lookup(sig):
        hit = memo.get(sig)
        if hit is None:
            tables.append(({}, {}))
        else:
            merge(hit[2])
        return hit

    def tally_store(sig, entry):
        sub = tables.pop()
        merge(sub)
        memo[sig] = entry + (sub,)

    if tally:
        leaf, key_of = leaf_walk, tally_signature
        lookup, store = tally_lookup, tally_store
    else:
        leaf, key_of = leaf_count, signature
        lookup, store = memo.get, memo.__setitem__

    def walk_runs(depth, lo, hi, spec):
        """The children m in [lo, hi] of a blockable depth, one step per
        run of equal parts (a) and (b) and class D = gcd(m, L) in it."""
        nonlocal visited, count, reused
        quotas, base, col = quota[-1], comp_prod[-1], wcol[depth]
        nef, anti, coprime, _, (moving, holders, held) = spec
        ell = lcm(*(gcd(*get(base)) for get in holders))
        coprime_to = gcd(*held(base))
        primes = {p for lam in range(depth) for p in primes_of(mags[lam])
                  if ell % p == 0}
        divs = [1]  # the D | L coprime to A
        for p in primes:
            if coprime_to % p:
                k, ext = p, []
                while ell % k == 0:
                    ext += [d * k for d in divs]
                    k *= p
                divs += ext
        # per class D the signed D f, f | rad(L / D), so that
        # #{m in [a, e] : gcd(m, L) = D} = sum mu (e // Df - (a - 1) // Df),
        # and part (c) of its children, that of the child D
        classes = {}
        for d in divs:
            terms = [(d, 1)]
            for p in primes:
                if ell // d % p == 0:
                    terms += [(k * p, -mu) for k, mu in terms]
            comp = [b * d if out else b
                    for b, out in zip(base, outside[depth])]
            classes[d] = terms, tuple(gcd(*get(comp)) for get in coprime)
        fixed = [(min(get(quotas)), [(quotas[i], w) for i, w in pairs])
                 for get, pairs in zip(nef, moving)]
        prefs = [[prefix(w, depth) for w in reps] for reps, _ in anti]
        a = lo
        while a <= hi:
            # parts (a) and (b) of the child a, and the last m <= hi that
            # keeps them: floor(q / m^w) >= v iff m <= iroot(floor(q / v), w)
            end, key = hi, [depth + 1]
            for v, pairs in fixed:
                for q, w in pairs:
                    if q // a ** w < v:
                        v = q // a ** w
                for q, w in pairs:
                    r = linalg.iroot(q // v, w)
                    if r < end:
                        end = r
                key.append(v)
            # ceil(c / M) = t iff M (t - 1) < c <= M t, and P m^w < c iff
            # m <= iroot(floor((c - 1) / P), w)
            for c, (reps, groups), pref in zip(thresholds, anti, prefs):
                grown = [p * a ** w[depth] for p, w in zip(pref, reps)]
                if max(grown) >= c:
                    key.append(None)
                    continue
                ts = tuple(-(-c // max(grown[i] for i in grp))
                           for grp in groups)
                key.append(ts)
                limits = [(c - 1, range(len(reps)))] + [
                    ((c - 1) // (t - 1), grp) for t, grp in zip(ts, groups)]
                for x, idx in limits:
                    for i in idx:
                        if reps[i][depth]:
                            end = min(end, linalg.iroot(x // pref[i],
                                                        reps[i][depth]))
            key = tuple(key)
            if end == a:  # one child: no class sums
                found = ([(a, 1, classes[gcd(a, ell)][1])]
                         if gcd(a, coprime_to) == 1 else [])
            else:
                found = []  # (least m of the class, its children, part (c))
                for d, (terms, part_c) in classes.items():
                    if d <= end:
                        times = 0
                        for k, mu in terms:
                            times += mu * (end // k - (a - 1) // k)
                        if times:
                            m = -(-a // d) * d
                            while gcd(m, ell) != d:
                                m += d
                            found.append((m, times, part_c))
                found.sort()
            for m, times, part_c in found:
                sig = key + part_c
                hit = memo.get(sig)
                if hit is None:
                    start = count, visited
                    mags[depth] = m
                    comp_prod.append([b * m if out else b
                                      for b, out in zip(base, outside[depth])])
                    quota.append([q // m ** w if w else q
                                  for q, w in zip(quotas, col)])
                    descend(depth + 1)
                    comp_prod.pop()
                    quota.pop()
                    hit = memo[sig] = (count - start[0], visited - start[1])
                    times -= 1
                count += times * hit[0]
                visited += times * hit[1]
                reused += times
                if visited > budget:
                    raise BudgetError(over)
            a = end + 1

    def descend(depth):
        nonlocal visited, count, reused
        quotas = quota[-1]
        cap = leaf_cap(depth, quotas)
        lo, hi = 1, cap
        if depth == 0 and first_range is not None:
            lo = max(lo, first_range[0])
            hi = min(hi, first_range[1])
        if hi < lo:
            return
        if depth == n - 1:
            visited += hi - lo + 1
            if visited > budget:
                raise BudgetError(over)
            leaf(lo, hi, depth)
            return
        visited += 1
        if visited > budget:
            raise BudgetError(over)
        if depth in by_runs:
            walk_runs(depth, lo, hi, by_runs[depth])
            return
        base = comp_prod[-1]
        col = wcol[depth]
        for m in range(lo, hi + 1):
            newcomp = [b * m if out else b
                       for b, out in zip(base, outside[depth])]
            g = 0
            for v in newcomp:
                g = gcd(g, v)
                if g == 1:
                    break
            if g != 1:
                continue
            newq = [q // m ** w if w else q for q, w in zip(quotas, col)]
            mags[depth] = m
            sig = None
            if depth + 1 in program:
                sig = key_of(depth + 1, newcomp, newq)
                hit = lookup(sig)
                if hit is not None:
                    count += hit[0]
                    visited += hit[1]
                    reused += 1
                    if visited > budget:
                        raise BudgetError(over)
                    continue
                start = count, visited
            comp_prod.append(newcomp)
            quota.append(newq)
            descend(depth + 1)
            comp_prod.pop()
            quota.pop()
            if sig is not None:
                store(sig, (count - start[0], visited - start[1]))

    descend(0)
    floor_t, ceil_t = tables[0] if tally else (None, None)
    return EnumerationResult(count=count, visited=visited, reused=reused,
                             floor=floor_t, ceil=ceil_t, order=order)


# -- dual-basis data for box machinery --------------------------------------

def _dual_basis_data(lattice, l_rows):
    """(c, det, gens): c_i = <omega, L_i^*>, |det L|, dual basis generators.

    c solves sum_i c_i L_i = omega.  Raises unless the L_i form a basis with
    every c_i > 0, the anticanonical class interior to their positive span:
    the standing assumption of the box machinery.
    """
    rho = lattice.rank
    a = [[Fraction(x) for x in row] for row in l_rows]
    if len(a) != rho or any(len(r) != rho for r in a):
        raise DegenerateInputError("need rho basis classes L_i")
    d = linalg.det(a)
    if d == 0:
        raise DegenerateInputError("L_i do not form a basis")
    at = [[a[i][j] for i in range(rho)] for j in range(rho)]
    c = linalg.solve_exact(at, [Fraction(x) for x in lattice.anticanonical])
    if any(x <= 0 for x in c):
        raise DegenerateInputError(
            "anticanonical class is not interior to the cone of the L_i")
    inv = linalg.inverse(a)
    gens = [[inv[j][i] for j in range(rho)] for i in range(rho)]
    return c, abs(d), gens


def _check_subcone(lattice, gens):
    """Every dual-basis generator must pair >= 0 with every ray class."""
    for g in gens:
        for cls in lattice.classes:
            if sum(Fraction(x) * y for x, y in zip(cls, g)) < 0:
                raise DegenerateInputError(
                    "cone is not contained in the dual effective cone")


# -- translated polyhedra and boxes -----------------------------------------

def _box_region(l_rows, lows, highs, slopes=None, extra=()):
    """lo_i B^{s_i} <= H_{L_i} <= hi_i B^{s_i} for every row L_i, as the
    Region of the constraints (L_i, hi_i, s_i) and (-L_i, 1/lo_i, -s_i),
    followed by the extra constraints; every s_i is 0 without slopes.

    A lower wall at lo_i = 1 with s_i = 0, H_{L_i} >= 1, is the facet L_i
    instead, the meaning of a facet.  _compiled_shape drops it once per
    shape when L_i is effective, since every point meets it; a wall on a
    row that is not effective stays a facet and is applied."""
    slopes = slopes or [0] * len(l_rows)
    cons, facets = [], []
    for row, lo, hi, s in zip(l_rows, lows, highs, slopes):
        cons.append((list(row), hi, s))
        if lo == 1 and s == 0:
            facets.append(row)
        else:
            cons.append(([-x for x in row], 1 / Fraction(lo), -s))
    return Region(cons + list(extra), facets=facets)


def count_translated_polyhedron(lattice, boxes, u, B, tau=None,
                                budget=DEFAULT_BUDGET):
    """Count points with multi-height in D_1 + log(B)u, D_1 a union of
    basis-aligned multiplicative boxes (pairwise interior-disjoint).

    boxes: list of per-basis (lo_i, hi_i) positive rationals at B = 1.
    u: rational pairings <e_i, u>; must be interior to the dual effective
    cone.  Returns count, exact nu(D_1), the growth exponent <omega, u>, and
    the prediction nu*tau*B^expo when tau is given.  `budget` bounds the
    candidates visited over all boxes together.
    """
    rho = lattice.rank
    axes = [[int(j == i) for j in range(rho)] for i in range(rho)]
    u = [Fraction(x) for x in u]
    for cls in lattice.classes:
        if sum(Fraction(c) * x for c, x in zip(cls, u)) <= 0:
            raise DegenerateInputError(
                "translation direction is not interior to the dual "
                "effective cone")
    omega = [Fraction(x) for x in lattice.anticanonical]
    total = spent = 0
    nu1 = Fraction(0)
    for box in boxes:
        lows, highs = zip(*((Fraction(lo), Fraction(hi)) for lo, hi in box))
        if not all(0 < lo <= hi for lo, hi in zip(lows, highs)):
            raise DegenerateInputError("invalid box bounds")
        nu1 += nu_of_box(lattice, box)
        res = enumerate_region(lattice, _box_region(axes, lows, highs, u), B,
                               budget=budget - spent)
        total += res.count
        spent += res.visited
    expo = sum(w * x for w, x in zip(omega, u))
    out = {"count": total, "nu": nu1, "exponent": expo, "B": Fraction(B),
           "visited": spent}
    if tau is not None:
        pred = float(nu1) * tau * float(Fraction(B)) ** float(expo)
        out["prediction"] = pred
        out["ratio"] = total / pred if pred else float("nan")
    return out


def count_box(lattice, l_rows, lows, highs, b_vec, tau=None,
              budget=DEFAULT_BUDGET):
    """Count {e^{a_i} B_i <= H_{L_i} <= e^{b_i} B_i} exactly, with the
    product-form prediction nu(D(a,b)) tau prod B_i^{<omega, L_i^*>}.

    lows/highs are the multiplicative bounds e^{a_i} < e^{b_i} (rationals).
    The L_i are checked (_dual_basis_data) before anything is enumerated.
    """
    c, d, _ = _dual_basis_data(lattice, l_rows)
    lows = [Fraction(x) for x in lows]
    highs = [Fraction(x) for x in highs]
    b_vec = [Fraction(x) for x in b_vec]
    if any(lo >= hi for lo, hi in zip(lows, highs)):
        raise DegenerateInputError("box needs a_i < b_i")
    if any(b < 1 for b in b_vec):
        raise DegenerateInputError("box scale parameters must be >= 1")
    region = _box_region(l_rows, [lo * b for lo, b in zip(lows, b_vec)],
                         [hi * b for hi, b in zip(highs, b_vec)])
    res = enumerate_region(lattice, region, 1, budget=budget)

    # nu(D(a,b)) = prod_i (hi_i^c_i - lo_i^c_i) / (c_i |det L|): exact when
    # every c_i is an integer, a float otherwise
    exact = all(ci.denominator == 1 for ci in c)
    nu = Fraction(1) / d if exact else 1.0 / float(d)
    for ci, lo, hi in zip(c, lows, highs):
        if ci.denominator == 1:
            factor = (hi ** int(ci) - lo ** int(ci)) / ci
            nu *= factor if exact else float(factor)
        else:
            nu *= (float(hi) ** float(ci) - float(lo) ** float(ci)) / float(ci)
    out = {"count": res.count, "nu": nu, "exponents": c,
           "B": b_vec, "visited": res.visited}
    if tau is not None:
        pred = float(nu) * tau
        for ci, b in zip(c, b_vec):
            pred *= float(b) ** float(ci)
        out["prediction"] = pred
        out["ratio"] = res.count / pred if pred else float("nan")
    return out


# -- box decompositions ------------------------------------------------------

@dataclass(frozen=True)
class BoxDecomposition:
    """Geometric box walls: box n_i holds H_{L_i} in (B r^{-n_i}, B r^{-(n_i-1)}].

    The wall ratios r_i = e^{beta_i} are random large-denominator rationals
    greater than 1, so wall values stay rational.  The boxes are half-open,
    so they partition the region {1 <= H_{L_i} <= B_i} whatever heights sit
    on a wall, and each box count is a finite difference of the corner
    counts N(c) = #{1 <= H_{L_i} <= c_i} (count_cone_box).  The
    decomposition itself does not depend on the B_i.
    """

    l_rows: tuple
    ratios: tuple

    def kept(self, b_vec):
        """Largest box index per axis not excluded by the emptiness bound."""
        return tuple(len(w) - 1 for w in self.walls(b_vec))

    def walls(self, b_vec):
        """Per axis the wall values w_0 = B_i > w_1 > ... > w_k, each one
        division by r_i from the last; w_k is the first wall below 1 (k >= 1),
        and the boxes below it have their upper wall below every height."""
        out = []
        for b, r in zip(b_vec, self.ratios):
            w = [Fraction(b)]
            while len(w) < 2 or w[-1] >= 1:
                w.append(w[-1] / r)
            out.append(w)
        return out

    def region(self, b_vec, n_vec):
        """Closed region for box D_{n,B}: B r^{-n_i} <= H_{L_i} <= B r^{-(n_i-1)}."""
        highs = [Fraction(b) / r ** (n - 1)
                 for b, r, n in zip(b_vec, self.ratios, n_vec)]
        return _box_region(self.l_rows, [h / r for h, r in
                                         zip(highs, self.ratios)], highs)


def build_box_decomposition(lattice, l_rows, seed=0, ratios=None):
    """Seeded wall ratios r_i > 1 with ~2^28 denominators.

    `ratios` overrides the draw (for walls on integer heights in tests).
    The L_i must be a basis with the anticanonical class interior to their
    span's positive orthant, the standing assumption of the box machinery.
    """
    _dual_basis_data(lattice, l_rows)
    if ratios is None:
        return _drawn_decomposition(l_rows, seed)
    ratios = [Fraction(r) for r in ratios]
    if any(r <= 1 for r in ratios):
        raise DegenerateInputError("wall ratios must exceed 1")
    return BoxDecomposition(l_rows=tuple(tuple(row) for row in l_rows),
                            ratios=tuple(ratios))


def _drawn_decomposition(l_rows, seed):
    """The seeded walls of build_box_decomposition, for L_i it has
    already validated."""
    rng = random.Random(seed)
    ratios = []
    for _ in l_rows:
        den = rng.randrange(1 << 28, 1 << 29)
        num = den + rng.randrange(den // 2, 2 * den)
        ratios.append(Fraction(num, den))
    return BoxDecomposition(l_rows=tuple(tuple(row) for row in l_rows),
                            ratios=tuple(ratios))


def count_cone_box(lattice, l_rows, b_vec, seed=0, tau=None,
                   budget=DEFAULT_BUDGET, histogram=True, decomposition=None):
    """Count {h in Lambda, 1 <= H_{L_i} <= B_i} with per-box histogram,
    emptiness verification, and the nu-tail inequality report.

    Lambda is the cone dual to cone(L_1..L_rho); it must sit inside the dual
    effective cone.  N(c) = #{h in Lambda, 1 <= H_{L_i} <= c_i} is enumerated
    once at each corner c of the grid of walls w_0 = B_i > ... > w_k
    (BoxDecomposition.walls; `decomposition` replaces the seeded draw).  The
    half-open box n, (w_n, w_{n-1}] on each axis, counts the sum over eps in
    {0,1}^rho of (-1)^{|eps|} N(w_{n-1+eps}); N(w_0) is the count, and each
    corner at a wall w_k < 1 must count 0 (`empty_boxes_ok`).  Without the
    histogram only N(w_0) is enumerated.  `budget` bounds the candidates
    visited over the whole call; `visited` is the sum over the corners.
    """
    c, _, gens = _dual_basis_data(lattice, l_rows)
    _check_subcone(lattice, gens)
    b_vec = tuple(Fraction(x) for x in b_vec)
    rho = len(b_vec)
    nu_neg = nu_simplicial(gens, lattice.anticanonical)
    decomp = decomposition or _drawn_decomposition(l_rows, seed)
    walls = decomp.walls(b_vec) if histogram else [[b] for b in b_vec]
    corners = {}
    spent = 0
    for j_vec in product(*(range(len(w)) for w in walls)):
        corner = [w[j] for w, j in zip(walls, j_vec)]
        res = enumerate_region(lattice, _box_region(l_rows, [1] * rho, corner),
                               1, budget=budget - spent)
        spent += res.visited
        corners[j_vec] = res.count
    count = corners[(0,) * rho]
    out = {
        "count": count,
        "nu_neg": nu_neg,
        "exponents": c,
        "visited": spent,
    }
    if tau is not None:
        pred = float(nu_neg) * tau
        for ci, b in zip(c, b_vec):
            pred *= float(b) ** float(ci)
        out["prediction"] = pred
        out["ratio"] = count / pred if pred else float("nan")
    if not histogram:
        return out

    kept = tuple(len(w) - 1 for w in walls)
    hist = {}
    for n_vec in product(*(range(1, k + 1) for k in kept)):
        cnt = sum((-1) ** sum(eps)
                  * corners[tuple(n - 1 + e for n, e in zip(n_vec, eps))]
                  for eps in product((0, 1), repeat=rho))
        if cnt:
            hist[n_vec] = cnt
    empty_ok = all(cnt == 0 for j_vec, cnt in corners.items()
                   if any(j == k for j, k in zip(j_vec, kept)))

    # exact tail sum of nu over the dropped boxes, against the proof bound
    g = [float(r) ** -float(ci) for r, ci in zip(decomp.ratios, c)]
    kept_frac = 1.0
    for gi, cap in zip(g, kept):
        kept_frac *= 1.0 - gi ** cap
    tail = float(nu_neg) * (1.0 - kept_frac)
    dexp = float(min(c))
    minb = float(min(b_vec))
    cbound = len(c) * float(nu_neg)
    tail_bound = cbound / minb ** dexp if minb > 0 else float("inf")

    out.update({
        "histogram": hist,
        "ratios": decomp.ratios,
        "kept": kept,
        "empty_boxes_ok": empty_ok,
        "histogram_total": sum(hist.values()),
        "tail": {"sum": tail, "bound_c": cbound, "d": dexp,
                 "min_B": minb, "ok": tail <= tail_bound},
        "decomposition": decomp,
    })
    return out


# -- f tables and hyperbola sums ---------------------------------------------

@dataclass
class FTable:
    """Counts of points by rounded height fingerprint y = round(H_{L_i}),
    with the `visited` and `reused` of the enumeration that built them."""

    variant: str           # "floor" or "ceil"
    l_rows: tuple
    caps: tuple            # table covers y_i <= caps_i
    data: dict             # tuple y -> count
    visited: int = 0
    reused: int = 0

    def mass(self, b_vec):
        b = [int(x) for x in b_vec]
        if any(x > cap for x, cap in zip(b, self.caps)):
            raise DegenerateInputError("table does not cover the requested box")
        return sum(cnt for y, cnt in self.data.items()
                   if all(yi <= bi for yi, bi in zip(y, b)))


def tabulate_f(lattice, l_rows, b_max, extra_constraints=(),
               budget=DEFAULT_BUDGET):
    """One enumeration pass filling both rounded-height tables over
    {h in Lambda, H_{L_i} <= Bmax_i}.

    The enumerator tallies the floor and ceiling fingerprints itself
    (enumerate_region with fingerprints=l_rows): its leaves walk the last
    coordinate and add each point to its two cells, and on the closed path
    a subtree whose signature repeats merges its stored sub-tables instead
    of being walked again.  DegenerateInputError is raised while the
    enumeration runs, as soon as a floor table passes TABLE_LIMIT cells.

    extra_constraints (Region constraint triples) restrict the tabulated
    domain further, e.g. to an anticanonical sublevel set; the caller must
    keep the restriction floor-complete for the cells it will query.
    """
    b_max = [int(x) for x in b_max]
    region = _box_region(l_rows, [1] * len(b_max), b_max,
                         extra=extra_constraints)
    res = enumerate_region(lattice, region, 1, fingerprints=l_rows,
                           budget=budget)
    l_t = tuple(tuple(r) for r in l_rows)
    return tuple(FTable(variant, l_t, tuple(b_max), data, res.visited,
                        res.reused)
                 for variant, data in (("floor", res.floor),
                                       ("ceil", res.ceil)))


def hyperbola_sum(table, alphas, B):
    """Exact sum of table values over {y : prod y_i^{alpha_{i,k}} <= B}."""
    B = Fraction(B)
    rho = len(table.caps)
    rows = [[Fraction(a) for a in row] for row in alphas]
    if any(len(r) != rho for r in rows):
        raise DegenerateInputError("alpha rows must match the table rank")
    if any(a < 0 for r in rows for a in r):
        raise DegenerateInputError("hyperbola exponents must be nonnegative")
    for i in range(rho):
        pos = [r[i] for r in rows if r[i] > 0]
        if not pos:
            raise DegenerateInputError(
                "hyperbola domain is unbounded in a coordinate")
        if B >= 1:
            cap = min(linalg.floor_rational_power(B, a.denominator,
                                                  a.numerator) for a in pos)
            if cap > table.caps[i]:
                raise DegenerateInputError(
                    f"table covers y_{i} <= {table.caps[i]} but the domain "
                    f"reaches {cap}")
    # prod y^alpha <= B as prod y^e <= B^den, cleared once per alpha row
    comps = []
    for r in rows:
        den = 1
        for a in r:
            den = lcm(den, a.denominator)
        comps.append(([int(a * den) for a in r],
                      B.numerator ** den, B.denominator ** den))
    ones = [1] * rho
    total = 0
    for y, cnt in table.data.items():
        if all(lhs <= rhs for lhs, rhs in (_sides(e, bn, bd, y, ones)
                                           for e, bn, bd in comps)):
            total += cnt
    return total


# -- anticanonical counts ----------------------------------------------------

def count_anticanonical(lattice, B, mode="direct", decomposition=None,
                        budget=DEFAULT_BUDGET):
    """#{h(omega^{-1}) <= log B}, directly or by inclusion-exclusion over a
    simplicial decomposition of the dual effective cone; the two modes agree
    exactly.  `budget` bounds the candidates visited over all the
    inclusion-exclusion terms together.  Returns a report dict."""
    if mode == "direct":
        res = enumerate_region(lattice, anticanonical_region(lattice), B,
                               budget=budget)
        return {"count": res.count, "mode": mode, "visited": res.visited}
    if mode != "inclusion_exclusion":
        raise DegenerateInputError(f"unknown mode {mode!r}")
    if decomposition is None:
        decomposition = effective_decomposition(
            [list(c) for c in lattice.classes],
            list(lattice.anticanonical))
    rho = lattice.rank
    facet_lists = [dual_cone([list(g) for g in cone], rho)
                   for cone in decomposition.cones]
    total = spent = 0
    terms = []
    idx = range(len(facet_lists))
    for k in range(1, len(facet_lists) + 1):
        for sub in combinations(idx, k):
            facets = []
            for j in sub:
                facets.extend(facet_lists[j])
            region = anticanonical_region(lattice, facets=facets)
            res = enumerate_region(lattice, region, B, budget=budget - spent)
            spent += res.visited
            cnt = res.count
            total += cnt if k % 2 == 1 else -cnt
            terms.append({"cones": sub, "count": cnt, "visited": res.visited})
    return {"count": total, "mode": mode, "terms": terms,
            "pieces": len(facet_lists), "visited": spent}
