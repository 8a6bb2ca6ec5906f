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
the largest of its per-cone monomials, and the class e of a constraint of
mixed sign is split once per region shape into nef classes, e = a - b
(HeightEvaluator.split), so H_e is a ratio of two such maxima.  Every
constraint, region facets included, is compiled once per region shape to
integer exponents, and per call to an integer bound fraction; the descent
decides the nef ones exactly.  With no constraint of mixed sign (the closed
path) the last two coordinates (u, v) are counted together in closed form:
the caps and lower ends of v are step functions of u, constant on blocks
that end at exact integer roots, and the gcd conditions are lifted by a
double Moebius sum over each block, Dirichlet's hyperbola method as de la
Breteche uses it on toric surfaces (J. Number Theory 87, 2001).  Otherwise
the last coordinate alone is counted by Moebius inversion over the pieces of
its interval that the constraints of mixed sign leave: each of them fails on
at most one gap of the interval per monomial of a (enumerate_region).

Prefixes that leave the same subtree are counted once.  On the closed path
each prefix of depth 1..n-2 has an integer signature: per group of nef
monomials with the same remaining exponents v, the gcd(v)-th root of the least
quota floor(bound / prefix monomial); per anti-nef constraint, whether it
already holds, or per group its least threshold ceil(c / prefix monomial); per
group of cones with the same remaining rays outside them, the gcd of their
prefix complement products.  Equal signatures have equal subtrees (the proof is
in enumerate_region), so a per-call memo maps each signature to its (count,
visited).  A depth where some nef group has a single nonconstant prefix
monomial is skipped, since its signatures would not repeat; F1 in its builtin
order has no other depth, and the order chosen for it, (y0, y2, y1, y3), keys
depth 2.

Children with equal signatures are also counted together.  Along the
children m of a prefix the quota and threshold parts of the signature are
monotone step functions, so they are constant on runs of m that end at exact
integer roots; where every cone group holds the prefix's own ray, the gcd
part depends on m only through gcd(m, L) for an integer L of the prefix.
Each run and gcd class then costs one memo lookup and, past one child, one
Moebius count: on P1xP1 the (x0, x1) loop takes one step per run of equal
floor(sqrt(B) / max(x0, x1)), the max-norm grouping of the hyperbola method.

A region's shape is all of it but its scales gamma, and what depends on
the shape alone is compiled once per shape (_compiled_shape): the split of
the constraints, the vertex solve of the per-coordinate caps, indexed
(coordinate_bounds), the order and the signature program.  A call only
evaluates the caps, quotas, thresholds and mixed bounds at its gamma and
B, as integer fractions; the box regions of a cone box share one shape.
Their lower walls at 1 are facets, which the compile drops on effective
rows: a P1xP1 corner decides 4 distinct tests for its 4 vertex subsets,
and on a shared 2-core VM its box, shape lookup and caps take about 10 us
of a 0.1-0.2 ms call, where they took 26 us before the shape held them.

The rounded-height sums of the hyperbola method are counts of staircase
boxes, one plain call each (tabulate_f), so the enumerator has one memo
key and one leaf per path: the 2-D leaf on the closed path, the 1-D leaf of
mixed pieces otherwise.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, compress, permutations, product
from math import gcd, lcm, prod
from operator import itemgetter
import random

from . import linalg
from .cones import dual_cone, effective_decomposition
from .errors import BudgetError, DegenerateInputError
from .heights import _evaluator
from .tamagawa import nu_of_box

DEFAULT_BUDGET = 10 ** 10
# mu + 1 in a byte: negate mu, and flag mu != 0
_NEGATED = bytes.maketrans(b"\0\2", b"\2\0")
_SQUAREFREE = bytes.maketrans(b"\0\1\2", b"\1\0\1")


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
    prod_i H_{e_i}^{f_i} >= 1 for every facet vector f, of ints and
    Fractions.  A rational facet is
    cleared to an integer vector d f, d > 0 (linalg.cleared), which bounds
    the same points: H^{d f} >= 1 iff H^f >= 1.  `shape` is all of it but the
    scales gamma: the key of _compiled_shape.
    """

    @classmethod
    def _exact(cls, constraints, facets):
        """The Region of Constraints with gamma > 0 and distinct integer
        facets, taken as given (tuples).  Its shape hashes as the equal one
        of Fractions does, so the two share one compiled entry."""
        return cls.__new__(cls)._hold(constraints, facets)

    def _hold(self, constraints, facets):
        self.constraints, self.facets = constraints, facets
        self.shape = (tuple(c.cls for c in constraints),
                      tuple(c.s for c in constraints), facets)
        return self

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
        facets = [linalg.cleared(f)[0] for f in facets]
        if cone_generators is not None:
            gens = [list(g) for g in cone_generators]
            if gens:
                dim = len(gens[0])
                if any(len(g) != dim for g in gens):
                    raise DegenerateInputError(
                        "cone generators differ in length")
                facets += [tuple(f) for f in dual_cone(gens, dim)]
        self._hold(tuple(cons), tuple(dict.fromkeys(facets)))


def region_from_json(obj):
    """Region from the CLI JSON shape.

    {"constraints": [{"class": [...], "gamma": "p/q", "s": "p/q"}, ...],
     "cone": {"generators": [[...], ...]}}   (or "facets": [[...], ...])

    Any other shape is a DegenerateInputError; _compiled_shape checks the
    lengths against the rank.
    """
    def frac(x):
        if not isinstance(x, (str, int, Fraction)):
            raise DegenerateInputError(f"not a rational: {x!r}")
        return Fraction(x)

    def vec(v):
        if not isinstance(v, list):
            raise DegenerateInputError(f"not a list: {v!r}")
        return [frac(x) for x in v]

    if not isinstance(obj, dict) or "constraints" not in obj:
        raise DegenerateInputError("region JSON needs a 'constraints' list")
    try:
        cons = [(vec(c["class"]), frac(c.get("gamma", 1)), frac(c.get("s", 0)))
                for c in obj["constraints"]]
        facets = [vec(f) for f in obj.get("facets", [])]
        gens = obj.get("cone", {}).get("generators")
        gens = None if gens is None else [vec(g) for g in gens]
    except (KeyError, TypeError, AttributeError, ValueError,
            ZeroDivisionError) as exc:
        raise DegenerateInputError(f"malformed region JSON: {exc!r}") from exc
    return Region(cons, facets=facets, cone_generators=gens)


def anticanonical_region(lattice, facets=(), cone_generators=None):
    """H_{omega^{-1}} <= B as a Region."""
    return Region([(lattice.anticanonical, 1, 1)], facets=facets,
                  cone_generators=cone_generators)


# -- coordinate bounds -----------------------------------------------------

def _sides(e, num, den):
    """Both sides of prod (num_k/den_k)^{e_k} <= 1, cross-multiplied."""
    lhs = rhs = 1
    for k, ei in enumerate(e):
        if ei > 0:
            lhs = lhs * num[k] ** ei
            rhs = rhs * den[k] ** ei
        elif ei < 0:
            lhs = lhs * den[k] ** -ei
            rhs = rhs * num[k] ** -ei
    return lhs, rhs


def _over(num, den):
    """num / den, an integer vector over a nonzero integer, as (e, d) with
    num / den == e / d and d > 0 least: linalg.cleared without Fractions."""
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
    rows = [linalg.cleared(tuple(q) + tuple(int(b == i) for b in range(k))
                           + (s,))
            for i, (q, s) in enumerate(zip(cls_rows, s_vals))]
    rows += [linalg.cleared(tuple(-x for x in q) + (0,) * (k + 1))
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
    objectives e1/d1 and e2/d2 by the test of the sign of e1 d2 - e2 d1
    (_indexed), and floors exp of the best, (lhs / rhs)^(1/d), as
    iroot(lhs // rhs, d): every step is exact in integers, so the bounds
    equal the rational sup's.
    """
    return _evaluated(_compiled_shape(lattice, region.shape), region, B)[0]


def _indexed(vertex_program):
    """_vertex_program's output as (subsets, tests, objectives, beats):
    the distinct test vectors e (prod base^e <= 1), the distinct objectives
    (e, d), per vertex subset the indices of its tests and per ray class of
    its objective, and for each ordered pair (i, j) of distinct objectives
    of one ray class the index of the test of i <= j, e_i d_j - e_j d_i
    over its gcd (nonzero: every (e, d) is in lowest terms)."""
    tests, objectives = {}, {}

    def index(table, key):
        return table.setdefault(key, len(table))

    subsets = [(tuple(index(tests, t) for t in ts),
                tuple(index(objectives, o) for o in os))
               for ts, os in vertex_program]
    objs = list(objectives)
    beats = {}
    for column in zip(*(os for _, os in subsets)):
        for i, j in combinations(set(column), 2):
            if (i, j) not in beats:
                (e1, d1), (e2, d2) = objs[i], objs[j]
                diff = [a * d2 - b * d1 for a, b in zip(e1, e2)]
                g = gcd(*diff)
                beats[i, j] = index(tests, tuple(x // g for x in diff))
                beats[j, i] = index(tests, tuple(-x // g for x in diff))
    return subsets, tuple(tests), tuple(objs), beats


def _evaluated(shape, region, B):
    """The coordinate bounds of the region at B in the caller's labels, and
    the numerators and denominators of the bases (gamma_1, ..., gamma_k, B)
    they were evaluated at.  Each test of _indexed is decided at most once,
    when first needed, and a ray class's best objective so far gives way to
    a new one i where the test beats[i, best] fails.  Each distinct best
    e / d is rooted once: floor((lhs / rhs)^(1/d)) = iroot(lhs // rhs, d),
    as m^d <= lhs / rhs iff m^d <= lhs // rhs."""
    B = Fraction(B)
    if B <= 0:
        raise DegenerateInputError("B must be a positive rational")
    bases = [c.gamma for c in region.constraints] + [B]
    num = [b.numerator for b in bases]
    den = [b.denominator for b in bases]
    tests, beats = shape.tests, shape.beats
    decided = [None] * len(tests)

    def holds(t):
        """prod base^tests[t] <= 1."""
        if decided[t] is None:
            lhs, rhs = _sides(tests[t], num, den)
            decided[t] = lhs <= rhs
        return decided[t]

    best = None
    for subset, objs in shape.vertex_program:
        if not all(map(holds, subset)):
            continue
        if best is None:
            best = list(objs)
            continue
        for lam, (new, old) in enumerate(zip(objs, best)):
            if new != old and not holds(beats[new, old]):
                best[lam] = new
    if best is None:
        return [0] * len(shape.order), num, den
    roots = {}
    for i in best:
        if i not in roots:
            e, d = shape.objectives[i]
            lhs, rhs = _sides(e, num, den)
            roots[i] = linalg.iroot(lhs // rhs, d)
    return [roots[i] for i in best], num, den


# -- enumeration -----------------------------------------------------------

@dataclass
class EnumerationResult:
    """count: the points; visited: descent nodes plus full leaf widths, as
    the walk of every prefix would visit them; reused: the subtrees taken
    from the signature memo, one per hit whatever the depth of the subtree
    or the visited it adds, so a count by a coarser key, or at fewer depths,
    can reuse fewer and still save more; order: the rays in descent order
    (_descent_order)."""

    count: int
    visited: int
    reused: int = 0
    order: tuple = None


def _compile_constraints(lattice, shape):
    """The shape half of the region's constraints, split into (nef,
    anti-nef, mixed) lists.

    Every region constraint prod H^q <= gamma B^s has its exponents cleared
    to integers, e = d q, and every facet f joins as the constraint
    H^{-f} <= 1.  The bound (gamma B^s)^d is prod base^v over the bases
    (gamma_1, ..., gamma_k, B) of coordinate_bounds, v = d at its gamma and
    d s at B, so a call evaluates it as the fraction _sides(v, ...),
    the only part that depends on gamma and B.  On canonical points a nef
    class has an integer height and an anti-nef class the reciprocal of
    one, so their bounds round to the quota floor(bound) and the threshold
    c = ceil(1/bound) without changing the point set.  Entries are (v,
    reps), reps the per-cone representatives of e (nef) or the distinct
    ones of -e (anti-nef), and (v, (monomials(a), monomials(b))) (mixed),
    (a, b) the nef split of e itself (HeightEvaluator.split): on a
    canonical point H_e = H_a / H_b, and each side is the largest of its
    monomials.
    """
    cls_rows, s_vals, facets = shape
    k = len(cls_rows)
    ev = _evaluator(lattice)
    nef, anti, mixed = [], [], []
    for i, row in enumerate([tuple(q) + (s,) for q, s in zip(cls_rows, s_vals)]
                            + [tuple(-x for x in f) + (0,) for f in facets]):
        (*e, ds), d = linalg.cleared(row)
        v = tuple(d if b == i else 0 for b in range(k)) + (ds,)
        reps = [lattice.class_representative(s, e)
                for s in range(len(lattice.fan.max_cones))]
        if all(x >= 0 for w in reps for x in w):
            nef.append((v, reps))
        elif all(x <= 0 for w in reps for x in w):
            anti.append((v, sorted({tuple(-x for x in w) for w in reps})))
        else:
            mixed.append((v, tuple(map(ev.monomials, ev.split(e)))))
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


def _signature_program(pair_reps, anti_reps, cones, n, owners=()):
    """Index lists of the subtree signature of enumerate_region, per
    eligible depth d.

    At depth d it holds (1) the (nef constraint, cone) pairs, as indices
    into pair_reps, grouped by their remaining exponent vector w[d:], with
    all-zero vectors left out, and one group kept of those that hold the
    same set of (constraint, prefix vector w[:d]) pairs, owners[i] the
    constraint of pair i (with no owners, every group is kept): they
    always hold the same least quota and the same moving pairs, and the
    kept one comes as (itemgetter, g), g its root (enumerate_region); (2) per
    anti-nef constraint, its reps and their indices grouped the same way
    (a call reads its threshold c); (3) the cones grouped by the set of
    remaining rays outside them; (4) when the children of depth d - 1 are
    counted by runs (_blockable), per group of (1) its pairs (index,
    w[d-1]) with w[d-1] > 0, per group of (3) its cones that hold ray
    d - 1, and all cones that hold it; else None.  Groups (1) and (3), and
    the cones of (4), come as itemgetters that always return a tuple:
    repeating the first index changes neither a min nor a gcd.  Depth d in
    1..n-2 is eligible unless some group of (1) has a single nonconstant
    prefix monomial y^v (a zero prefix vector gives the monomial 1): its
    part of the key then takes a new value on nearly every prefix, so
    lookups there would miss.  The leaf depth n-1 has no key: on the
    closed path the 2-D leaf counts it together with its parent.
    """
    def getters(groups):
        return [itemgetter(*grp, grp[0]) for grp in groups]

    def by_rest(vecs, d):
        groups = {}
        for i, w in enumerate(vecs):
            if any(w[d:]):
                groups.setdefault(w[d:], []).append(i)
        return list(groups.values())

    program = {}
    for d in range(1, n - 1):
        nef = by_rest(pair_reps, d)
        if any(len({pair_reps[i][:d] for i in grp}) == 1
               and any(pair_reps[grp[0]][:d]) for grp in nef):
            continue
        outside = {}
        for s, cone in enumerate(cones):
            rest = tuple(lam for lam in range(d, n) if lam not in cone)
            outside.setdefault(rest, []).append(s)
        # groups merged here hold the same prefix vectors, so the tests
        # above, made before the merge, read them alike
        kept, roots = {}, {}
        for grp in nef:
            owned = (frozenset((owners[i], pair_reps[i][:d]) for i in grp)
                     if owners else tuple(grp))
            kept.setdefault(owned, grp)
            roots[owned] = gcd(roots.get(owned, 0), *pair_reps[grp[0]][d:])
        nef = list(kept.values())
        roots = [g if any(sum(pair_reps[i][:d]) for i in grp) else 1
                 for grp, g in zip(nef, roots.values())]
        anti = [(reps, by_rest(reps, d)) for reps in anti_reps]
        held = _blockable(cones, outside.values(), d - 1)
        runs = None
        if held is not None:
            moving = [[(i, pair_reps[i][d - 1]) for i in grp
                       if pair_reps[i][d - 1]] for grp in nef]
            holders = [s for s, cone in enumerate(cones) if d - 1 in cone]
            runs = (moving, getters(held), itemgetter(*holders, holders[0]))
        program[d] = (list(zip(getters(nef), roots)), anti,
                      getters(outside.values()), runs)
    return program


def _descent_order(n, cones, pair_reps, limit, closed):
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
                      frozenset(map(moved, limit)))
        # orders that a symmetry of the fan maps onto each other relabel
        # it alike, and score alike
        if relabelled not in scores:
            reps, cone_sets, vertices = relabelled
            program = (_signature_program(list(reps), (), list(cone_sets), n)
                       if closed else {})
            runs = [d + 1 not in program or program[d + 1][3] is None
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


_Shape = namedtuple("_Shape", "vertex_program tests objectives beats order "
                    "nef anti mixed outside wcol program by_runs v_pairs "
                    "cone_groups")


@lru_cache(maxsize=256)
def _compiled_shape(lattice, shape):
    """What enumerate_region needs of a region that neither gamma nor B
    moves, per lattice and Region.shape.  A facet f that pairs >= 0 with
    the whole dual effective cone is dropped first: no region loses a point
    by it, a box region with no cone restriction included.  Proof: such an
    f lies in the effective cone, the dual of the dual, so f = sum_lam
    c_lam [D_lam] with rationals c_lam >= 0.  A canonical point has nonzero
    integer coordinates and |y_lam| <= H_{[D_lam]}, the bound
    coordinate_bounds rests on, so every H_{[D_lam]} >= 1 (the ray-class
    rows of _vertex_program) and H^f = prod H_{[D_lam]}^{c_lam} >= 1: the
    point meets the facet whatever region it is counted in.  So the lower
    walls at 1 that _box_region writes as facets cost no call anything on
    an effective row L_i; on a row that is not effective the wall stays
    and is compiled as the constraint H^{-L_i} <= 1.  The entry holds the
    vertex program, the constraints (_compile_constraints), the order
    (_descent_order) and, relabelled by it (depth i holds the ray
    order[i]), the representatives and the monomials of each mixed
    constraint's nef split, per depth the cones whose complement holds its
    ray and the pair exponents, the _signature_program (less depth 1,
    where no key repeats: enumerate_region) with the depths whose children
    walk runs, and what the 2-D leaf reads of the last two depths.  The
    vertex program is held as _indexed gives it.  Every call of the shape
    shares the entry, so none may change it."""
    fan, n, rho = lattice.fan, lattice.fan.n_rays, lattice.rank
    if any(len(v) != rho for v in shape[0] + shape[2]):
        raise DegenerateInputError(f"region vectors need {rho} entries")
    if shape[2]:
        eff_dual = dual_cone([list(c) for c in lattice.classes], rho)
        shape = shape[:2] + (tuple(f for f in shape[2] if any(
            linalg.vec_dot(f, g) < 0 for g in eff_dual)),)
    vertex_program, limit = _vertex_program(lattice.classes, *shape)
    nef, anti, mixed = _compile_constraints(lattice, shape)
    order = _descent_order(n, fan.max_cones,
                           tuple(w for _, reps in nef for w in reps),
                           limit, not mixed)
    moved = itemgetter(*order)
    nef = [(v, [moved(w) for w in reps]) for v, reps in nef]
    anti = [(v, [moved(w) for w in reps]) for v, reps in anti]
    mixed = [(v, [[moved(w) for w in side] for side in pair])
             for v, pair in mixed]
    cones = [{order.index(lam) for lam in c} for c in fan.max_cones]
    pair_reps = [w for _, reps in nef for w in reps]
    program = {} if mixed else _signature_program(
        pair_reps, [reps for _, reps in anti], cones, n,
        [j for j, (_, reps) in enumerate(nef) for _ in reps])
    if any(0 not in c for c in cones):
        program.pop(1, None)
    outside = [[lam not in c for c in cones] for lam in range(n)]
    wcol = [[w[d] for w in pair_reps] for d in range(n)]
    # the 2-D leaf: the pairs that bound v = y_{n-1}, by their exponents
    # (a, b) of u = y_{n-2} and v, and the cones that hold u, that hold u
    # and v, and that hold v but not u
    v_pairs = {}
    for i, ab in enumerate(zip(wcol[n - 2], wcol[n - 1])):
        if ab[1]:
            v_pairs.setdefault(ab, []).append(i)
    out_uv = list(zip(outside[n - 2], outside[n - 1]))
    cone_groups = [[s for s, out in enumerate(out_uv) if out in outs]
                   for outs in ({(0, 0), (0, 1)}, {(0, 0)}, {(1, 0)})]
    return _Shape(*_indexed(vertex_program), order, nef, anti, mixed,
                  outside, wcol, program,
                  {d - 1: spec for d, spec in program.items() if spec[3]},
                  [(a, b, itemgetter(*idx, idx[0]))
                   for (a, b), idx in v_pairs.items()], cone_groups)


def _leaf_pieces(lo, hi, mixed):
    """[lo, hi] less the m that fail a mixed constraint, as disjoint
    intervals in increasing order.  Each constraint is a pair of lists of
    (coefficient, exponent of m) terms and holds iff the largest term of
    the left list is at most the largest of the right one; the rule and
    its proof are in enumerate_region."""
    gaps = []
    for lhs, rhs in mixed:
        for la, a in lhs:
            below, above = 0, hi + 1  # m <= below or m >= above passes
            for rb, b in rhs:
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


def _lower_end(c, terms, top):
    """The least v >= 1 with max P v^b >= c over the terms (P, b): 1 when
    some P >= c, top + 1 when no v reaches c, else the least ceiling root
    of order b of ceil(c / P) over the terms with b > 0."""
    end = top + 1
    for p, b in terms:
        if p >= c:
            return 1
        if b:
            q = -(-c // p)
            r = linalg.iroot(q, b)
            end = min(end, r + (r ** b < q))
    return end


# mu + 1 per e < len, a bytearray, and the flags of the squarefree e: one
# table for every call, grown by _squarefree_upto
_MOEBIUS = [bytearray(b"\1"), b""]


def _squarefree_upto(top, limit):
    """(e, mu(e)) for the squarefree e <= top in increasing order, top <=
    limit, from the module's table of mu + 1, sieved anew to twice its size
    (at most limit + 1) when a larger top asks for it."""
    table = _MOEBIUS
    if top >= len(table[0]):
        size = min(max(top, 2 * len(table[0])), limit) + 1
        code, composite = bytearray(b"\2") * size, bytearray(size)
        code[0] = 1
        for p in range(2, size):
            if not composite[p]:
                q = p * p
                composite[q::p] = b"\1" * len(range(q, size, p))
                code[p::p] = code[p::p].translate(_NEGATED)
                code[q::q] = b"\1" * len(range(q, size, q))
        table[:] = code, code.translate(_SQUAREFREE)
    code, flags = table
    return ((e, code[e] - 1) for e in compress(range(top + 1), flags))


def enumerate_region(lattice, region, B, budget=DEFAULT_BUDGET,
                     first_range=None):
    """Count canonical torsor points with multi-height in the region.

    Deterministic lexicographic walk over coordinate magnitudes with exact
    membership.

    Heights are integers throughout: on a canonical point the height of a
    nef class is the largest of its per-cone monomials, and a class e of
    mixed sign is split once per shape as e = e+ - e- with e+ and e- nef
    (HeightEvaluator.split), so H_e = H_{e+} / H_{e-}.  Nef constraints are
    decided by the descent.  It carries, per (nef
    constraint, cone) pair with representative w and bound bn/bd, the quota
    Q = floor(bn / (bd y^w[:d])) of the prefix y_0..y_{d-1}: the point fits
    iff the rest of its monomial stays <= Q, and a child m divides Q by
    m^{w_d} (floor(floor(a/b)/c) = floor(a/(bc))), so a zero quota prunes
    and the leaf cap is min iroot(Q, w_last).  The 1-D leaf: the last
    coordinate m runs over [lo, cap]; an anti-nef constraint max_s pref_s
    m^{w_s} >= c raises lo to min_s ceil((c/pref_s)^{1/w_s}), and m keeps
    the point coprime iff gcd(m, G0) = 1, G0 the gcd of the prefix
    complement products over the cones holding the last ray.  Those m are
    counted as sum_{d | rad G0} mu(d) (floor(cap/d) - floor((lo-1)/d)),
    the Moebius treatment of torsor coprimality (Salberger, Asterisque 251;
    de la Breteche, J. Number Theory 87).  The descent's per-coordinate
    caps come from coordinate_bounds.

    The 2-D leaf.  On the closed path (no mixed constraint) depth n-2
    counts the last two coordinates (u, v) = (y_{n-2}, y_{n-1}) at once and
    adds what the walk of u, with the 1-D leaf below each u, would add.  The
    nef pairs with (w_{n-2}, w_{n-1}) = (a, b) read u^a v^b <= Q, Q their
    least quota, and u <= hi, the walk's cap, keeps every Q // u^a >= 1.
    Blocks: cap_v(u) = min(bounds[n-1], iroot(Q // u^a, b) over b > 0) does
    not increase with u, and cap_v(u') >= c iff Q >= c^b u'^a for every
    pair with b > 0, so the cap c holds up to the least iroot(Q // c^b, a)
    over the pairs with a, b > 0.  Lower ends: an anti-nef constraint the
    prefix does not meet reads max_w P_w u^a v^b >= c.  Its lower end t(u)
    is 1 once some P_w u^a >= c, else the least ceil root of order b of
    ceil(c / (P_w u^a)) over its terms with b > 0 (no v, bounds[n-1] + 1,
    if none), and lo_v(u) is the largest t.  t does not increase with u,
    and t >= 2 holds while v = t - 1 fails every term, P_w u^a (t - 1)^b
    <= c - 1 ((t - 1)^0 = 1), that is up to the least iroot((c - 1) //
    (P_w (t - 1)^b), a) over the terms with a > 0.  So [lo, hi] falls into
    maximal blocks of constant (cap_v, lo_v).  Coprimality: with base_s
    the prefix complement products, let h0 be their gcd over the cones
    that hold u, h1 over the others, g_both over the cones that hold u and
    v and g_u over those that hold v but not u.  The walk keeps u iff
    gcd(h0, u h1) = 1, that is iff gcd(u, h0) = 1, as gcd(h0, h1) = 1 (the
    prefix passed); the 1-D leaf keeps v iff gcd(v, G0) = 1, G0 = gcd(g_both,
    u g_u), and e | G0 iff e | g_both and e / (e, g_u) | u.  So the count is
    weight * sum_{d | rad h0} sum_e mu(d) mu(e) sum_u (floor(cap_v / e) -
    floor((lo_v - 1) / e)), u over the multiples of lcm(d, e / (e, g_u)) in
    the blocks with lo_v <= cap_v, floor(b / k) - floor((a - 1) / k) of them
    in [a, b].  e runs over the divisors of rad g_both or, where no cone
    holds u and v (g_both = 0: P1xP1, F1), over the squarefree e <=
    min(cap_v, hi g_u), from the table of mu every call shares
    (_squarefree_upto).  `visited` gains the 1-D leaves' widths, sum_{d |
    rad h0} mu(d) sum_u cap_v(u) over the multiples u of d, and the leaf
    raises BudgetError once it has added them.  Where g_both = 0 and e
    would run more than four times past the u (a short slice of u far from
    1, or one u with a large g_u), the leaf hands its u back to the walk
    and the 1-D leaf.

    Mixed constraints.  The descent does not test a constraint of mixed
    sign; the leaf cuts [lo, cap] into pieces instead (_leaf_pieces).  A
    mixed constraint H_e <= bn / bd reads bd H_{e+} <= bn H_{e-}.  With the
    prefix fixed each side is one maximum of terms in m, one per monomial w
    of its class, P_w the prefix part of y^w: bd P_w m^{w_last} over the
    monomials of e+, and bn P_w m^{w_last} over those of e-.  So it reads
    max_a L_a m^a <= max_b R_b m^b over these terms, two of which may share
    an exponent of m.  That holds iff every left term a has some right term
    b with L_a m^a <= R_b m^b.  For a = b that test does not depend on m.
    For a > b it holds iff m^{a-b} <= R_b / L_a, and m^{a-b} is an integer,
    so iff m <= iroot(floor(R_b / L_a), a - b); for a < b iff m^{b-a} >=
    ceil(L_a / R_b), that is from the ceiling root of ceil(L_a / R_b) of
    order b - a on.  So the m that fail term a are those above every root
    of the first kind and below every root of the second, over the right
    terms: one gap, and none when some a = b test holds.  The admissible m
    are [lo, cap] less the union of these gaps over every left term and
    every mixed constraint, a union of disjoint pieces once overlapping gaps
    are merged, and each piece is counted by the Moebius sum above, whose
    G0 does not depend on m.  The anti-nef lower end of leaf_start is the
    case a = 0 with L_0 = c, kept as its own code.

    Subtree memo.  On the closed path (no mixed constraint) the count and
    `visited` of the subtree below a prefix at depth d, 1 <= d <= n-2, are
    stored under its signature, and a later prefix with the same signature
    adds them without descending (`reused` counts those hits, one per
    subtree whatever its depth); at depth n-2 the subtree is the 2-D leaf.
    With the remaining vector of
    a monomial its exponents from position d on, the signature is d
    together with
      (a) per group of nef pairs with the same nonzero remaining vector v,
          iroot(Q, g), Q the least quota and g = gcd(v);
      (b) per anti-nef constraint, a mark that some prefix monomial P_w
          already reaches c, or else, per group of its representatives with
          the same nonzero remaining vector, ceil(c / max P_w);
      (c) per group of cones with the same set T of remaining rays outside
          the cone, the gcd g_T of their prefix complement products.
    Proof that it is complete: below the prefix, every test the descent
    and the leaf make is one of these.  (a) A nef pair's test at any depth
    is X <= Q, X the product of the new coordinates to the powers of v, and
    its leaf cap is the largest m with X' m^{v_last} <= Q; pairs with the
    same v test the same X, so together they test X <= min Q, and a zero
    remaining vector leaves a quota the parent already found >= 1.  Each X
    is Y^g, Y the product to the powers of v / g, and Y^g <= Q iff Y <=
    iroot(Q, g).  A group kept for others of its quota takes g over all their
    v: iroot(iroot(Q, g), h) = iroot(Q, g h); one with only zero prefix
    vectors keys Q (g = 1), the call's own.  (b)
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
    Moebius sum reads only the primes of G0.  At depth n-2 the subtree is
    the 2-D leaf, which adds what the walk and 1-D leaves would, and reads
    only these parts too: u^a v^b <= Q iff u^{a/g} v^{b/g} <= iroot(Q, g),
    g = gcd(a, b), so its caps of v follow from part (a) and bounds[n-1];
    lo_v reads part (b), as ceil(c / (P_w u^a)) = ceil(ceil(c / P_w) /
    u^a); and h0, h1, g_both and g_u are gcds of part (c)'s groups: T = {}
    and {n-1}, {n-2} and {n-2, n-1}, {}, and {n-2}.  The bounds, the
    weight and the budget are
    fixed for the call, and depth 0, where first_range acts, is never
    stored.  So equal signatures have equal subtrees, node for node.  A
    depth is used only when _signature_program finds it eligible, decided
    once per shape, and never depth 1 when some group of part (c) there
    holds only cones that miss ray 0 (_compiled_shape drops it after the
    order is chosen): that group's gcd is the prefix complement product
    x0 itself, and each x0 is visited once per call, so no key at depth 1
    repeats.  Every complete fan has such a group, as some cone misses ray
    0, and a cone that misses it holds one more of the rays 1..n-1 than a
    cone that holds it, so the two never share their set T.

    Runs.  A depth d whose child depth d + 1 is eligible does
    not walk its children m one by one when every group of part (c) at d + 1
    has a cone that holds ray d (_blockable; decided once per shape).  It
    takes maximal runs [a, e] of m with equal parts (a) and (b), keyed from the
    run's own bounds.  A group's least quota v at a is the least of its least
    parent quota and floor(q / a^w) <= q over its pairs with w_d > 0, and its
    part (a) is r = iroot(v, g).  Along m the quotas that do not move stay >= v
    >= r^g, and floor(q / m^w) >= r^g iff m <= iroot(floor(q / r^g), w), so r
    holds up to the least such root over the moving pairs.  ceil(c / M) = t iff
    M (t - 1) < c <= M t, and M = max P_w m^{w_d} is nondecreasing, so a
    threshold t >= 2 holds while every P_w m^{w_d} <= floor((c - 1) / (t - 1)),
    and the mark while every P_w m^{w_d} <= c - 1.  Both parts are monotone, so
    a run's values never come back and runs have distinct signatures.  Within a
    run the children with equal D = gcd(m, L) have equal signatures, where,
    with base_s the prefix complement products, A is the gcd of base_s over the
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
    monomials of the mixed ones and the cones are permuted to match.
    Relabelling the rays permutes the coordinates of the torsor points and
    changes no height, so everything above holds of the relabelled fan as
    written.  The count and `reused` are reported as they are; `order`
    gives the order.

    `first_range=(lo, hi)` restricts the first coordinate descended, that
    of ray order[0], so that tests can pin one prefix or add up slices.
    `visited` counts descent nodes plus full leaf widths, reused subtrees
    included, so it does not depend on the memo, only on the order.  Raises
    BudgetError past `budget` candidates, and DegenerateInputError for a
    fan with no ample class (a complete fan that is not projective).
    """
    _evaluator(lattice).nef_split  # raises for a fan that is not projective
    n, rho = lattice.fan.n_rays, lattice.rank
    (*_, order, nef_cons, anti_cons, mixed_cons, outside, wcol, program,
     by_runs, v_pairs, cone_groups) = shape = _compiled_shape(lattice,
                                                             region.shape)
    bounds, *bases = _evaluated(shape, region, B)
    empty = EnumerationResult(count=0, visited=0, order=order)
    if any(m == 0 for m in bounds):
        return empty
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
    # >= 1; per anti-nef constraint c; per mixed one its bound bn / bd, as
    # the factors (bd, bn) of its (left, right) monomials
    quota = [[]]
    for v, reps in nef_cons:
        bn, bd = _sides(v, *bases)
        quota[0] += [bn // bd] * len(reps)
    if 0 in quota[0]:
        return empty
    thresholds = [-(-bd // bn) for bn, bd in (_sides(v, *bases)
                                              for v, _ in anti_cons)]
    mixed_cons = [(_sides(v, *bases)[::-1], pair)
                  for v, pair in mixed_cons]
    # per-cone running complement products
    comp_prod = [[1] * len(lattice.fan.max_cones)]
    memo = {}

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
            lo = max(lo, _lower_end(c, [(prefix(w, depth), w[depth])
                                        for w in reps], hi))
        return lo, gcd(*(b for b, out in zip(comp_prod[-1], outside[depth])
                         if not out))

    def leaf_count(lo, hi, depth):
        """Admissible last coordinates in [lo, hi] in closed form: one
        Moebius sum over each of the _leaf_pieces that the mixed
        constraints leave (the whole interval when there are none)."""
        nonlocal count
        lo, g0 = leaf_start(lo, hi, depth)
        if hi < lo:
            return
        divs = squarefree_divisors(g0, depth, hi)
        terms = [[[(c * prefix(w, depth), w[depth]) for w in side]
                  for c, side in zip(factors, pair)]
                 for factors, pair in mixed_cons]
        count += weight * sum(
            mu * (b // d - (a - 1) // d)
            for a, b in _leaf_pieces(lo, hi, terms) for d, mu in divs)

    def squarefree_divisors(g, depth, top):
        """(d, mu(d)) for the d <= top dividing rad g, g a product of
        powers of the magnitudes mags[:depth]."""
        divs = [(1, 1)]
        if g == 1:
            return divs
        for p in {p for lam in range(depth) for p in primes_of(mags[lam])
                  if g % p == 0}:
            divs += [(d * p, -mu) for d, mu in divs if d * p <= top]
        return divs

    def leaf_pair(lo, hi):
        """The last two coordinates (u, v) below the prefix mags[:n-2], u in
        [lo, hi], in closed form: the count and visited that the walk of u,
        and the leaf below each u, would add (enumerate_region)."""
        nonlocal count, visited
        quotas, base = quota[-1], comp_prod[-1]
        top = bounds[n - 1]
        caps = [(a, b, min(get(quotas))) for a, b, get in v_pairs]
        walls = []  # per anti-nef constraint not yet met: its (P_w, a, b)
        for c, (_, reps) in zip(thresholds, anti_cons):
            terms = [(prefix(w, n - 2), w[n - 2], w[n - 1]) for w in reps]
            if max(p for p, _, _ in terms) < c:
                walls.append((c, terms))
        blocks = []  # (first u, last u, cap_v, lo_v - 1), cap_v >= 1
        u = lo
        while u <= hi:
            cap = min([top] + [linalg.iroot(q // u ** a, b)
                               for a, b, q in caps])
            end = min([hi] + [linalg.iroot(q // cap ** b, a)
                              for a, b, q in caps if a])
            low = 1
            for c, terms in walls:
                t = _lower_end(c, [(p * u ** a, b) for p, a, b in terms], top)
                if t > 1:  # holds while v = t - 1 fails every term
                    low = max(low, t)
                    end = min([end] + [
                        linalg.iroot((c - 1) // (p * (t - 1) ** b), a)
                        for p, a, b in terms if a])
            blocks.append((u, end, cap, low - 1))
            u = end + 1
        h0, g_both, g_u = (gcd(*map(base.__getitem__, grp))
                           for grp in cone_groups)
        live = [blk for blk in blocks if blk[3] < blk[2]]
        cap = blocks[0][2]
        if not g_both:
            cap = min(cap, hi * g_u)
            if sum(min(c, cap) for _, _, c, _ in live) > 4 * (hi - lo + 1):
                return False  # e would run far past the u: walk them
        ds = squarefree_divisors(h0, n - 2, hi)
        for d, mu_d in ds:
            for a, b, c, _ in blocks:
                visited += mu_d * (b // d - (a - 1) // d) * c
        if visited > budget:
            raise BudgetError(over)
        es = (squarefree_divisors(g_both, n - 2, cap) if g_both
              else _squarefree_upto(cap, top))
        total = 0
        for e, mu_e in es:
            f = e // gcd(e, g_u)
            for d, mu_d in ds:
                k = lcm(d, f)
                if k <= hi:
                    part = 0
                    for a, b, c, low in live:
                        if c < e:
                            break
                        part += (b // k - (a - 1) // k) * (c // e - low // e)
                    total += mu_d * mu_e * part
        count += weight * total
        return True

    def signature(depth, comp, quotas):
        """The memo key of the subtree below the prefix mags[:depth], given
        that prefix's complement products and nef quotas."""
        nef, anti, coprime, _ = program[depth]
        key = [depth]
        for get, g in nef:
            q = min(get(quotas))
            key.append(linalg.iroot(q, g) if g > 1 else q)
        for c, (reps, groups) in zip(thresholds, anti):
            pref = [prefix(w, depth) for w in reps]
            key.append(None if max(pref) >= c else
                       tuple(-(-c // max(pref[i] for i in grp))
                             for grp in groups))
        for get in coprime:
            key.append(gcd(*get(comp)))
        return tuple(key)

    def walk_runs(depth, lo, hi, spec):
        """The children m in [lo, hi] of a blockable depth, one step per
        run of equal parts (a) and (b) and class D = gcd(m, L) in it."""
        nonlocal visited, count, reused
        quotas, base, col = quota[-1], comp_prod[-1], wcol[depth]
        nef, anti, coprime, (moving, holders, held) = spec
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
        fixed = [(min(get(quotas)), g, [(quotas[i], w) for i, w in pairs])
                 for (get, g), pairs in zip(nef, moving)]
        prefs = [[prefix(w, depth) for w in reps] for reps, _ in anti]
        a = lo
        while a <= hi:
            # parts (a) and (b) of the child a, and the last m <= hi that
            # keeps them: r = iroot(v, g) while m <= iroot(floor(q / r^g), w)
            end, key = hi, [depth + 1]
            for v, g, pairs in fixed:
                for q, w in pairs:
                    if q // a ** w < v:
                        v = q // a ** w
                key.append(linalg.iroot(v, g) if g > 1 else v)
                v = key[-1] ** g
                for q, w in pairs:
                    r = linalg.iroot(q // v, w)
                    if r < end:
                        end = r
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
        if depth == n - 1:  # mixed regions, and the u the 2-D leaf walks
            visited += hi - lo + 1
            if visited > budget:
                raise BudgetError(over)
            leaf_count(lo, hi, depth)
            return
        visited += 1
        if visited > budget:
            raise BudgetError(over)
        if depth == n - 2 and not mixed_cons and leaf_pair(lo, hi):
            return
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
                sig = signature(depth + 1, newcomp, newq)
                hit = memo.get(sig)
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
                memo[sig] = (count - start[0], visited - start[1])

    descend(0)
    return EnumerationResult(count=count, visited=visited, reused=reused,
                             order=order)


# -- dual-basis data for box machinery --------------------------------------

def _dual_basis_data(lattice, l_rows, subcone=False):
    """(c, det, gens, nu_neg): c_i = <omega, L_i^*>, |det L|, the dual basis
    L_i^* and nu(-Lambda) of its cone, from one fraction-free inverse of E =
    diag(m) L, L's rows cleared: E^-1 = M / d, L^-1 = E^-1 diag(m) and |det
    L| = |d| / prod m_i, so L_i^* = (m_i / d) M_i, M_i column i of M.  c =
    omega L^-1 solves sum_i c_i L_i = omega, so nu(-Lambda) = |det L^*| /
    prod <omega, L_i^*> is 1 / (|det L| prod c_i).  Raises unless the L_i
    form a basis with every c_i > 0, the standing assumption of the box
    machinery, and with `subcone` unless every <cls, L_i^*>, of the sign
    of d <cls, M_i>, is >= 0: Lambda in the dual effective cone.
    """
    rho = lattice.rank
    if len(l_rows) != rho or any(len(r) != rho for r in l_rows):
        raise DegenerateInputError("need rho basis classes L_i")
    rows = [linalg.cleared(row) for row in l_rows]
    solved = linalg.fraction_free_inverse([e for e, _ in rows])
    if solved is None:
        raise DegenerateInputError("L_i do not form a basis")
    d, inv = solved
    cols = list(zip(*inv))
    c = [Fraction(m * linalg.vec_dot(lattice.anticanonical, col), d)
         for col, (_, m) in zip(cols, rows)]
    if any(x <= 0 for x in c):
        raise DegenerateInputError(
            "anticanonical class is not interior to the cone of the L_i")
    if subcone and any(d * linalg.vec_dot(cls, col) < 0
                       for col in cols for cls in lattice.classes):
        raise DegenerateInputError(
            "cone is not contained in the dual effective cone")
    gens = [[Fraction(x * m, d) for x in col]
            for col, (_, m) in zip(cols, rows)]
    det = Fraction(abs(d), prod(m for _, m in rows))
    return c, det, gens, 1 / (det * prod(c))


# -- translated polyhedra and boxes -----------------------------------------

def _box_region(l_rows, lows, highs, slopes=None):
    """lo_i B^{s_i} <= H_{L_i} <= hi_i B^{s_i} for every row L_i, as the
    Region of the constraints (L_i, hi_i, s_i) and (-L_i, 1/lo_i, -s_i);
    every s_i is 0 without slopes.

    A lower wall at lo_i = 1 with s_i = 0, H_{L_i} >= 1, is the facet L_i
    instead, the meaning of a facet.  _compiled_shape drops it once per
    shape when L_i is effective, since every point meets it; a wall on a
    row that is not effective stays a facet and is applied.  The bounds,
    positive ints or Fractions, and the rows go into the Region as given
    (Region._exact); only a rational row is cleared for its facet."""
    slopes = slopes or [0] * len(l_rows)
    cons, facets = [], []
    for row, lo, hi, s in zip(l_rows, lows, highs, slopes):
        row = tuple(row)
        cons.append(Constraint(row, hi, s))
        if lo == 1 and s == 0:
            facets.append(row if all(type(x) is int for x in row)
                          else linalg.cleared(row)[0])
        else:
            cons.append(Constraint(tuple(-x for x in row), Fraction(1, lo),
                                   -s))
    return Region._exact(tuple(cons), tuple(dict.fromkeys(facets)))


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
    c, d, _, _ = _dual_basis_data(lattice, l_rows)
    lows = [Fraction(x) for x in lows]
    highs = [Fraction(x) for x in highs]
    b_vec = [Fraction(x) for x in b_vec]
    if any(lo >= hi for lo, hi in zip(lows, highs)):
        raise DegenerateInputError("box needs a_i < b_i")
    if any(lo <= 0 for lo in lows):
        raise DegenerateInputError("box bounds e^{a_i} must be positive")
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
    c, _, _, nu_neg = _dual_basis_data(lattice, l_rows, subcone=True)
    b_vec = tuple(Fraction(x) for x in b_vec)
    rho = len(b_vec)
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
    """Point counts by staircase box: `data` maps each box, one integer
    range (lo, hi) of rounded heights per row L_i, to the number of points
    whose rounded heights lie in it; `visited` sums the enumerations."""

    l_rows: tuple
    data: dict
    visited: int = 0


def _hyperbola_domain(alphas, rho, B):
    """S = {y >= 1 : prod_i y_i^{alpha_{k,i}} <= B for every row k}, each
    row cleared once to (e, bn, bd), prod y^e <= bn / bd with e integer."""
    B = Fraction(B)
    rows = [[Fraction(a) for a in row] for row in alphas]
    if any(len(r) != rho for r in rows):
        raise DegenerateInputError("alpha rows must match the table rank")
    if any(a < 0 for r in rows for a in r):
        raise DegenerateInputError("hyperbola exponents must be nonnegative")
    if any(all(r[i] == 0 for r in rows) for i in range(rho)):
        raise DegenerateInputError(
            "hyperbola domain is unbounded in a coordinate")
    out = []
    for r in rows:
        den = lcm(*(a.denominator for a in r))
        out.append(([int(a * den) for a in r],
                    B.numerator ** den, B.denominator ** den))
    return out


def _staircase(domain, rho):
    """The boxes that tile the down-closed set S of _hyperbola_domain: per
    point p of S's projection on the first rho - 2 coordinates and per run
    [a, b] of coordinate rho - 2 on which the largest last coordinate M
    stays the same, the box p x [a, b] x [1, M], as one (lo, hi) per
    coordinate.  The run from a ends at the largest y with (p, y, M) in S,
    since M does not increase along it; for rho = 1 S is the one box
    [1, M]."""
    def top(y, i):  # the largest y_i with y, its entry i replaced, in S
        out = None
        for e, bn, bd in domain:
            q = bn // (bd * prod(v ** x for j, (v, x) in enumerate(zip(y, e))
                                 if j != i))
            if e[i]:
                r = linalg.iroot(q, e[i])
                out = r if out is None else min(out, r)
            elif not q:
                return 0
        return out

    if rho == 1:
        m = top((1,), 0)
        return [((1, m),)] if m else []
    boxes = []

    def walk(pre):
        d = len(pre)
        if d < rho - 2:
            for v in range(1, top(pre + (1,) * (rho - d), d) + 1):
                walk(pre + (v,))
            return
        a = 1
        while m := top(pre + (a, 1), rho - 1):
            end = top(pre + (a, m), rho - 2)
            boxes.append(tuple((v, v) for v in pre) + ((a, end), (1, m)))
            a = end + 1

    walk(())
    return boxes


def _denominators(lattice, l_rows, caps):
    """Per row L_i a bound D_i on the denominator of H_{L_i} at every
    point of {1 <= H_{L_j} <= caps_j}: the largest monomial of b_i at the
    region's coordinate caps, (a_i, b_i) the nef split of L_i
    (HeightEvaluator.split), so 1 on a nef row, whose b_i is 0
    (tabulate_f)."""
    bounds = coordinate_bounds(
        lattice, _box_region(l_rows, [1] * len(caps), caps), 1)
    ev = _evaluator(lattice)
    return [max(prod(m ** w for m, w in zip(bounds, v))
                for v in ev.monomials(ev.split(row)[1])) for row in l_rows]


def tabulate_f(lattice, l_rows, alphas, grid, budget=DEFAULT_BUDGET):
    """The floor and ceiling tables of the rounded-height sums at every B
    of the grid, as counts of staircase boxes (FTable).

    Each B's domain S = {y >= 1 : prod y^alpha_k <= B} is tiled by the
    boxes of _staircase, and the points of the cone {H_{L_i} >= 1} whose
    rounded heights lie in a box are counted by one enumerate_region call
    (boxes that two grid points share are counted once).  On each row,
    for the box range [lo, hi]:
      ceil: ceil H in [lo, hi] iff lo - 1 < H <= hi (H >= 1 when lo = 1);
      floor: floor H in [lo, hi] iff lo <= H < hi + 1.
    A strict wall is written as a rational non-strict one: H < c as
    H <= c - 1/D and H > c as H >= c + 1/D, for integers c and D a bound on
    the denominator of H_{L_i} over every point that the box with its walls
    closed holds (_denominators: the box {1 <= H_{L_j} <= cap_j + 1}, cap_j
    the largest hi of axis j, holds every closed box).  Proof: H_{L_i} =
    H_a / H_b on a canonical point, L_i = a - b its nef split, where H_b is
    an integer <= D_i: the largest monomial of b, whose exponents are >= 0,
    is at most its value at the coordinate caps.  So H_{L_i} = p / q in
    lowest terms with q | H_b, q <= D_i.  If H < c, then c - H =
    (c q - p) / q with c q - p a positive integer, so c - H >= 1/q >= 1/D_i;
    and H <= c - 1/D_i gives H < c.  The same holds for H > c.  A nef row
    has integer heights,
    D = 1, and both roundings give the box lo <= H <= hi; when every row is
    nef the two tables are one object.  Neither the enumerator nor
    Constraint knows of strict walls.  `budget` bounds the candidates
    visited over every box of both tables.
    """
    rho = len(l_rows)
    boxes = list(dict.fromkeys(box for B in grid for box in _staircase(
        _hyperbola_domain(alphas, rho, B), rho)))
    l_rows = tuple(tuple(int(x) for x in row) for row in l_rows)
    steps = [Fraction(1, d) for d in _denominators(
        lattice, l_rows, [max((box[i][1] for box in boxes), default=0) + 1
                          for i in range(rho)])]
    roundings = [lambda lo, hi, f: (lo, hi + 1 - f)]  # floor
    if any(f != 1 for f in steps):  # else the ceiling boxes are the same
        roundings.append(lambda lo, hi, f: (lo - 1 + f if lo > 1 else 1, hi))
    spent, tables = 0, []
    for walls in roundings:
        start, data = spent, {}
        for box in boxes:
            lows, highs = zip(*(walls(lo, hi, f)
                                for (lo, hi), f in zip(box, steps)))
            res = enumerate_region(lattice, _box_region(l_rows, lows, highs),
                                   1, budget=budget - spent)
            spent += res.visited
            data[box] = res.count
        tables.append(FTable(l_rows, data, spent - start))
    return tables[0], tables[-1]


def hyperbola_sum(table, alphas, B):
    """Sum of the rounded-height counts f(y) over {y >= 1 : prod
    y^alpha_k <= B}: the table's counts of B's staircase boxes
    (tabulate_f)."""
    rho = len(table.l_rows)
    boxes = _staircase(_hyperbola_domain(alphas, rho, B), rho)
    missing = [box for box in boxes if box not in table.data]
    if missing:
        raise DegenerateInputError(
            f"table does not cover the box {missing[0]}")
    return sum(table.data[box] for box in boxes)


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
