"""Point enumeration and the counts behind the multi-height theorems.

Regions are multiplicative with rational data, so every membership test is a
comparison of exact rationals and every count is a reproducible integer.  The
enumerator walks coordinate magnitudes in lexicographic order with per-cone
pruning; each surviving magnitude tuple is counted with multiplicity
2^(n - rho), the number of canonical sign patterns on it.

Heights stay in integers.  On a canonical point the height of a nef class is
the largest of its per-cone monomials, so each basis class is split once per
lattice into nef classes, e_i = a_i - b_i, and H_{e_i} is a ratio of two such
maxima.  Every constraint, region facets included, is compiled once per
(region, B) to integer exponents and an integer bound fraction; the descent
decides the nef ones exactly, and the last coordinate is counted in closed
form by Moebius inversion over an interval (enumerate_region).

The per-coordinate caps of the descent come from the vertices of the
region's log-polytope (coordinate_bounds).  Their solve depends only on the
region's shape, not on its scales gamma or on B, so it is compiled once per
shape into integer exponent vectors over the bases (gamma_1, ..., gamma_k,
B) and cached; the many box regions of one cone box share one program.
"""

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
import random

from . import linalg
from .cones import dual_cone, effective_decomposition
from .errors import BudgetError, DegenerateInputError
from .heights import _evaluator

DEFAULT_BUDGET = 10 ** 10


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
    prod_i H_{e_i}^{f_i} >= 1 for every facet vector f.
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
        facets = [tuple(int(x) for x in f) for f in facets]
        if cone_generators is not None:
            gens = [list(g) for g in cone_generators]
            if gens:
                dim = len(gens[0])
                facets += [tuple(f) for f in dual_cone(gens, dim)]
        seen, uniq = set(), []
        for f in facets:
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        self.facets = tuple(uniq)

    def contains(self, hvals, B):
        """Exact membership of a vector of basis heights at parameter B.

        Reference implementation used by tests and dumps; rational exponents
        are cleared to integers per constraint.
        """
        B = Fraction(B)
        for con in self.constraints:
            den = con.s.denominator
            for x in con.cls:
                den = lcm(den, Fraction(x).denominator)
            v = Fraction(1)
            for h, e in zip(hvals, con.cls):
                e = int(Fraction(e) * den)
                if e:
                    v *= Fraction(h) ** e
            if v > con.gamma ** den * B ** int(con.s * den):
                return False
        for f in self.facets:
            v = Fraction(1)
            for h, e in zip(hvals, f):
                if e:
                    v *= Fraction(h) ** e
            if v < 1:
                return False
        return True


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
    facets = obj.get("facets", ())
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


@lru_cache(maxsize=256)
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
    """
    rho, k = len(classes[0]), len(cls_rows)
    rows = []
    for i, (q, s) in enumerate(zip(cls_rows, s_vals)):
        rows.append(([Fraction(x) for x in q],
                     [Fraction(int(b == i)) for b in range(k)] + [s]))
    zero = [Fraction(0)] * (k + 1)
    for q in list(dict.fromkeys(classes)) + list(facets):
        rows.append(([Fraction(-x) for x in q], zero))
    if dual_cone([[-x for x in q] for q, _ in rows], rho):
        raise DegenerateInputError(
            "region is unbounded over the dual effective cone")

    program = []
    for idx in combinations(range(len(rows)), rho):
        try:
            inv = linalg.inverse([rows[i][0] for i in idx])
        except ValueError:  # singular subset: no vertex
            continue
        vert = [[sum(inv[j][t] * rows[i][1][b] for t, i in enumerate(idx))
                 for b in range(k + 1)] for j in range(rho)]

        def pairing(q):
            return [sum(q[j] * vert[j][b] for j in range(rho) if q[j])
                    for b in range(k + 1)]

        tests = []
        for i, (q, rhs) in enumerate(rows):
            if i not in idx:
                e, _ = _cleared([a - c for a, c in zip(pairing(q), rhs)])
                if any(e):
                    tests.append(e)
        program.append((tuple(tests),
                        tuple(_cleared(pairing(c)) for c in classes)))
    return tuple(program)


def coordinate_bounds(lattice, region, B):
    """Per-ray integer bounds M_lam with |y_lam| <= M_lam on the region.

    M_lam = floor exp sup{<[D_lam], a> : a in region and effective-dual}, the
    sup taken over the exact vertices of the rational polytope.  Raises for
    an unbounded region; an empty region yields all zeros.

    The vertex solve depends only on the region's shape (exponent rows, their
    B-exponents s, facets, ray classes), so it is compiled once per shape by
    _vertex_program and cached; gamma and B enter only as the bases of its
    integer exponent vectors.  A call then decides each test prod base^e <= 1
    by cross-multiplying numerators and denominators (_sides), compares two
    objectives e1/d1 and e2/d2 as the sign of e1 d2 - e2 d1 the same way,
    and floors exp of the best by linalg.floor_rational_power: every step is
    an exact integer comparison, so the bounds equal the rational sup's.
    """
    B = Fraction(B)
    if B <= 0:
        raise DegenerateInputError("B must be a positive rational")
    cons = region.constraints
    program = _vertex_program(lattice.classes, tuple(c.cls for c in cons),
                              tuple(c.s for c in cons), region.facets)
    bases = [c.gamma for c in cons] + [B]
    num = [b.numerator for b in bases]
    den = [b.denominator for b in bases]
    best = None
    for tests, objs in program:
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
        return [0] * lattice.fan.n_rays
    return [linalg.floor_rational_power(Fraction(*_sides(e, 1, 1, num, den)),
                                        1, d) for e, d in best]


# -- enumeration -----------------------------------------------------------

@dataclass
class EnumerationResult:
    count: int
    visited: int
    bounds: list


def _compile_constraints(lattice, region, B):
    """Integer constraints (E ints, bound num, bound den, reps), split into
    (nef, anti-nef, mixed) lists.

    Every region constraint has its exponents cleared to integers, and every
    facet f joins as the constraint H^{-f} <= 1.  On canonical points a nef
    class has an integer height and an anti-nef class the reciprocal of
    one, so their bounds round to floor(bound) and 1/c, c = ceil(1/bound),
    without changing the point set.  reps lists the per-cone representatives
    of E (nef) or the distinct ones of -E (anti-nef), and is None (mixed).
    """
    B = Fraction(B)
    raw = []
    for con in region.constraints:
        den = 1
        for x in con.cls:
            den = lcm(den, Fraction(x).denominator)
        den = lcm(den, con.s.denominator)
        raw.append(([int(Fraction(x) * den) for x in con.cls],
                    con.gamma ** den * B ** int(con.s * den)))
    raw += [([-x for x in f], Fraction(1)) for f in region.facets]
    nef, anti, mixed = [], [], []
    for e, bound in raw:
        reps = [lattice.class_representative(s, e)
                for s in range(len(lattice.fan.max_cones))]
        if all(x >= 0 for w in reps for x in w):
            nef.append((e, bound.numerator // bound.denominator, 1, reps))
        elif all(x <= 0 for w in reps for x in w):
            inv = 1 / bound
            anti.append((e, 1, -((-inv.numerator) // inv.denominator),
                         sorted({tuple(-x for x in w) for w in reps})))
        else:
            mixed.append((e, bound.numerator, bound.denominator, None))
    return nef, anti, mixed


def _canonical_masks(ev):
    pivots = set(ev._sign_pivots)
    free = [lam for lam in range(ev.n) if lam not in pivots]
    masks = [0]
    for lam in free:
        masks += [m | (1 << lam) for m in masks]
    return sorted(masks)


def enumerate_region(lattice, region, B, callback=None, tuple_callback=None,
                     budget=DEFAULT_BUDGET, first_range=None):
    """Count canonical torsor points with multi-height in the region.

    Deterministic lexicographic walk over coordinate magnitudes; exact
    membership; streams every canonical point to `callback(coords, hvals)`
    when given, or every surviving magnitude tuple to
    `tuple_callback(mags, hvals, weight)` (2^(n-rho) cheaper than per-point).

    Heights are integers throughout: each basis class is split once per
    lattice as e_i = a_i - b_i with a_i, b_i nef (HeightEvaluator.nef_split),
    and on a canonical point H_{e_i} is the ratio of the two max-monomials.
    Nef constraints are decided by the descent, whose per-cone prefix checks
    and leaf caps bound every monomial.  The last coordinate m then runs
    over [lo, cap]; an anti-nef constraint max_s pref_s m^{w_s} >= c raises
    lo to min_s ceil((c/pref_s)^{1/w_s}), and m keeps the point coprime iff
    gcd(m, G0) = 1, G0 the gcd of the prefix complement products over the
    cones holding the last ray.  Those m are counted as sum_{d | rad G0}
    mu(d) (floor(cap/d) - floor((lo-1)/d)), the Moebius treatment of torsor
    coprimality (Salberger, Asterisque 251; de la Breteche, J. Number Theory
    87).  Only a callback or a constraint of mixed sign makes the leaf walk
    the m of [lo, cap] one by one; it then tests gcd(m, G0) and the mixed
    constraints alone, since the interval already decides the rest.  The
    descent's per-coordinate caps come from coordinate_bounds.  hvals holds
    an int for every nef basis class and an exact Fraction for the others.
    `first_range=(lo, hi)` restricts the first coordinate for data-parallel
    partitioning.
    `visited` counts descent nodes plus full leaf widths.  Raises
    BudgetError past `budget` candidates, and DegenerateInputError for a
    fan with no ample class (a complete fan that is not projective).
    """
    ev = _evaluator(lattice)
    _, _, mono = ev.nef_split
    fan = lattice.fan
    n, rho = fan.n_rays, lattice.rank
    bounds = coordinate_bounds(lattice, region, B)
    if any(m == 0 for m in bounds):
        return EnumerationResult(count=0, visited=0, bounds=bounds)

    nef_cons, anti_cons, mixed_cons = _compile_constraints(lattice, region, B)
    streams = callback is not None or tuple_callback is not None
    closed = not streams and not mixed_cons
    nef_basis = [b == [(0,) * n] for _, b in mono]
    cones = [set(c) for c in fan.max_cones]
    ncones = len(cones)
    comp_has = [[lam not in cones[s] for lam in range(n)]
                for s in range(ncones)]
    weight = 1 << (n - rho)
    masks = _canonical_masks(ev) if callback is not None else None

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

    # per-cone running complement products and per-constraint nef partials
    comp_prod = [[1] * ncones]
    con_part = [[[1] * ncones for _ in nef_cons]]

    def leaf_cap(depth, parts):
        cap = bounds[depth]
        for (_, bn, bd, reps), part in zip(nef_cons, parts):
            for s in range(ncones):
                w = reps[s][depth]
                if part[s] * bd > bn:
                    return 0
                if w > 0:
                    q = bn // (bd * part[s])
                    c = linalg.iroot(q, w) if q > 0 else 0
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
        min_s ceil((c/pref_s)^{1/w_s}) on.  The prefix complement products
        are coprime (the descent checked them), so m keeps them coprime iff
        gcd(m, G0) = 1, G0 their gcd over the cones that hold the last ray.
        """
        for _, _, c, reps in anti_cons:
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
        g0 = 0
        for s, b in enumerate(comp_prod[-1]):
            if not comp_has[s][depth]:
                g0 = gcd(g0, b)
        return lo, g0

    def leaf_count(lo, hi, depth):
        """Admissible last coordinates in [lo, hi], in closed form."""
        lo, g0 = leaf_start(lo, hi, depth)
        if hi < lo:
            return 0
        divs = [(1, 1)]
        for p in {p for lam in range(depth) for p in primes_of(mags[lam])
                  if g0 % p == 0}:
            divs += [(d * p, -mu) for d, mu in divs if d * p <= hi]
        return sum(mu * (hi // d - (lo - 1) // d) for d, mu in divs)

    def leaf_terms(depth):
        """Numerator and denominator halves of the split: per basis class,
        the (prefix monomial, last exponent) pairs at the prefix mags[:depth].
        """
        return [[[(prefix(w, depth), w[depth]) for w in vecs] for vecs in side]
                for side in zip(*mono)]

    def _leaf_scalar(lo, hi, depth):
        nonlocal count
        lo, g0 = leaf_start(lo, hi, depth)
        terms = leaf_terms(depth)
        for m in range(lo, hi + 1):
            if gcd(m, g0) != 1:
                continue
            num, den = ([max(p * m ** w for p, w in half) for half in side]
                        for side in terms)
            if any(lhs > rhs for lhs, rhs in (
                    _sides(e, bn, bd, num, den)
                    for e, bn, bd, _ in mixed_cons)):
                continue
            count += weight
            if not streams:
                continue
            mags[depth] = m
            hvals = tuple(x if nef else Fraction(x, y)
                          for x, y, nef in zip(num, den, nef_basis))
            if tuple_callback is not None:
                tuple_callback(tuple(mags), hvals, weight)
            if callback is not None:
                for mask in masks:
                    coords = tuple(-v if mask >> lam & 1 else v
                                   for lam, v in enumerate(mags))
                    callback(coords, hvals)

    def descend(depth):
        nonlocal visited, count
        parts = con_part[-1]
        cap = leaf_cap(depth, parts)
        lo, hi = 1, cap
        if depth == 0 and first_range is not None:
            lo = max(lo, first_range[0])
            hi = min(hi, first_range[1])
        if hi < lo:
            return
        if depth == n - 1:
            visited += hi - lo + 1
            if visited > budget:
                raise BudgetError(
                    f"enumeration visited more than {budget} candidates")
            if closed:
                count += leaf_count(lo, hi, depth) * weight
            else:
                _leaf_scalar(lo, hi, depth)
            return
        visited += 1
        if visited > budget:
            raise BudgetError(
                f"enumeration visited more than {budget} candidates")
        base = comp_prod[-1]
        for m in range(lo, hi + 1):
            newcomp = [base[s] * m if comp_has[s][depth] else base[s]
                       for s in range(ncones)]
            g = 0
            for v in newcomp:
                g = gcd(g, v)
                if g == 1:
                    break
            if g != 1:
                continue
            newparts = []
            for (_, bn, bd, reps), part in zip(nef_cons, parts):
                np_ = [part[s] * m ** reps[s][depth] if reps[s][depth]
                       else part[s] for s in range(ncones)]
                if any(v * bd > bn for v in np_):
                    break
                newparts.append(np_)
            else:
                mags[depth] = m
                comp_prod.append(newcomp)
                con_part.append(newparts)
                descend(depth + 1)
                comp_prod.pop()
                con_part.pop()

    descend(0)
    return EnumerationResult(count=count, visited=visited, bounds=bounds)


def partition_first_coordinate(lattice, region, B, parts):
    """Split the first coordinate range into contiguous worker ranges."""
    bounds = coordinate_bounds(lattice, region, B)
    m0 = bounds[0] if bounds else 0
    parts = max(1, int(parts))
    if m0 == 0:
        return [(1, 0)]
    step = (m0 + parts - 1) // parts
    return [(lo, min(m0, lo + step - 1)) for lo in range(1, m0 + 1, step)]


# -- dual-basis data for box machinery --------------------------------------

def _dual_basis_data(lattice, l_rows):
    """(c, det, gens): c_i = <omega, L_i^*>, |det L|, dual basis generators."""
    rho = lattice.rank
    a = [[Fraction(x) for x in row] for row in l_rows]
    if len(a) != rho or any(len(r) != rho for r in a):
        raise DegenerateInputError("need rho basis classes L_i")
    d = linalg.det(a)
    if d == 0:
        raise DegenerateInputError("L_i do not form a basis")
    at = [[a[i][j] for i in range(rho)] for j in range(rho)]
    c = linalg.solve_exact(at, [Fraction(x) for x in lattice.anticanonical])
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


def _nu_neg(c, d):
    """nu(-Lambda) from the (c, det) of _dual_basis_data."""
    out = Fraction(1, 1) / d
    for x in c:
        out /= x
    return out


def nu_neg_cone(lattice, l_rows):
    """nu(-Lambda) = 1/(|det L| * prod <omega, L_i^*>), exact."""
    c, d, _ = _dual_basis_data(lattice, l_rows)
    if any(x <= 0 for x in c):
        raise DegenerateInputError(
            "anticanonical class is not interior to the cone spanned by L_i")
    return _nu_neg(c, d)


# -- translated polyhedra and boxes -----------------------------------------

def count_translated_polyhedron(lattice, boxes, u, B, tau=None,
                                budget=DEFAULT_BUDGET):
    """Count points with multi-height in D_1 + log(B)u, D_1 a union of
    basis-aligned multiplicative boxes (pairwise interior-disjoint).

    boxes: list of per-basis (lo_i, hi_i) positive rationals at B = 1.
    u: rational pairings <e_i, u>; must be interior to the dual effective
    cone.  Returns count, exact nu(D_1), the growth exponent <omega, u>, and
    the prediction nu*tau*B^expo when tau is given.
    """
    rho = lattice.rank
    u = [Fraction(x) for x in u]
    for cls in lattice.classes:
        if sum(Fraction(c) * x for c, x in zip(cls, u)) <= 0:
            raise DegenerateInputError(
                "translation direction is not interior to the dual "
                "effective cone")
    omega = [Fraction(x) for x in lattice.anticanonical]
    total = 0
    nu1 = Fraction(0)
    for box in boxes:
        cons = []
        for i, (lo, hi) in enumerate(box):
            lo, hi = Fraction(lo), Fraction(hi)
            if not 0 < lo <= hi:
                raise DegenerateInputError("invalid box bounds")
            e_up = [1 if j == i else 0 for j in range(rho)]
            e_dn = [-1 if j == i else 0 for j in range(rho)]
            cons.append((e_up, hi, u[i]))
            cons.append((e_dn, 1 / lo, -u[i]))
        res = enumerate_region(lattice, Region(cons), B, budget=budget)
        total += res.count
        term = Fraction(1)
        for (lo, hi), w in zip(box, omega):
            lo, hi = Fraction(lo), Fraction(hi)
            if w == 0:
                raise DegenerateInputError(
                    "anticanonical class vanishes on a basis direction")
            term *= (hi ** int(w) - lo ** int(w)) / w
        nu1 += term
    expo = sum(w * x for w, x in zip(omega, u))
    out = {"count": total, "nu": nu1, "exponent": expo, "B": Fraction(B)}
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
    """
    c, d, _ = _dual_basis_data(lattice, l_rows)
    lows = [Fraction(x) for x in lows]
    highs = [Fraction(x) for x in highs]
    b_vec = [Fraction(x) for x in b_vec]
    if any(lo >= hi for lo, hi in zip(lows, highs)):
        raise DegenerateInputError("box needs a_i < b_i")
    if any(b < 1 for b in b_vec):
        raise DegenerateInputError("box scale parameters must be >= 1")
    cons = []
    for row, lo, hi, b in zip(l_rows, lows, highs, b_vec):
        cons.append((list(row), hi * b, 0))
        cons.append(([-x for x in row], 1 / (lo * b), 0))
    res = enumerate_region(lattice, Region(cons), 1, budget=budget)

    nu = Fraction(1, 1) / d
    exact = True
    nu_f = 1.0 / float(d)
    for ci, lo, hi in zip(c, lows, highs):
        if ci <= 0:
            raise DegenerateInputError(
                "anticanonical class is not interior to the cone of the L_i")
        if ci.denominator == 1:
            nu *= (hi ** int(ci) - lo ** int(ci)) / ci
            nu_f *= float((hi ** int(ci) - lo ** int(ci)) / ci)
        else:
            exact = False
            nu_f *= (float(hi) ** float(ci) - float(lo) ** float(ci)) / float(ci)
    nu_out = nu if exact else nu_f
    out = {"count": res.count, "nu": nu_out, "exponents": c,
           "B": b_vec, "visited": res.visited}
    if tau is not None:
        pred = float(nu_out) * tau
        for ci, b in zip(c, b_vec):
            pred *= float(b) ** float(ci)
        out["prediction"] = pred
        out["ratio"] = res.count / pred if pred else float("nan")
    return out


# -- box decompositions ------------------------------------------------------

class WallCollisionError(Exception):
    """A point's height landed exactly on an internal box wall."""


@dataclass(frozen=True)
class BoxDecomposition:
    """Geometric box walls: box n_i holds H_{L_i} in [B r^{-n_i}, B r^{-(n_i-1)}).

    The wall ratios r_i = e^{beta_i} are random large-denominator rationals
    greater than 1, so wall values stay rational and a height sitting exactly
    on a wall is detectable by exact comparison.  Walls are half-open with
    the outermost (value B_i, box 1) closed.  The decomposition itself does
    not depend on the B_i.
    """

    l_rows: tuple
    ratios: tuple

    def kept(self, b_vec):
        """Largest box index per axis not excluded by the emptiness bound:
        boxes with r^{n-1} > B have their upper wall below every height."""
        out = []
        for b, r in zip(b_vec, self.ratios):
            b = Fraction(b)
            n, x = 1, Fraction(1)
            while x * r <= b:
                x *= r
                n += 1
            out.append(n)
        return tuple(out)

    def walls(self, b, i, n_max):
        """Wall values B r_i^{-k} for k = 0..n_max."""
        out = [Fraction(b)]
        for _ in range(n_max):
            out.append(out[-1] / self.ratios[i])
        return out

    def locate(self, h_l, b_vec):
        """Box index of a height vector; raises on an internal wall hit."""
        idx = []
        for h, b, r in zip(h_l, b_vec, self.ratios):
            x = Fraction(h)
            b = Fraction(b)
            if x > b or x <= 0:
                raise DegenerateInputError(f"height {h} outside (0, {b}]")
            n = 0
            while x <= b:
                if x == b and n > 0:
                    raise WallCollisionError(str(h))
                n += 1
                x *= r
            idx.append(n)
        return tuple(idx)


def build_box_decomposition(lattice, l_rows, seed=0, ratios=None):
    """Seeded wall ratios r_i > 1 with ~2^28 denominators.

    `ratios` overrides the draw (for collision-injection tests).  The L_i
    must be a basis with the anticanonical class interior to their span's
    positive orthant, the standing assumption of the box machinery.
    """
    c, _, _ = _dual_basis_data(lattice, l_rows)
    if any(x <= 0 for x in c):
        raise DegenerateInputError(
            "anticanonical class is not interior to the cone of the L_i")
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


def _box_region(decomp, b_vec, n_vec):
    """Closed region for box D_{n,B}: B r^{-n_i} <= H_{L_i} <= B r^{-(n_i-1)}."""
    cons = []
    for row, b, r, n in zip(decomp.l_rows, b_vec, decomp.ratios, n_vec):
        upper = Fraction(b) * r ** (-(n - 1))
        lower = Fraction(b) * r ** (-n)
        cons.append((list(row), upper, 0))
        cons.append(([-x for x in row], 1 / lower, 0))
    return Region(cons)


def count_cone_box(lattice, l_rows, b_vec, seed=0, tau=None,
                   budget=DEFAULT_BUDGET, max_redraws=20, histogram=True,
                   decomposition=None):
    """Count {h in Lambda, H_{L_i} <= B_i} with per-box histogram, emptiness
    verification, and the nu-tail inequality report.

    Lambda is the cone dual to cone(L_1..L_rho); it must sit inside the dual
    effective cone.  The histogram comes from one closed enumeration per box;
    a point sitting exactly on an internal wall is then counted twice, so a
    histogram total exceeding the region count is an exact wall-collision
    detector and triggers a redraw of the walls.
    """
    c, d, gens = _dual_basis_data(lattice, l_rows)
    if any(x <= 0 for x in c):
        raise DegenerateInputError(
            "anticanonical class is not interior to the cone of the L_i")
    _check_subcone(lattice, gens)
    b_vec = tuple(Fraction(x) for x in b_vec)
    cons = []
    for row, b in zip(l_rows, b_vec):
        cons.append((list(row), b, 0))
        cons.append(([-x for x in row], 1, 0))
    region = Region(cons)
    nu_neg = _nu_neg(c, d)
    res = enumerate_region(lattice, region, 1, budget=budget)
    out = {
        "count": res.count,
        "nu_neg": nu_neg,
        "exponents": c,
        "visited": res.visited,
    }
    if tau is not None:
        pred = float(nu_neg) * tau
        for ci, b in zip(c, b_vec):
            pred *= float(b) ** float(ci)
        out["prediction"] = pred
        out["ratio"] = res.count / pred if pred else float("nan")
    if not histogram:
        return out

    attempt = 0
    while True:
        if decomposition is not None and attempt == 0:
            decomp = decomposition
        else:
            decomp = _drawn_decomposition(l_rows, seed + attempt)
        kept = decomp.kept(b_vec)
        hist = {}
        beyond = []
        total = 0
        for n_vec in product(*(range(1, k + 2) for k in kept)):
            cnt = enumerate_region(lattice, _box_region(decomp, b_vec, n_vec),
                                   1, budget=budget).count
            if any(n > k for n, k in zip(n_vec, kept)):
                beyond.append((n_vec, cnt))
            else:
                if cnt:
                    hist[n_vec] = cnt
                total += cnt
        beyond_ok = all(cnt == 0 for _, cnt in beyond)
        if total == res.count and beyond_ok:
            break
        # a height sat exactly on an internal wall (double count) or leaked
        # past the emptiness bound; both demand fresh walls
        attempt += 1
        if attempt >= max_redraws:
            raise DegenerateInputError(
                "box walls kept colliding with point heights")

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
        "redraws": attempt,
        "empty_boxes_ok": beyond_ok,
        "histogram_total": total,
        "tail": {"sum": tail, "bound_c": cbound, "d": dexp,
                 "min_B": minb, "ok": tail <= tail_bound},
        "decomposition": decomp,
    })
    return out


# -- f tables and hyperbola sums ---------------------------------------------

@dataclass
class FTable:
    """Counts of points by rounded height fingerprint y = round(H_{L_i})."""

    variant: str           # "floor" or "ceil"
    l_rows: tuple
    caps: tuple            # table covers y_i <= caps_i
    data: dict             # tuple y -> count

    def mass(self, b_vec):
        b = [int(x) for x in b_vec]
        if any(x > cap for x, cap in zip(b, self.caps)):
            raise DegenerateInputError("table does not cover the requested box")
        return sum(cnt for y, cnt in self.data.items()
                   if all(yi <= bi for yi, bi in zip(y, b)))


def tabulate_f(lattice, l_rows, b_max, extra_constraints=(),
               budget=DEFAULT_BUDGET, table_limit=20_000_000):
    """One enumeration pass filling both rounded-height tables over
    {h in Lambda, H_{L_i} <= Bmax_i}.

    extra_constraints (Region constraint triples) restrict the tabulated
    domain further, e.g. to an anticanonical sublevel set; the caller must
    keep the restriction floor-complete for the cells it will query.
    """
    b_max = [int(x) for x in b_max]
    cons = []
    for row, b in zip(l_rows, b_max):
        cons.append((list(row), b, 0))
        cons.append(([-x for x in row], 1, 0))
    cons.extend(extra_constraints)
    floor_data, ceil_data = {}, {}
    rows_int = [[int(x) for x in row] for row in l_rows]

    def cb(mags, hvals, weight):
        hn = [h.numerator for h in hvals]
        hd = [h.denominator for h in hvals]
        yf, yc = [], []
        for row in rows_int:
            num, den = _sides(row, 1, 1, hn, hd)
            yf.append(num // den)
            yc.append(-(-num // den))
        kf, kc = tuple(yf), tuple(yc)
        floor_data[kf] = floor_data.get(kf, 0) + weight
        ceil_data[kc] = ceil_data.get(kc, 0) + weight
        if len(floor_data) > table_limit:
            raise DegenerateInputError("f table exceeds the memory guard")

    enumerate_region(lattice, Region(cons), 1, tuple_callback=cb,
                     budget=budget)
    l_t = tuple(tuple(r) for r in l_rows)
    return (FTable("floor", l_t, tuple(b_max), floor_data),
            FTable("ceil", l_t, tuple(b_max), ceil_data))


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
    exactly.  Returns a report dict."""
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
    total = 0
    terms = []
    idx = range(len(facet_lists))
    for k in range(1, len(facet_lists) + 1):
        for sub in combinations(idx, k):
            facets = []
            for j in sub:
                facets.extend(facet_lists[j])
            region = anticanonical_region(lattice, facets=facets)
            cnt = enumerate_region(lattice, region, B, budget=budget).count
            total += cnt if k % 2 == 1 else -cnt
            terms.append({"cones": sub, "count": cnt})
    return {"count": total, "mode": mode, "terms": terms,
            "pieces": len(facet_lists)}
