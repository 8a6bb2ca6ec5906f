"""A deliberately slow point counter used to certify the fast enumerator.

It iterates every magnitude tuple inside per-coordinate bounds obtained from
an LP relaxation, drops tuples whose coordinate products break the same LP's
bounds, filters by the per-cone gcd conditions and by exact height
membership, and counts sign classes by brute force over all sign vectors
modulo the character action, never trusting the orbit-size formula or any of
the production pruning.

It also keeps the symbolic-logarithm vertex solve (ExactLog) that
counting.coordinate_bounds replaced, as coordinate_bounds_exactlog: every
vertex is rebuilt from Fractions on every call, with no compiled program.
The compiled program itself has its Fraction reference too: the vertex
program solved by Fraction inverses, as vertex_program_fractions, against
the fraction-free elimination of counting._vertex_program.

And it keeps the numeric route to the section-limit constant c_P that
cones.c_p_constant replaced with the exact face volume: the volumes of the
sections of the hyperbola polytope at sum t = (1 - delta) a, extrapolated
linearly to delta = 0, as c_p_sections.  Their vertices, and those of the
polytope itself, come from every square subsystem of its inequalities
(polytope_vertices), the reference for the vertices that
cones.hyperbola_polytope reads off a dual cone; the extreme rays of a dual
cone come from the kernels of subsets of its generators
(naive_extreme_rays), the reference for cones.dual_cone.

The heights it filters by come from PlaceHeights, the multi-height as a
product of local heights over the places, with tropicalization, cone
selection per place and factorization: none of the nef-split arithmetic
that the package's HeightEvaluator.multi_height and the enumerator share.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import exp, gcd, lcm, log

import numpy as np
from scipy.optimize import linprog

from toricount import linalg
from toricount.cones import _face_volume, dual_cone
from toricount.counting import Region
from toricount.errors import DegenerateInputError
from toricount.heights import MultiHeight

INF_PLACE = "inf"


# -- multi-heights place by place -------------------------------------------

def _factorize(n, _cache={}):
    """Prime factorization of a positive integer as a dict p -> exponent."""
    if n in _cache:
        return _cache[n]
    orig = n
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # wheel over 2,3,5 residues
    incr = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += incr[i]
            i = (i + 1) & 7
    if n > 1:
        out[n] = out.get(n, 0) + 1
    if orig < (1 << 22) and len(_cache) < (1 << 20):
        _cache[orig] = out
    return out


def _valuation(y, p):
    """ord_p of a nonzero integer."""
    e, y = 0, abs(y)
    while y % p == 0:
        e += 1
        y //= p
    return e


def _ratio(ay, expo):
    """prod ay^e as (numerator, denominator) over positive integers ay."""
    num = den = 1
    for y, e in zip(ay, expo):
        if e > 0:
            num *= y ** e
        elif e < 0:
            den *= y ** (-e)
    return num, den


class PlaceHeights:
    """Exact local heights and multi-heights of torsor points, place by place.

    At a place v the point tropicalizes to u_v; the maximal cone holding
    -u_v picks the divisor of each class whose monomial gives the local
    height.  Only the archimedean place and the primes dividing some
    coordinate contribute to a product over places.
    """

    def __init__(self, lattice):
        self.lattice = lattice
        fan = self.fan = lattice.fan
        n, d, rho = fan.n_rays, fan.dim, lattice.rank
        self.d = d
        cones = range(len(fan.max_cones))
        basis = [[int(i == j) for j in range(rho)] for i in range(rho)]
        # w_tables[s][i] is the divisor of class e_i vanishing on cone s
        self.w_tables = [[lattice.class_representative(s, e) for e in basis]
                         for s in cones]
        # per maximal cone: inverse of its ray basis (for m_sigma solves) and
        # of its transpose (for coefficients in that basis)
        bases = [[list(fan.rays[i]) for i in c] for c in fan.max_cones]
        self._ray_inv = [linalg.integer_inverse(b) for b in bases]
        self._ray_inv_t = [linalg.integer_inverse(linalg.transpose(b))
                           for b in bases]
        # coeff_exp[s][j][lam] with v_lam = sum_j coeff * (basis ray j of s)
        vt = [list(col) for col in zip(*fan.rays)]  # d x n
        self.coeff_exp = [
            [[sum(m[j][t] * vt[t][lam] for t in range(d)) for lam in range(n)]
             for j in range(d)]
            for m in self._ray_inv_t]

    def m_vector(self, sigma, a):
        """The unique m with <m, v_lam> = -a_lam for all rays of cone sigma."""
        rhs = [-a[i] for i in self.fan.max_cones[sigma]]
        return linalg.mat_vec(self._ray_inv[sigma], rhs)

    def cone_representative(self, sigma, a):
        """a + div(chi^{m_sigma}); vanishes on sigma's rays, same class."""
        m = self.m_vector(sigma, a)
        return tuple(a[lam] + linalg.vec_dot(v, m)
                     for lam, v in enumerate(self.fan.rays))

    def cone_coefficients(self, sigma, u):
        """Coefficients of u in the ray basis of maximal cone sigma."""
        return linalg.mat_vec(self._ray_inv_t[sigma], list(u))

    def tropicalize(self, point, place):
        coords = getattr(point, "coords", point)
        rays = self.fan.rays
        if place == INF_PLACE:
            return [sum(log(abs(y)) * v[j] for y, v in zip(coords, rays))
                    for j in range(self.d)]
        return [-sum(_valuation(y, place) * v[j] for y, v in zip(coords, rays))
                for j in range(self.d)]

    def select_cone_integer(self, u):
        """Smallest-index maximal cone containing the integer vector u."""
        for s in range(len(self.fan.max_cones)):
            if all(x >= 0 for x in self.cone_coefficients(s, u)):
                return s
        raise DegenerateInputError(f"no maximal cone contains {tuple(u)}")

    def select_cone_arch(self, ay):
        """Smallest-index cone containing -u_inf, by exact products.

        The j-th basis coefficient of -u_inf in cone s has the sign of
        1 - prod |y_lam|^{coeff_exp[s][j][lam]}; compare integer products.
        """
        for s, rows in enumerate(self.coeff_exp):
            if all(num <= den for num, den in (_ratio(ay, r) for r in rows)):
                return s
        raise DegenerateInputError("no maximal cone contains -u_inf")

    def local_height(self, point, place, a):
        """|chi^{m_sigma}(t)|_place for the divisor a, an exact rational.

        sigma is the maximal cone containing the NEGATED tropicalization, so
        that for nef a the local factor is the largest monomial value
        max_m |chi^m|_v over the vertices m_sigma of the divisor polytope and
        the product over places is the usual max-metric height.
        """
        coords = getattr(point, "coords", point)
        if place == INF_PLACE:
            s = self.select_cone_arch([abs(y) for y in coords])
        else:
            u = self.tropicalize(coords, place)
            s = self.select_cone_integer([-x for x in u])
        w = self.cone_representative(s, list(a))
        expo = [wi - ai for ai, wi in zip(a, w)]
        if place == INF_PLACE:
            return Fraction(*_ratio([abs(y) for y in coords], expo))
        v = sum(e * _valuation(y, place) for y, e in zip(coords, expo) if e)
        return Fraction(place) ** (-v)

    def multi_height(self, point):
        """Exact H_{e_i} for all basis classes, product over all places.

        Representative-free form: H_c = prod_v prod_lam |y_lam|_v^{w(sigma_v,
        c)_lam} with sigma_v the cone containing -u_v (chi^{a-w} has constant
        sign, so the divisor term prod_v |y^a|_v = 1 drops out); only the
        archimedean place and primes dividing some y_lam contribute.
        """
        ay = [abs(y) for y in getattr(point, "coords", point)]
        s = self.select_cone_arch(ay)
        vals = [Fraction(*_ratio(ay, w)) for w in self.w_tables[s]]
        ords = {}
        for lam, y in enumerate(ay):
            if y > 1:
                for p, e in _factorize(y).items():
                    ords.setdefault(p, [0] * len(ay))[lam] = e
        for p in sorted(ords):
            ov = ords[p]
            # -u_p = sum_lam ord_p(y_lam) v_lam; |y_lam|_p^{w_lam} = p^{-w.ov}
            nu = [sum(o * v[j] for o, v in zip(ov, self.fan.rays))
                  for j in range(self.d)]
            for i, w in enumerate(self.w_tables[self.select_cone_integer(nu)]):
                e = sum(wl * ol for wl, ol in zip(w, ov))
                if e:
                    vals[i] *= Fraction(p) ** (-e)
        return MultiHeight(values=tuple(vals))


@lru_cache(maxsize=None)
def place_heights(lattice):
    return PlaceHeights(lattice)


# -- brute-force counts ------------------------------------------------------


def _lp_log_caps(lattice, region, B, groups):
    """LP maximum of sum_{lam in S} <[D_lam], h> over the region, per group
    S of rays; None when the region is empty.

    In log-height coordinates h the region constraints read <q, h> <= log rhs
    and h pairs nonnegatively with every ray class; |y_lam| <= H_{[D_lam]}
    and multiplicativity bound sum_{lam in S} log|y_lam| by this maximum.
    """
    rho = lattice.rank
    a_ub, b_ub = [], []
    for con in region.constraints:
        a_ub.append([float(x) for x in con.cls])
        b_ub.append(log(float(con.gamma)) + float(con.s) * log(float(B)))
    for cls in lattice.classes:
        a_ub.append([-float(x) for x in cls])
        b_ub.append(0.0)
    for f in region.facets:
        a_ub.append([-float(x) for x in f])
        b_ub.append(0.0)
    out = []
    for group in groups:
        cls = [sum(lattice.classes[lam][j] for lam in group)
               for j in range(rho)]
        res = linprog([-float(x) for x in cls], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * rho, method="highs")
        if res.status == 3:
            raise ValueError("unbounded coordinate; refusing to enumerate")
        if not res.success:
            return None
        out.append(-res.fun)
    return out


def coordinate_caps(lattice, region, B):
    """Float LP bound for each |y_lam| over the region, padded by 2."""
    n = lattice.fan.n_rays
    logs = _lp_log_caps(lattice, region, B, [(lam,) for lam in range(n)])
    if logs is None:
        return [0] * n
    return [int(exp(v)) + 2 for v in logs]


def cone_gcd_ok(fan, mags):
    """gcd over maximal cones of the complement coordinate products is 1.

    A prime is allowed to divide some coordinates as long as one maximal cone
    has none of its complement coordinates divisible; that is exactly
    coprimality of the products prod_{lam not in sigma} |y_lam|.
    """
    g = 0
    for cone in fan.max_cones:
        inside = set(cone)
        prod_out = 1
        for lam, m in enumerate(mags):
            if lam not in inside:
                prod_out *= m
        g = gcd(g, prod_out)
        if g == 1:
            return True
    return g == 1


def sign_class_count(lattice):
    """Orbits of the character action on all sign vectors, counted one by one.

    The group is every sign vector of the form eps_lam = (-1)^{<t, [D_lam]>}
    with t in {0,1}^rho; a sign vector is counted when it is the
    lexicographically smallest element of its orbit.  Magnitudes, gcds, and
    heights are all invariant under the action, so this single number weights
    every magnitude tuple.
    """
    n = lattice.fan.n_rays
    rho = lattice.rank
    chars = []
    for t in product((0, 1), repeat=rho):
        chars.append(tuple((-1) ** (sum(ti * ci for ti, ci in zip(t, cls)) % 2)
                           for cls in lattice.classes))
    total = 0
    for signs in product((1, -1), repeat=n):
        orbit = [tuple(s * e for s, e in zip(signs, ch)) for ch in chars]
        if min(orbit) == signs:
            total += 1
    return total


def _membership(region, B):
    """The region's exact membership test at B, on a vector of basis heights.

    Each constraint prod H^q <= gamma B^s is cleared once to integer
    exponents e = d q and the bound (gamma B^s)^d = bn / bd, and each
    (integer) facet f becomes the test H^{-f} <= 1; a point is then decided
    by cross-multiplying the numerators and denominators of its heights.
    """
    B = Fraction(B)
    tests = []
    for con in region.constraints:
        d = lcm(con.s.denominator, *(x.denominator for x in con.cls))
        bound = con.gamma ** d * B ** int(con.s * d)
        tests.append(([int(x * d) for x in con.cls],
                      bound.numerator, bound.denominator))
    tests += [([-x for x in f], 1, 1) for f in region.facets]

    def contains(hvals):
        for e, bn, bd in tests:
            lhs, rhs = bd, bn
            for h, x in zip(hvals, e):
                if x > 0:
                    lhs *= h.numerator ** x
                    rhs *= h.denominator ** x
                elif x < 0:
                    lhs *= h.denominator ** -x
                    rhs *= h.numerator ** -x
            if lhs > rhs:
                return False
        return True

    return contains


def _naive_points(lattice, region, B):
    """Every magnitude tuple of the region at B, with its multi-height.

    The tuples inside the LP caps are built one value of the first
    coordinate at a time, so memory stays at one slice of the box.
    """
    caps = coordinate_caps(lattice, region, B)
    if any(c <= 0 for c in caps):
        return
    fan = lattice.fan
    n = fan.n_rays
    inside_sets = [set(c) for c in fan.max_cones]
    # the same LP bounds every product of two or more coordinates; the
    # slack of 1e-3 in log space keeps LP rounding on the safe side
    groups = [grp for k in range(2, n + 1) for grp in combinations(range(n), k)]
    log_caps = _lp_log_caps(lattice, region, B, groups)
    heights = place_heights(lattice)
    contains = _membership(region, B)

    for first in range(1, caps[0] + 1):
        grids = np.meshgrid(np.array([first], dtype=np.int64),
                            *(np.arange(1, c + 1, dtype=np.int64)
                              for c in caps[1:]), indexing="ij")
        flat = np.stack([g.reshape(-1) for g in grids], axis=1)
        # vectorized coprimality prefilter over the slice
        g = None
        for inside in inside_sets:
            cols = [lam for lam in range(n) if lam not in inside]
            prod_out = flat[:, cols[0]].copy()
            for c in cols[1:]:
                prod_out *= flat[:, c]
            g = prod_out if g is None else np.gcd(g, prod_out)
        survivors = flat[g == 1]
        logs = np.log(survivors.astype(float))
        keep = np.ones(len(survivors), dtype=bool)
        for grp, cap in zip(groups, log_caps):
            keep &= logs[:, list(grp)].sum(axis=1) <= cap + 1e-3
        for row in survivors[keep]:
            mags = tuple(int(x) for x in row)
            mh = heights.multi_height(mags)
            if contains(mh.values):
                yield mags, mh


def naive_count(lattice, region, B):
    """Exact number of torus points with multi-height in the region at B."""
    weight = sign_class_count(lattice)
    return weight * sum(1 for _ in _naive_points(lattice, region, B))


def _unit_box(l_rows, b_max, extra_constraints=()):
    """{1 <= H_{L_i} <= b_max_i} and the extra constraints, as a Region."""
    cons = []
    for row, b in zip(l_rows, b_max):
        cons += [(row, b, 0), ([-x for x in row], 1, 0)]
    return Region(cons + list(extra_constraints))


def naive_tables(lattice, l_rows, b_max, extra_constraints=()):
    """The floor and ceiling tables of counting.tabulate_f, by brute force.

    Over {1 <= H_{L_i} <= b_max_i} and the extra constraints, each point
    adds to the cells (floor H_{L_i})_i and (ceil H_{L_i})_i, with every
    H_{L_i} taken from PlaceHeights.multi_height.
    """
    region = _unit_box(l_rows, b_max, extra_constraints)
    weight = sign_class_count(lattice)
    floor_d, ceil_d = {}, {}
    for _, mh in _naive_points(lattice, region, 1):
        vals = [mh.of_class(row) for row in l_rows]
        kf = tuple(v.numerator // v.denominator for v in vals)
        kc = tuple(-(-v.numerator // v.denominator) for v in vals)
        floor_d[kf] = floor_d.get(kf, 0) + weight
        ceil_d[kc] = ceil_d.get(kc, 0) + weight
    return floor_d, ceil_d


def naive_box_histogram(lattice, l_rows, b_vec, ratios):
    """The histogram of counting.count_cone_box, by brute force.

    Each point of {1 <= H_{L_i} <= B_i} goes to the box n whose walls hold
    B_i r_i^{-n_i} < H_{L_i} <= B_i r_i^{-(n_i - 1)} on every axis, with
    every H_{L_i} taken from PlaceHeights.multi_height.
    """
    weight = sign_class_count(lattice)
    hist = {}
    for _, mh in _naive_points(lattice, _unit_box(l_rows, b_vec), 1):
        n_vec = []
        for row, b, r in zip(l_rows, b_vec, ratios):
            h, low, n = mh.of_class(row), Fraction(b) / r, 1
            while h <= low:
                low /= r
                n += 1
            n_vec.append(n)
        hist[tuple(n_vec)] = hist.get(tuple(n_vec), 0) + weight
    return hist


def naive_anticanonical_count(lattice, B):
    return naive_count(lattice, Region([(lattice.anticanonical, 1, 1)]), B)


# -- coordinate bounds by symbolic logarithms ------------------------------

class ExactLog:
    """Sum of e_j*log(b_j) with rational e_j and positive rational b_j.

    Supports exact comparison and floor(exp(.)), which is all the polytope
    vertex arithmetic needs: every bound of the form log(gamma) + s*log(B)
    stays in this class under rational linear combinations.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        if terms:
            for b, e in terms.items():
                b = Fraction(b)
                e = Fraction(e)
                if b <= 0:
                    raise DegenerateInputError("log of a nonpositive rational")
                if b != 1 and e != 0:
                    out[b] = out.get(b, Fraction(0)) + e
        self.terms = {b: e for b, e in out.items() if e != 0}

    @classmethod
    def zero(cls):
        return cls()

    def combine(self, other, scale=Fraction(1)):
        """self + scale*other."""
        out = dict(self.terms)
        for b, e in other.terms.items():
            out[b] = out.get(b, Fraction(0)) + scale * e
        return ExactLog(out)

    def scaled(self, c):
        c = Fraction(c)
        return ExactLog({b: c * e for b, e in self.terms.items()})

    def _power(self):
        """(X, Q) with self == (1/Q) * log(X), X an exact Fraction."""
        q = 1
        for e in self.terms.values():
            q = lcm(q, e.denominator)
        x = Fraction(1)
        for b, e in self.terms.items():
            x *= b ** int(e * q)
        return x, q

    def sign(self):
        x, _ = self._power()
        return (x > 1) - (x < 1)

    def cmp(self, other):
        return self.combine(other, Fraction(-1)).sign()

    def exp_floor(self):
        """floor(exp(self)) as an exact integer."""
        x, q = self._power()
        return linalg.floor_rational_power(x, 1, q)


def _region_rows(lattice, region, B):
    rows = []
    for con in region.constraints:
        rhs = ExactLog({con.gamma: Fraction(1)})
        if con.s:
            rhs = rhs.combine(ExactLog({Fraction(B): Fraction(1)}), con.s)
        rows.append(([Fraction(x) for x in con.cls], rhs))
    zero = ExactLog.zero()
    seen = set()
    for cls in lattice.classes:
        if cls not in seen:
            seen.add(cls)
            rows.append(([Fraction(-x) for x in cls], zero))
    for f in region.facets:
        rows.append(([Fraction(-x) for x in f], zero))
    return rows


def coordinate_bounds_exactlog(lattice, region, B):
    """Per-ray integer bounds M_lam with |y_lam| <= M_lam on the region,
    the reference for counting.coordinate_bounds.

    M_lam = floor exp sup{<[D_lam], a> : a in region and effective-dual}, the
    sup taken over the exact vertices of the rational polytope.  Raises for
    an unbounded region; an empty region yields all zeros.
    """
    B = Fraction(B)
    if B <= 0:
        raise DegenerateInputError("B must be a positive rational")
    rho = lattice.rank
    rows = _region_rows(lattice, region, B)

    rec_gens = [[-x for x in q] for q, _ in rows]
    if dual_cone(rec_gens, rho):
        raise DegenerateInputError(
            "region is unbounded over the dual effective cone")

    verts = []
    for idx in combinations(range(len(rows)), rho):
        mat = [list(rows[i][0]) for i in idx]
        if linalg.rank(mat) < rho:
            continue
        inv = linalg.inverse(mat)
        vert = []
        for j in range(rho):
            acc = ExactLog.zero()
            for k, i in enumerate(idx):
                if inv[j][k]:
                    acc = acc.combine(rows[i][1], inv[j][k])
            vert.append(acc)
        ok = True
        for q, rhs in rows:
            val = ExactLog.zero()
            for j in range(rho):
                if q[j]:
                    val = val.combine(vert[j], q[j])
            if val.cmp(rhs) > 0:
                ok = False
                break
        if ok:
            verts.append(vert)
    if not verts:
        return [0] * lattice.fan.n_rays

    bounds = []
    for cls in lattice.classes:
        best = None
        for vert in verts:
            val = ExactLog.zero()
            for j in range(rho):
                if cls[j]:
                    val = val.combine(vert[j], cls[j])
            if best is None or val.cmp(best) > 0:
                best = val
        bounds.append(max(0, best.exp_floor()))
    return bounds


def _cleared(vec):
    """(integer vector, d) with vec == integer vector / d, d > 0 least."""
    d = 1
    for x in vec:
        d = lcm(d, x.denominator)
    return tuple(int(x * d) for x in vec), d


def vertex_program_fractions(classes, cls_rows, s_vals, facets):
    """The vertex program of counting._vertex_program, the reference for
    it: every rho-subset of rows inverted over Fraction by linalg.inverse,
    its vertex, tests and objectives formed in Fractions and each cleared
    to the least positive denominator.  Returns the same (program, limit)
    tuples."""
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

    program, limit = [], set()
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
        objs = tuple(_cleared(pairing(c)) for c in classes)
        program.append((tuple(tests), objs))
        if all(e[-1] <= 0 for e in tests):
            limit.add(tuple(Fraction(e[-1], d) for e, d in objs))
    den = 1
    for x in (x for v in limit for x in v):
        den = lcm(den, x.denominator)
    return tuple(program), tuple(sorted(tuple(int(x * den) for x in v)
                                        for v in limit))


def naive_extreme_rays(gens, d):
    """Extreme rays of {phi : <phi, g> >= 0 for all g}, the reference for
    cones.dual_cone when the generators span Q^d, d >= 2: the kernel line
    of every subset of d - 1 generators of rank d - 1, with the sign that
    pairs >= 0 with every generator, when one does.  Primitive, lex
    sorted."""
    rays = set()
    for sub in combinations([list(g) for g in gens], d - 1):
        kernel = linalg.nullspace(sub)
        if len(kernel) != 1:  # rank below d - 1
            continue
        k = kernel[0]
        pairings = [linalg.vec_dot(k, g) for g in gens]
        for sign in (1, -1):
            if all(sign * x >= 0 for x in pairings):
                rays.add(tuple(linalg.primitive_vector([sign * x for x in k])))
    return sorted(rays)


def polytope_vertices(poly, level=None):
    """Vertices of the hyperbola polytope P, or of its section at sum t =
    level: every square subsystem of its inequalities (and the section's
    equation) that has one solution, kept when the solution lies in P."""
    s = poly.nvars
    ineqs = []
    for i in range(s):
        row = [Fraction(0)] * s
        row[i] = Fraction(-1)
        ineqs.append((row, Fraction(0)))
    for row in poly.alphas:
        ineqs.append(([a / w for a, w in zip(row, poly.weights)], Fraction(1)))
    eqs = [] if level is None else [([Fraction(1)] * s, level)]
    verts = set()
    for subset in combinations(range(len(ineqs)), s - len(eqs)):
        mat = [ineqs[i][0] for i in subset] + [q for q, _ in eqs]
        rhs = [ineqs[i][1] for i in subset] + [b for _, b in eqs]
        if linalg.rank(mat) < s:
            continue
        sol = linalg.solve_exact(mat, rhs)
        if sol is None:
            continue
        if all(linalg.vec_dot(r, sol) <= b for r, b in ineqs):
            verts.add(tuple(sol))
    return sorted(verts)


def c_p_sections(poly, deltas=(Fraction(1, 10), Fraction(1, 100),
                               Fraction(1, 1000))):
    """(sections, extrapolated): the (delta, volume) of each section at
    sum t = (1-delta) a, and the linear-in-delta extrapolation to delta = 0
    from the last two deltas."""
    s = poly.nvars
    sections = []
    for d in deltas:
        verts = polytope_vertices(poly, (1 - Fraction(d)) * poly.a)
        if s == 1:
            vol = Fraction(1) if verts else Fraction(0)
        else:
            vol = _face_volume(verts, s) if len(verts) >= s else Fraction(0)
        sections.append((Fraction(d), vol))
    if len(sections) >= 2:
        (d1, v1), (d2, v2) = sections[-2], sections[-1]
        extrapolated = (d1 * v2 - d2 * v1) / (d1 - d2)
    else:
        extrapolated = sections[-1][1]
    return sections, extrapolated
