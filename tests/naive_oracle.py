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

And it keeps the numeric route to the section-limit constant c_P that
cones.c_p_constant replaced with the exact face volume: the volumes of the
sections of the hyperbola polytope at sum t = (1 - delta) a, extrapolated
linearly to delta = 0, as c_p_sections.
"""

from fractions import Fraction
from itertools import combinations, product
from math import exp, gcd, lcm, log

import numpy as np
from scipy.optimize import linprog

from toricount import linalg
from toricount.cones import _face_volume, dual_cone
from toricount.counting import Region
from toricount.errors import DegenerateInputError
from toricount.heights import multi_height


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


def naive_count(lattice, region, B):
    """Exact number of torus points with multi-height in the region at B."""
    caps = coordinate_caps(lattice, region, B)
    if any(c <= 0 for c in caps):
        return 0
    fan = lattice.fan
    n = fan.n_rays
    inside_sets = [set(c) for c in fan.max_cones]

    # vectorized coprimality prefilter over all magnitude tuples
    grids = np.meshgrid(*(np.arange(1, c + 1, dtype=np.int64) for c in caps),
                        indexing="ij")
    flat = np.stack([g.reshape(-1) for g in grids], axis=1)
    g = None
    for inside in inside_sets:
        cols = [lam for lam in range(n) if lam not in inside]
        prod_out = flat[:, cols[0]].copy()
        for c in cols[1:]:
            prod_out *= flat[:, c]
        g = prod_out if g is None else np.gcd(g, prod_out)
    survivors = flat[g == 1]

    # the same LP bounds every product of two or more coordinates; the
    # slack of 1e-3 in log space keeps LP rounding on the safe side
    groups = [grp for k in range(2, n + 1) for grp in combinations(range(n), k)]
    logs = np.log(survivors.astype(float))
    keep = np.ones(len(survivors), dtype=bool)
    for grp, cap in zip(groups, _lp_log_caps(lattice, region, B, groups)):
        keep &= logs[:, list(grp)].sum(axis=1) <= cap + 1e-3
    survivors = survivors[keep]

    weight = sign_class_count(lattice)
    total = 0
    for row in survivors:
        mags = tuple(int(x) for x in row)
        mh = multi_height(lattice, mags)
        if region.contains(mh.values, B):
            total += weight
    return total


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


def _delta_section_vertices(poly, delta):
    """Vertices of P intersected with {sum t = (1-delta) a}."""
    s = poly.nvars
    level = (1 - Fraction(delta)) * poly.a
    ineqs = []
    for i in range(s):
        row = [Fraction(0)] * s
        row[i] = Fraction(-1)
        ineqs.append((row, Fraction(0)))
    for row in poly.alphas:
        ineqs.append(([a / w for a, w in zip(row, poly.weights)], Fraction(1)))
    eq = ([Fraction(1)] * s, level)
    verts = set()
    for subset in combinations(range(len(ineqs)), s - 1):
        mat = [ineqs[i][0] for i in subset] + [eq[0]]
        rhs = [ineqs[i][1] for i in subset] + [eq[1]]
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
        verts = _delta_section_vertices(poly, d)
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
