"""A deliberately slow point counter used to certify the fast enumerator.

It iterates every magnitude tuple inside per-coordinate bounds obtained from
an LP relaxation, drops tuples whose coordinate products break the same LP's
bounds, filters by the per-cone gcd conditions and by exact height
membership, and counts sign classes by brute force over all sign vectors
modulo the character action, never trusting the orbit-size formula or any of
the production pruning.
"""

from fractions import Fraction
from itertools import combinations, product
from math import exp, gcd, log

import numpy as np
from scipy.optimize import linprog

from toricount.counting import Region
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
