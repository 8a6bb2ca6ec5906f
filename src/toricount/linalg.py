"""Exact integer and rational linear algebra helpers.

Everything here works on plain Python ints and fractions.Fraction so results
stay exact at any size.  Matrices are lists of lists (row major).  Sizes in
this package are tiny (ambient dimension at most 8), so clarity wins over
asymptotics.  One fraction-free Gauss-Jordan elimination, in integers,
serves rank, solve_exact, det, nullspace and the integer inverses:
the entry points that take rationals clear each row to integers first
(cleared), and nothing is eliminated over Fraction.  The row Hermite form
canonicalises the class lattice's projection; iroot and
floor_rational_power turn exact bounds into integer coordinate caps.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm, prod


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def cleared(vec):
    """(ints, d) with vec == ints / d, d > 0 least, for ints and Fractions."""
    d = lcm(*(x.denominator for x in vec))
    return tuple(int(x * d) for x in vec), d


def primitive_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    Keeps orientation (multiplies by a positive rational only).
    """
    ints, _ = cleared(v)
    g = vec_gcd(ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return [x // g for x in ints]


def hermite_row_form(a):
    """Row Hermite normal form h of an integer matrix a, by unimodular row
    operations, so h spans the same row lattice.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Rows of zeros sink to the bottom.  Canonical for a fixed row span.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    h = [row[:] for row in a]

    def addrow(dst, src, c):
        # row dst += c * row src
        if c:
            h[dst] = [x + c * y for x, y in zip(h[dst], h[src])]

    pivot_row = 0
    for col in range(m):
        # gcd the column below pivot_row into one row
        rows = [i for i in range(pivot_row, n) if h[i][col]]
        if not rows:
            continue
        while len(rows) > 1:
            rows.sort(key=lambda i: abs(h[i][col]))
            i0 = rows[0]
            for i in rows[1:]:
                q = h[i][col] // h[i0][col]
                addrow(i, i0, -q)
            rows = [i for i in range(pivot_row, n) if h[i][col]]
        i0 = rows[0]
        h[i0], h[pivot_row] = h[pivot_row], h[i0]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p  # floor division: reduce into [0, p)
            addrow(i, pivot_row, -q)
        pivot_row += 1
        if pivot_row == n:
            break
    return h


def _eliminate(m, width):
    """Fraction-free Gauss-Jordan elimination of the integer rows m, in
    place, on their first `width` columns (Bareiss, Math. Comp. 22, 1968).

    Further (augmented) columns ride along.  Each step cross-multiplies
    every other row by the pivot and divides exactly by the previous pivot;
    a column with no pivot is skipped.  Returns (pivots, d, sign): the
    first len(pivots) rows end as d times the reduced row echelon form, the
    rest are zero on the first `width` columns, and sign * d is the
    determinant of a square m of full rank, sign the parity of the swaps.
    """
    n = len(m)
    pivots, d, sign = [], 1, 1
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(n):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], top)]
        d = p
        pivots.append(c)
    return pivots, d, sign


def rank(a):
    """Rank of a rational matrix."""
    return len(_eliminate([cleared(row)[0] for row in a],
                          len(a[0]) if a else 0)[0])


def solve_exact(a, b):
    """Solve a x = b over Fraction.  Returns None if inconsistent.

    a is n x m (n equations), b length n.  For underdetermined systems an
    arbitrary solution (free variables set to zero) is returned.
    """
    m = len(a[0]) if a else 0
    aug = [cleared(list(row) + [y])[0] for row, y in zip(a, b)]
    pivots, d, _ = _eliminate(aug, m)
    if any(row[m] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for row, c in zip(aug, pivots):
        x[c] = Fraction(row[m], d)
    return x


def det(a):
    """Exact determinant of a square rational matrix: sign * d / prod m_i."""
    rows = [cleared(row) for row in a]
    pivots, d, sign = _eliminate([e for e, _ in rows], len(a))
    if len(pivots) < len(a):
        return Fraction(0)
    return Fraction(sign * d, prod(m for _, m in rows))


def fraction_free_inverse(a):
    """(d, m) with a^-1 == m / d, all integers, for a square integer
    matrix a; None when a is singular.

    One _eliminate of [a | I], with no clearing: its left block ends as
    d I, d = det(a) up to the sign of the row swaps.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    pivots, d, _ = _eliminate(m, n)
    return (d, [row[n:] for row in m]) if len(pivots) == n else None


def integer_inverse(a):
    """Inverse of a unimodular integer matrix, as integers."""
    solved = fraction_free_inverse(a)
    if solved is None or abs(solved[0]) != 1:
        raise ValueError("matrix is not unimodular")
    d, m = solved
    return [[d * x for x in row] for row in m]


def nullspace(a):
    """Basis of the rational right nullspace {x : a x = 0}."""
    m = len(a[0]) if a else 0
    rows = [cleared(row)[0] for row in a]
    pivots, d, _ = _eliminate(rows, m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(v)
    return basis


def iroot(x, k):
    """Floor of the k-th root of a nonnegative integer, exactly.

    Square roots are math.isqrt.  Below 2^52 the radicand is an exact double
    and the float root is within one of the answer; above, integer Newton
    iteration from an overestimate converges monotonically.  Either start
    is then corrected step by step to the exact floor.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or k == 1:
        return x
    if k == 2:
        return isqrt(x)
    if x < 1 << 52:
        r = int(x ** (1.0 / k))
    else:
        r = 1 << ((x.bit_length() + k - 1) // k)  # 2^ceil(bits/k) >= root
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


def floor_rational_power(base, num, den):
    """floor(base ** (num/den)) for a positive rational base, exact.

    base is a Fraction, num/den integers with den > 0.  Used to turn exact
    sup values exp(sup) = base^(num/den) into integer coordinate bounds.
    """
    if num < 0:
        base = 1 / base
        num = -num
    p = base.numerator ** num
    q = base.denominator ** num
    # floor((p/q)^(1/den)): integer m with m^den * q <= p < (m+1)^den * q
    m = iroot(p // q, den)
    while (m + 1) ** den * q <= p:
        m += 1
    while m ** den * q > p:
        m -= 1
    return m
