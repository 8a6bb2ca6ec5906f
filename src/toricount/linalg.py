"""Exact integer and rational linear algebra helpers.

Everything here works on plain Python ints and fractions.Fraction so results
stay exact at any size.  Matrices are lists of lists (row major).  Sizes in
this package are tiny (ambient dimension at most 8), so clarity wins over
asymptotics.  One exact Gauss-Jordan elimination serves rank, solve_exact,
det, inverse and nullspace, and a fraction-free one inverts integer
matrices in integers; the row Hermite form canonicalises the class
lattice's projection; iroot and floor_rational_power turn exact bounds into
integer coordinate caps.
"""

from fractions import Fraction
from math import gcd, isqrt


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


def primitive_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    Keeps orientation (multiplies by a positive rational only).
    """
    fracs = [Fraction(x) for x in v]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
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


def _eliminate(a, width):
    """Exact Gauss-Jordan elimination on the first `width` columns of a.

    Rows may carry further (augmented) columns, which ride along.  Returns
    (m, pivots, det): m is the reduced matrix over Fraction, its first
    len(pivots) rows have a 1 in column pivots[i] and zeros above and below,
    and det is the product of the pivots with the sign of the row swaps,
    which is the determinant of a square a of full rank.
    """
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    pivots = []
    det = Fraction(1)
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, det


def rank(a):
    """Rank of a rational matrix."""
    return len(_eliminate(a, len(a[0]) if a else 0)[1])


def solve_exact(a, b):
    """Solve a x = b over Fraction.  Returns None if inconsistent.

    a is n x m (n equations), b length n.  For underdetermined systems an
    arbitrary solution (free variables set to zero) is returned.
    """
    m = len(a[0]) if a else 0
    aug, pivots, _ = _eliminate([list(row) + [y] for row, y in zip(a, b)], m)
    if any(row[m] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for row, c in zip(aug, pivots):
        x[c] = row[m]
    return x


def det(a):
    """Exact determinant of a square rational matrix."""
    _, pivots, d = _eliminate(a, len(a))
    return d if len(pivots) == len(a) else Fraction(0)


def inverse(a):
    """Exact inverse of a square rational matrix; ValueError if singular."""
    n = len(a)
    m, pivots, _ = _eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)],
        n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def fraction_free_inverse(a):
    """(d, m) with inverse(a) == m / d, all integers, for a square integer
    matrix a; None when a is singular.

    One fraction-free Gauss-Jordan elimination of [a | I] (Bareiss, Math.
    Comp. 22, 1968): each step cross-multiplies the other rows by the pivot
    and divides exactly by the previous pivot, so the left block ends as
    d I, d = det(a) up to the sign of the row swaps.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        top = m[c]
        p = top[c]
        for i in range(n):
            f = m[i][c]
            if i != c:
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return prev, [row[n:] for row in m]


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
    mat, pivots, _ = _eliminate(a, m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            v[pc] = -row[fc]
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
