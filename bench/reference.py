"""Reference values for the benchmark, computed without importing toricount.

Counts of torus points of anticanonical height at most B come from Möbius
and totient sums over max-norms.  Every count is a number of torus points,
that is of torsor points with nonzero coordinates up to the sign group.

    a(k) = 2 for k = 1 and 4 phi(k) for k >= 2   primitive pairs of max-norm k
    A(N) = sum_{k <= N} a(k)                      up to sign, on P1

    P^{n-1}       1/2 sum_d mu(d) (2 floor(N/d))^n,    N = floor(B^(1/n))
    P1xP1         sum_{k <= N} a(k) A(floor(N/k)),      N = floor(sqrt(B))
    F1            4 sum_a c(a) sum_d mu(d) floor(M/d) floor(floor(M/a)/d),
                  a = max(|y0|, |y2|), c(1) = 1, c(a) = 2 phi(a) for a >= 2,
                  M = floor(sqrt(floor(B/a)))
    P1xP1 box     A(floor(B1)) A(floor(B2))  for H_{e1} <= B1, H_{e2} <= B2

The constants come from closed forms: the Euler product is a product of
1/zeta(k), omega_inf = 2^n |Sigma_max|, and alpha and c_P are exact
rationals.  `self_check` tests the count formulas against a brute-force
count over tiny boxes, with the height taken as the largest anticanonical
monomial of the fan's own polytope, and tests the Euler factors exactly at
small primes.  Run this file to print the self-check:

    python3 bench/reference.py
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, gcd, isqrt, pi, prod

# The builtin fans, written out again: rays and maximal cones.
FANS = {
    "P1": ([(1,), (-1,)], [(0,), (1,)]),
    "P2": ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "P3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    "P1xP1": ([(1, 0), (-1, 0), (0, 1), (0, -1)],
              [(0, 2), (0, 3), (1, 2), (1, 3)]),
    "F1": ([(1, 0), (0, 1), (-1, 1), (0, -1)],
           [(0, 1), (1, 2), (2, 3), (0, 3)]),
}

# prod_p (1 - 1/p)^rho #X(F_p)/p^d = prod_k 1/zeta(k) over these k
EULER_ZETA = {"P1": (2,), "P2": (3,), "P3": (4,), "P1xP1": (2, 2),
              "F1": (2, 2)}

ALPHA = {"P1": Fraction(1, 2), "P2": Fraction(1, 3), "P3": Fraction(1, 4),
         "P1xP1": Fraction(1, 4), "F1": Fraction(1, 6)}


def shape(name):
    """(n, d, rho, number of maximal cones) of a fan."""
    rays, cones = FANS[name]
    n, d = len(rays), len(rays[0])
    return n, d, n - d, len(cones)


def iroot(x, k):
    """floor(x^(1/k)) for integers x >= 0, k >= 1."""
    r = int(round(x ** (1.0 / k)))
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@lru_cache(maxsize=None)
def _mu_phi(n):
    """Möbius and Euler totient tables for 0..n."""
    mu = [1] * (n + 1)
    phi = list(range(n + 1))
    is_comp = bytearray(n + 1)
    for p in range(2, n + 1):
        if is_comp[p]:
            continue
        for m in range(p, n + 1, p):
            if m > p:
                is_comp[m] = 1
            mu[m] = -mu[m]
            phi[m] -= phi[m] // p
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return tuple(mu), tuple(phi)


def mu_table(n):
    return _mu_phi(max(n, 1))[0]


def phi_table(n):
    return _mu_phi(max(n, 1))[1]


def a_p1(k, phi):
    return 2 if k == 1 else 4 * phi[k]


def A_p1(n):
    phi = phi_table(n)
    return sum(a_p1(k, phi) for k in range(1, n + 1))


def count_projective(n, B):
    """Torus points of P^{n-1} with max|x_i|^n <= B."""
    N = iroot(B, n)
    mu = mu_table(N)
    return sum(mu[d] * (2 * (N // d)) ** n for d in range(1, N + 1)) // 2


def count_p1xp1(B):
    N = isqrt(B)
    phi = phi_table(N)
    prefix = [0] * (N + 1)
    for k in range(1, N + 1):
        prefix[k] = prefix[k - 1] + a_p1(k, phi)
    return sum(a_p1(k, phi) * prefix[N // k] for k in range(1, N + 1))


def count_f1(B):
    total = 0
    a = 1
    while a ** 3 <= B:
        M = isqrt(B // a)
        mu = mu_table(M)
        inner = sum(mu[d] * (M // d) * ((M // a) // d)
                    for d in range(1, M // a + 1))
        total += (1 if a == 1 else 2 * phi_table(a)[a]) * inner
        a += 1
    return 4 * total


def count_anticanonical(name, B):
    """Torus points of height H_{-K} <= B on a builtin fan."""
    if name in ("P1", "P2", "P3"):
        return count_projective(shape(name)[0], B)
    if name == "P1xP1":
        return count_p1xp1(B)
    if name == "F1":
        return count_f1(B)
    raise KeyError(name)


def count_cone_box_p1xp1(b1, b2):
    """Torus points of P1xP1 with H_{e1} <= b1 and H_{e2} <= b2."""
    return A_p1(int(b1)) * A_p1(int(b2))


# -- brute force -------------------------------------------------------------

def _solve(mat, rhs):
    """Exact solution of a square rational system."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(r)]
         for row, r in zip(mat, rhs)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n] / a[i][i] for i in range(n)]


def anticanonical_exponents(name):
    """Per maximal cone, the exponents <m_sigma, v_lam> + 1 of the monomial
    of the polytope vertex m_sigma with <m_sigma, v_lam> = -1 on sigma."""
    rays, cones = FANS[name]
    out = []
    for cone in cones:
        m = _solve([rays[i] for i in cone], [-1] * len(cone))
        exps = [sum(mi * vi for mi, vi in zip(m, v)) + 1 for v in rays]
        if any(e.denominator != 1 or e < 0 for e in exps):
            raise ValueError(f"{name}: anticanonical class is not nef")
        out.append(tuple(int(e) for e in exps))
    return out


def brute_anticanonical(name, B):
    """Count by scanning every magnitude tuple in a box.

    For torsor-coprime points the anticanonical height is the largest
    monomial over the vertices of the anticanonical polytope; each
    magnitude tuple stands for 2^n sign patterns, of which the sign group
    identifies 2^rho, so it counts 2^d times.
    """
    rays, cones = FANS[name]
    n, d, _, _ = shape(name)
    exps = anticanonical_exponents(name)
    caps = [iroot(B, max(e[lam] for e in exps)) for lam in range(n)]
    comps = [[lam for lam in range(n) if lam not in cone] for cone in cones]
    total = 0
    for y in product(*(range(1, c + 1) for c in caps)):
        if max(prod(v ** e for v, e in zip(y, ex)) for ex in exps) > B:
            continue
        g = 0
        for comp in comps:
            g = gcd(g, prod(y[lam] for lam in comp))
        if g == 1:
            total += 1
    return total << d


def brute_cone_box_p1xp1(b1, b2):
    """Points of P1xP1 with max(|x0|,|x1|) <= b1 and max(|y0|,|y1|) <= b2."""
    def pairs(b):
        return sum(1 for x in range(1, b + 1) for y in range(1, b + 1)
                   if gcd(x, y) == 1)
    return pairs(int(b1)) * pairs(int(b2)) * 4


# -- constants ---------------------------------------------------------------

_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66))


def zeta(s, terms=20):
    """Riemann zeta at an integer s >= 2 by Euler-Maclaurin summation."""
    total = sum(k ** -s for k in range(1, terms))
    total += terms ** (1 - s) / (s - 1) + 0.5 * terms ** -s
    rising = s
    for j, b in enumerate(_BERNOULLI, start=1):
        total += (float(b) / factorial(2 * j) * rising
                  * terms ** (-s - 2 * j + 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def euler_closed_form(name):
    return prod(1.0 / zeta(k) for k in EULER_ZETA[name])


def euler_truncation_bound(name, p_max):
    """Relative error of the product truncated at p_max: the missing factors
    are prod_{p > p_max} (1 - p^-k), and sum_{n > P} n^-k < P^(1-k)/(k-1)."""
    return sum(p_max ** (1 - k) / (k - 1) for k in EULER_ZETA[name])


def omega_inf(name):
    n, _, _, cones = shape(name)
    return 2 ** n * cones


def c_p(name):
    return Fraction(1, factorial(shape(name)[2] - 1))


def tau(name):
    """The closed-form Tamagawa number 2^-rho omega_inf E."""
    return 0.5 ** shape(name)[2] * omega_inf(name) * euler_closed_form(name)


@lru_cache(maxsize=None)
def prime_count(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return sum(sieve)


def _local_factor(name, p):
    """(1 - 1/p)^rho #X(F_p) / p^d, with #X(F_p) summed over the cones."""
    _, cones = FANS[name]
    n, d, rho, _ = shape(name)
    faces = {frozenset(sub) for cone in cones
             for k in range(len(cone) + 1) for sub in combinations(cone, k)}
    points = sum((p - 1) ** (d - len(f)) for f in faces)
    return (1 - Fraction(1, p)) ** rho * Fraction(points, p ** d)


# -- self-check --------------------------------------------------------------

SELF_CHECK_B = {"P1": (1, 7, 500, 9999), "P2": (1, 27, 300, 1999),
                "P3": (1, 16, 700, 3000), "P1xP1": (3, 50, 200),
                "F1": (2, 40, 300)}


def self_check():
    """Compare the formulas with brute force and the closed forms with
    exact local factors; raise ValueError on the first mismatch and return
    the number of comparisons made."""
    checks = 0

    def expect(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            raise ValueError(f"reference self-check failed: {what}")

    for name, bs in SELF_CHECK_B.items():
        for B in bs:
            want = brute_anticanonical(name, B)
            got = count_anticanonical(name, B)
            expect(got == want, f"{name} B={B}: formula {got}, brute {want}")
    for b1, b2 in ((1, 1), (3, 7), (12, 10)):
        expect(count_cone_box_p1xp1(b1, b2) == brute_cone_box_p1xp1(b1, b2),
               f"P1xP1 box ({b1},{b2})")
    expect(abs(zeta(2) - pi ** 2 / 6) < 1e-15, "zeta(2)")
    expect(abs(zeta(4) - pi ** 4 / 90) < 1e-15, "zeta(4)")
    expect(abs(zeta(3) - 1.2020569031595942) < 1e-15, "zeta(3)")
    for name, ks in EULER_ZETA.items():
        for p in (2, 3, 5, 7, 101):
            want = prod(1 - Fraction(1, p ** k) for k in ks)
            expect(_local_factor(name, p) == want, f"{name} factor at {p}")
    expect(prime_count(10 ** 4) == 1229, "pi(10^4)")
    return checks


if __name__ == "__main__":
    n = self_check()
    print(f"reference self-check: {n} comparisons passed")
    for name in FANS:
        print(f"{name}: E = {euler_closed_form(name):.15f}, "
              f"omega_inf = {omega_inf(name)}, tau = {tau(name):.12f}, "
              f"alpha = {ALPHA[name]}, c_P = {c_p(name)}")
