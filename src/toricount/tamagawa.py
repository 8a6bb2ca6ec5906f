"""Local densities, the Euler product, and the archimedean density.

The finite places contribute exact rationals omega_p = #X(F_p)/p^d with the
convergence factors (1 - 1/p)^rho; the infinite place contributes the volume
of a height-preimage region divided by its nu measure, which is
omega_inf = 2^n |Sigma_max| exactly (the proof is in `tamagawa`).  The
assembly 2^{-rho} * omega_inf * euler plays the role of the Tamagawa number
in every counting prediction, with an error bar that is proven.
`archimedean_density` estimates the same volume ratio by a seeded stratified
Monte Carlo; it stays as an independent check of the closed form, and no
default path calls it.
"""

from fractions import Fraction
from math import comb, exp, expm1, log, sqrt

import numpy as np

from .errors import DegenerateInputError
from .heights import _evaluator

DEFAULT_SAMPLES = 10 ** 7
_STRATA = 64


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_up_to(n):
    """Sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def _all_faces(fan):
    """Every cone of the fan as a frozenset of ray indices (zero cone = {})."""
    faces = {frozenset()}
    for cone in fan.max_cones:
        rays = list(cone)
        for mask in range(1, 1 << len(rays)):
            faces.add(frozenset(rays[i] for i in range(len(rays))
                                if mask >> i & 1))
    return faces


def local_density(fan, p):
    """omega_p = #X(F_p)/p^d, #X(F_p) = sum over cones of (p-1)^(d - dim)."""
    if not is_prime(p):
        raise DegenerateInputError(f"{p} is not prime")
    d = fan.dim
    total = 0
    for face in _all_faces(fan):
        total += (p - 1) ** (d - len(face))
    return Fraction(total, p ** d)


def euler_polynomial(fan):
    """Integer coefficients q_0..q_n of Q(x) = sum_k f_k x^k (1-x)^(n-k).

    f_k counts the k-dimensional cones, so #X(F_p) = sum_k f_k (p-1)^(d-k)
    gives (1 - 1/p)^rho omega_p = Q(1/p) with rho = n - d.  Q(0) = 1 and the
    x term cancels (f_1 = n): P1 gives 1 - x^2, P3 gives 1 - x^4.
    """
    n = fan.n_rays
    q = [0] * (n + 1)
    for face in _all_faces(fan):
        k = len(face)
        for j in range(n - k + 1):
            q[k + j] += (-1) ** j * comb(n - k, j)
    return q


def euler_product(fan, p_max):
    """prod_{p <= p_max} (1 - 1/p)^rho omega_p with a proven error bound.

    rho = n - d, the only exponent for which the product converges.  Each
    factor is Q(1/p) = 1 + sum_{j >= j0} q_j p^-j (euler_polynomial), with
    j0 >= 2 the lowest degree of Q - 1.  tail_bound bounds |E - value|,
    E the infinite product, as the sum of two parts.

    Truncation: for 0 < x <= 1, |Q(x) - 1| <= S x^j0, S = sum_{j>0} |q_j|, so
    the tail T = prod_{p > p_max} Q(1/p) has |T - 1| <= exp(t) - 1 with
    t = S sum_{p > p_max} p^-j0 <= S integral_{p_max}^inf x^-j0 dx
      = S / ((j0 - 1) p_max^(j0 - 1)).

    Rounding: a factor is the integer ratio sum_j q_j p^(n-j) / p^n, which
    int division rounds once, correctly, and each step of the running
    product rounds once.  So value = V prod_{i <= 2 pi(p_max)} (1 + eps_i)
    for the exact partial product V, with |eps_i| <= u = 2^-53, and
    |value - V| <= g V with g = 2 pi(p_max) u / (1 - 2 pi(p_max) u).

    With E = V T and V <= value / (1 - g):
    |E - value| <= V (exp(t) - 1 + g) <= value (expm1(t) + g) / (1 - g).
    """
    if p_max < 100:
        raise DegenerateInputError("p_max must be at least 100")
    q = euler_polynomial(fan)
    j0 = next(j for j, c in enumerate(q) if j and c)  # Q(1) = 0, so exists
    primes = primes_up_to(p_max)
    value = 1.0
    for p in primes:
        num = 0
        for c in q:
            num = num * p + c
        value *= num / p ** fan.n_rays
    t = sum(map(abs, q[1:])) / ((j0 - 1) * float(p_max) ** (j0 - 1))
    g = 2 * len(primes) * 2.0 ** -53
    g /= 1.0 - g
    bound = value * (expm1(t) + g) / (1.0 - g)
    return {"value": value, "tail_bound": bound, "p_max": p_max,
            "rho": fan.n_rays - fan.dim}


def _compile_membership(lattice, box):
    """Per-basis log bounds of a multiplicative box [lo_i, hi_i]."""
    lows, highs = [], []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 < lo < hi:
            raise DegenerateInputError("box needs 0 < lo < hi per axis")
        lows.append(log(float(lo)))
        highs.append(log(float(hi)))
    return np.array(lows), np.array(highs)


def nu_of_box(lattice, box):
    """Exact nu of the multiplicative box on the basis heights."""
    omega = [int(x) for x in lattice.anticanonical]
    val = Fraction(1)
    for (lo, hi), w in zip(box, omega):
        lo, hi = Fraction(lo), Fraction(hi)
        if w == 0:
            raise DegenerateInputError(
                "anticanonical class vanishes on a basis direction")
        val *= (hi ** w - lo ** w) / w
    return val


def archimedean_density(lattice, box, samples=DEFAULT_SAMPLES, seed=0):
    """omega_inf = vol{y real : multi-height of y in the box} / nu(box).

    The box is per-basis multiplicative bounds [lo_i, hi_i] at B = 1.  The
    volume is a stratified Monte Carlo over the tight coordinate bounding
    box |y_lam| <= prod hi^{<class_lam coords>}; the ratio is independent of
    the box, which the harness tests on several boxes.  Returns a dict with
    value, stderr, hits, samples.
    """
    ev = _evaluator(lattice)
    fan = lattice.fan
    n, d, rho = fan.n_rays, fan.dim, lattice.rank
    lows, highs = _compile_membership(lattice, box)
    nu = nu_of_box(lattice, box)
    if nu <= 0:
        raise DegenerateInputError("box has nonpositive nu measure")

    # tight |y_lam| bound: sup <[D_lam], a> over the box is attained at the
    # per-axis upper or lower wall by the sign of the class coordinate
    caps = []
    for cls in lattice.classes:
        s = 0.0
        for j, cj in enumerate(cls):
            s += cj * (highs[j] if cj >= 0 else lows[j])
        caps.append(exp(s))
    caps = np.array(caps)

    rays = np.array(fan.rays, dtype=float)                # (n, d)
    cone_inv = []
    w_mats = []
    for s_idx, cone in enumerate(fan.max_cones):
        basis = np.array([fan.rays[i] for i in cone], dtype=float)
        cone_inv.append(np.linalg.inv(basis))             # coords = x @ inv
        w_mats.append(np.array(ev.w_tables[s_idx], dtype=float).T)  # (n, rho)

    rng = np.random.default_rng(seed)
    strata = min(_STRATA, max(1, samples // 1024))
    per = samples // strata
    hits = []
    for k in range(strata):
        y = rng.random((per, n)) * caps
        # stratify the first coordinate into equal slices
        y[:, 0] = (k + rng.random(per)) / strata * caps[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(y)
            u = logs @ rays                               # (per, d)
            x = -u
            hlog = np.empty((per, rho))
            assigned = np.zeros(per, dtype=bool)
            for inv, w in zip(cone_inv, w_mats):
                coords = x @ inv
                m = ~assigned & (coords >= -1e-12).all(axis=1)
                if m.any():
                    hlog[m] = logs[m] @ w
                    assigned[m] = True
            inside = assigned.copy()
            for j in range(rho):
                inside &= (hlog[:, j] >= lows[j] - 0.0)
                inside &= (hlog[:, j] <= highs[j] + 0.0)
            inside &= ~np.isnan(hlog).any(axis=1)
        hits.append(int(inside.sum()))
    total = strata * per
    box_vol = float(np.prod(2.0 * caps))
    p_hat = sum(hits) / total
    vol = box_vol * p_hat
    # per-stratum binomial variance, combined
    var = 0.0
    for h in hits:
        q = h / per
        var += (box_vol / strata) ** 2 * q * (1.0 - q) / per
    stderr = sqrt(var) / float(nu)
    return {"value": vol / float(nu), "stderr": stderr, "hits": sum(hits),
            "samples": total, "volume": vol, "nu": nu, "seed": seed}


def tamagawa(lattice, p_max=10 ** 5, samples=None, seed=None):
    """Operational Tamagawa number 2^{-rho} omega_inf euler, with a proven
    error bound.

    omega_inf = vol{y in R^n : multi-height of y in D} / nu(D) for a box D,
    the ratio that `archimedean_density` samples, is 2^n |Sigma_max|:

    Write y_lam = +-e^{l_lam}; each of the 2^n sign patterns contributes the
    same, and dy = e^{sum l} dl.  Split l-space by the maximal cone sigma
    that holds -u(l), u(l) = sum_lam l_lam v_lam; the fan is complete, and
    two pieces meet in a null set.  On the piece of sigma the heights are
    h_i = <w_sigma(e_i), l>, w_sigma(e_i) the divisor of class e_i that
    vanishes on sigma (unique, so w_sigma is linear in the class), and
    -u = sum_{lam in sigma} t_lam v_lam with t >= 0.  The w_sigma(e_i) span
    a complement of the principal divisors div(chi^m) in Z^n, and the v_lam,
    lam in sigma, are a basis of N (the fan is smooth), so l -> (t, h) is
    unimodular and maps the piece onto {t >= 0} x R^rho.  Take m_sigma with
    <m_sigma, v_lam> = 1 on sigma, so that
    sum_lam D_lam - div(chi^{m_sigma}) = w_sigma(omega) and
    sum_lam l_lam = <omega, h> - sum_{lam in sigma} t_lam.  The piece then
    contributes int e^{-sum t} dt * int_{log D} e^{<omega, h>} dh = nu(D),
    and vol = 2^n |Sigma_max| nu(D) for every box.

    tau.error bounds |tau - 2^{-rho} omega_inf E| for E the infinite Euler
    product: omega_inf is exact, so the bound is 2^{-rho} omega_inf
    tail_bound.  The float product 2^{-rho} omega_inf value rounds once,
    and that rounding is covered too: the running product of
    `euler_product` starts with an exact multiplication by 1.0, so it
    rounds at most 2 pi(p_max) - 1 times against the 2 pi(p_max) its
    tail_bound allows for.
    """
    # samples and seed are accepted and ignored: omega_inf is exact, and
    # callers such as bench/workloads.py still pass them.
    fan = lattice.fan
    rho = lattice.rank
    ep = euler_product(fan, p_max)
    omega = 2 ** fan.n_rays * len(fan.max_cones)
    norm = 0.5 ** rho
    return {
        "rho": rho,
        "normalization": norm,
        "euler": {"value": ep["value"], "tail_bound": ep["tail_bound"],
                  "p_max": p_max},
        "omega_inf": {"value": float(omega), "stderr": 0.0},
        "tau": {"value": norm * omega * ep["value"],
                "error": norm * omega * ep["tail_bound"]},
        "note": "operational Tamagawa number",
    }
