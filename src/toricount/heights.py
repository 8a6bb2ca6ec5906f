"""Universal-torsor (Cox) coordinates and exact multi-heights.

A rational point of the dense torus is represented by a tuple of nonzero
integers y_lambda indexed by the rays, subject to per-cone coprimality, up to
the sign action of {+-1}^rho.  Heights are kept multiplicatively as exact
positive rationals so region membership never touches floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, log, prod

from .cones import dual_cone
from .errors import CoprimalityError, DegenerateInputError

INF_PLACE = "inf"


@dataclass(frozen=True)
class TorsorPoint:
    coords: tuple
    canonical: bool = False


@dataclass(frozen=True)
class MultiHeight:
    """Exact heights H_{e_i} for the fixed Picard basis."""

    values: tuple  # positive Fractions, one per basis class

    def of_class(self, c):
        """H_c = prod H_{e_i}^{c_i} for an integer class vector."""
        out = Fraction(1)
        for h, ci in zip(self.values, c):
            if ci:
                out *= h ** ci
        return out


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


class HeightEvaluator:
    """Per-fan precomputation for canonicalization and height evaluation."""

    def __init__(self, lattice):
        self.lattice = lattice
        fan = lattice.fan
        self.fan = fan
        n, d, rho = fan.n_rays, fan.dim, lattice.rank
        self.n, self.d, self.rho = n, d, rho

        # per-cone representatives of the basis classes: w_tables[s][i] is the
        # divisor of class e_i vanishing on cone s
        self.w_tables = []
        for s in range(len(fan.max_cones)):
            rows = []
            for i in range(rho):
                e = [0] * rho
                e[i] = 1
                rows.append(lattice.class_representative(s, e))
            self.w_tables.append(rows)

        # per-cone expansion of every ray in the cone's ray basis:
        # coeff_exp[s][j][lam] with v_lam = sum_j coeff * (basis ray j)
        vt = [list(col) for col in zip(*fan.ray_matrix())]  # d x n
        self.coeff_exp = []
        for s in range(len(fan.max_cones)):
            m = lattice._ray_inv_t[s]
            self.coeff_exp.append([
                [sum(m[j][t] * vt[t][lam] for t in range(d)) for lam in range(n)]
                for j in range(d)
            ])

        # sign-action row space over F_2 (row-reduced, for canonical signs)
        rows = []
        for r in lattice.projection:
            mask = 0
            for lam, x in enumerate(r):
                if x & 1:
                    mask |= 1 << lam
            rows.append(mask)
        reduced, pivots = [], []
        for mask in rows:
            for rmask, p in zip(reduced, pivots):
                if mask >> p & 1:
                    mask ^= rmask
            if mask:
                # pivot = lowest set bit, so the fully reduced sign pattern
                # (zero on all pivots) is the lex-least element of its coset
                p = (mask & -mask).bit_length() - 1
                for i in range(len(reduced)):
                    if reduced[i] >> p & 1:
                        reduced[i] ^= mask
                reduced.append(mask)
                pivots.append(p)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        self._sign_rows = [reduced[i] for i in order]
        self._sign_pivots = [pivots[i] for i in order]
        self.wall_events = 0

    @cached_property
    def nef_split(self):
        """Nef classes a_i, b_i with e_i = a_i - b_i, and their monomials.

        b_i = 0 when e_i is nef; otherwise b_i = k*A with A the sum of the
        extremal rays of the nef cone (an ample class) and k the least
        integer making e_i + k*A nef.  Returns (a, b, mono): mono[i] is the
        pair of deduplicated per-cone representative lists (w(sigma, a_i)
        over sigma, w(sigma, b_i) over sigma), so that on a canonical point
        H_{e_i} = max_w y^w over the first list / max_w y^w over the second.
        Raises DegenerateInputError when the fan has no ample class.
        """
        lat = self.lattice
        basis = [[1 if j == i else 0 for j in range(self.rho)]
                 for i in range(self.rho)]
        shifts = [0] * self.rho
        ample = [0] * self.rho
        if not all(lat.is_nef(e) for e in basis):
            ineqs = [g for g in lat.nef_inequalities() if any(g)]
            gens = dual_cone(ineqs, self.rho)
            ample = [sum(col) for col in zip(*gens)]
            pair = [sum(x * y for x, y in zip(g, ample)) for g in ineqs]
            if min(pair) <= 0:
                raise DegenerateInputError(
                    "fan is not projective: its nef cone is not "
                    "full-dimensional, so there is no ample class to write "
                    "the basis heights as ratios of nef heights")
            for i in range(self.rho):
                shifts[i] = max([0] + [-(g[i] // p)
                                       for g, p in zip(ineqs, pair)])
        a = [[e + k * x for e, x in zip(row, ample)]
             for row, k in zip(basis, shifts)]
        b = [[k * x for x in ample] for k in shifts]
        cones = range(len(self.fan.max_cones))
        mono = [tuple(sorted({lat.class_representative(s, c) for s in cones})
                      for c in (ai, bi))
                for ai, bi in zip(a, b)]
        return a, b, mono

    # -- torsor point plumbing ------------------------------------------

    def coprimality_gcd(self, coords):
        """gcd over maximal cones of prod_{lam not in sigma} |y_lam|."""
        g = 0
        for cone in self.fan.max_cones:
            inside = set(cone)
            g = gcd(g, prod(abs(coords[lam]) for lam in range(self.n)
                            if lam not in inside))
            if g == 1:
                return 1
        return g

    def canonicalize(self, coords):
        coords = tuple(int(y) for y in coords)
        if len(coords) != self.n:
            raise DegenerateInputError(
                f"expected {self.n} coordinates, got {len(coords)}")
        if any(y == 0 for y in coords):
            raise DegenerateInputError("zero coordinate: not a point of the torus")
        g = self.coprimality_gcd(coords)
        if g != 1:
            raise CoprimalityError(
                f"coordinates violate per-cone coprimality (gcd {g})")
        s = 0
        for lam, y in enumerate(coords):
            if y < 0:
                s |= 1 << lam
        for rmask, p in zip(self._sign_rows, self._sign_pivots):
            if s >> p & 1:
                s ^= rmask
        out = tuple(-abs(y) if s >> lam & 1 else abs(y)
                    for lam, y in enumerate(coords))
        return TorsorPoint(coords=out, canonical=True)

    def is_canonical(self, coords):
        return all(coords[p] > 0 for p in self._sign_pivots)

    def sign_orbit(self, coords):
        """All 2^rho sign variants identified with the given point."""
        out = set()
        masks = [0]
        for r in self._sign_rows:
            masks += [m ^ r for m in masks]
        for m in masks:
            out.add(tuple(-y if m >> lam & 1 else y
                          for lam, y in enumerate(coords)))
        return out

    # -- tropicalization and cone selection -----------------------------

    def tropicalize(self, point, place):
        coords = point.coords if isinstance(point, TorsorPoint) else point
        rays = self.fan.rays
        if place == INF_PLACE:
            u = [0.0] * self.d
            for y, v in zip(coords, rays):
                ly = log(abs(y))
                for j in range(self.d):
                    u[j] += ly * v[j]
            return u
        u = [0] * self.d
        for y, v in zip(coords, rays):
            e = 0
            ay = abs(y)
            while ay % place == 0:
                e += 1
                ay //= place
            if e:
                for j in range(self.d):
                    u[j] -= e * v[j]
        return u

    def select_cone_integer(self, u):
        """Smallest-index maximal cone containing the integer vector u."""
        for s in range(len(self.fan.max_cones)):
            c = self.lattice.cone_coefficients(s, u)
            if all(x >= 0 for x in c):
                if any(x == 0 for x in c):
                    self.wall_events += 1
                return s
        raise DegenerateInputError(f"no maximal cone contains {tuple(u)}")

    def select_cone_arch(self, abs_coords, negate=False):
        """Cone of the archimedean tropicalization, by exact products.

        The j-th basis coefficient of u_inf in cone s has the sign of
        prod |y_lam|^{coeff_exp[s][j][lam]} - 1; compare integer products.
        With negate=True, selects the cone containing -u_inf instead.
        """
        for s in range(len(self.fan.max_cones)):
            ok = True
            on_wall = False
            for row in self.coeff_exp[s]:
                num = den = 1
                for ay, e in zip(abs_coords, row):
                    if e > 0:
                        num *= ay ** e
                    elif e < 0:
                        den *= ay ** (-e)
                if negate:
                    num, den = den, num
                if num < den:
                    ok = False
                    break
                if num == den:
                    on_wall = True
            if ok:
                if on_wall:
                    self.wall_events += 1
                return s
        raise DegenerateInputError("no maximal cone contains the tropicalization")

    def select_cone(self, point, place):
        coords = point.coords if isinstance(point, TorsorPoint) else point
        if place == INF_PLACE:
            return self.select_cone_arch([abs(y) for y in coords])
        return self.select_cone_integer(self.tropicalize(coords, place))

    # -- heights ---------------------------------------------------------

    def local_height(self, point, place, a):
        """|chi^{m_sigma}(t)|_place for the divisor a, an exact rational.

        sigma is the maximal cone containing the NEGATED tropicalization, so
        that for nef a the local factor is the largest monomial value
        max_m |chi^m|_v over the vertices m_sigma of the divisor polytope and
        the product over places is the usual max-metric height.
        """
        coords = point.coords if isinstance(point, TorsorPoint) else point
        if place == INF_PLACE:
            s = self.select_cone_arch([abs(y) for y in coords], negate=True)
        else:
            u = self.tropicalize(coords, place)
            s = self.select_cone_integer([-x for x in u])
        w = self.lattice.cone_representative(s, list(a))
        expo = [wi - ai for ai, wi in zip(a, w)]
        if place == INF_PLACE:
            num = den = 1
            for y, e in zip(coords, expo):
                if e > 0:
                    num *= abs(y) ** e
                elif e < 0:
                    den *= abs(y) ** (-e)
            return Fraction(num, den)
        v = 0
        for y, e in zip(coords, expo):
            if e:
                ay = abs(y)
                while ay % place == 0:
                    v += e
                    ay //= place
        return Fraction(place) ** (-v)

    def multi_height(self, point):
        """Exact H_{e_i} for all basis classes, product over all places.

        Representative-free form: H_c = prod_v prod_lam |y_lam|_v^{w(sigma_v,
        c)_lam} with sigma_v the cone containing -u_v (chi^{a-w} has constant
        sign, so the divisor term prod_v |y^a|_v = 1 drops out); only the
        archimedean place and primes dividing some y_lam contribute.
        """
        coords = point.coords if isinstance(point, TorsorPoint) else point
        ay = [abs(y) for y in coords]
        vals = [Fraction(1)] * self.rho

        s = self.select_cone_arch(ay, negate=True)
        for i in range(self.rho):
            num = den = 1
            for y, wl in zip(ay, self.w_tables[s][i]):
                if wl > 0:
                    num *= y ** wl
                elif wl < 0:
                    den *= y ** (-wl)
            vals[i] *= Fraction(num, den)

        ords = {}
        for lam, y in enumerate(ay):
            if y > 1:
                for p, e in _factorize(y).items():
                    ords.setdefault(p, [0] * self.n)[lam] = e
        rays = self.fan.rays
        for p in sorted(ords):
            ov = ords[p]
            # -u_p = sum_lam ord_p(y_lam) v_lam; |y_lam|_p^{w_lam} = p^{-w.ov}
            nu = [sum(ov[lam] * rays[lam][j] for lam in range(self.n))
                  for j in range(self.d)]
            s = self.select_cone_integer(nu)
            for i in range(self.rho):
                e = sum(wl * ol for wl, ol in zip(self.w_tables[s][i], ov))
                if e:
                    vals[i] *= Fraction(p) ** (-e)
        return MultiHeight(values=tuple(vals))

    def max_monomial_height(self, point, c):
        """max over cones of prod |y_lam|^{w(sigma,c)_lam}.

        Agrees with the place-by-place height exactly when c is nef and the
        point is canonical (per-cone coprimality kills the gcd correction).
        """
        coords = point.coords if isinstance(point, TorsorPoint) else point
        ay = [abs(y) for y in coords]
        best = None
        for s in range(len(self.fan.max_cones)):
            w = [sum(ci * self.w_tables[s][i][lam] for i, ci in enumerate(c))
                 for lam in range(self.n)]
            num = den = 1
            for y, e in zip(ay, w):
                if e > 0:
                    num *= y ** e
                elif e < 0:
                    den *= y ** (-e)
            v = Fraction(num, den)
            if best is None or v > best:
                best = v
        return best


def _evaluator(lattice):
    ev = getattr(lattice, "_height_evaluator", None)
    if ev is None:
        ev = HeightEvaluator(lattice)
        lattice._height_evaluator = ev
    return ev


def canonicalize(lattice, coords):
    return _evaluator(lattice).canonicalize(coords)


def tropicalize(lattice, point, place):
    return _evaluator(lattice).tropicalize(point, place)


def select_cone(lattice, u):
    """Maximal cone containing an integer vector, smallest-index tie-break."""
    return _evaluator(lattice).select_cone_integer(list(u))


def local_height(lattice, point, place, a):
    return _evaluator(lattice).local_height(point, place, a)


def multi_height(lattice, point):
    return _evaluator(lattice).multi_height(point)
