"""Universal-torsor (Cox) coordinates and exact multi-heights.

A rational point of the dense torus is represented by a tuple of nonzero
integers y_lambda indexed by the rays, subject to per-cone coprimality, up to
the sign action of {+-1}^rho.  Heights are kept multiplicatively as exact
positive rationals so region membership never touches floating point; each
is a ratio of integer max-monomials from the nef split of its basis class.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .cones import dual_cone
from .errors import CoprimalityError, DegenerateInputError


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


class HeightEvaluator:
    """Per-fan sign rows for canonicalization, and the nef split that every
    height evaluation goes through."""

    def __init__(self, lattice):
        self.lattice = lattice
        self.fan = lattice.fan
        self.n, self.rho = self.fan.n_rays, lattice.rank

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

    @cached_property
    def _ample(self):
        """The ample class A, the sum of the extremal rays of the nef cone,
        and the nef inequalities g with their pairings <g, A> > 0.  Raises
        DegenerateInputError when the fan has no ample class."""
        ineqs = [g for g in self.lattice.nef_inequalities() if any(g)]
        ample = [sum(col) for col in zip(*dual_cone(ineqs, self.rho))]
        pair = [sum(x * y for x, y in zip(g, ample)) for g in ineqs]
        if min(pair) <= 0:
            raise DegenerateInputError(
                "fan is not projective: its nef cone is not "
                "full-dimensional, so there is no ample class to write "
                "heights as ratios of nef heights")
        return ample, list(zip(ineqs, pair))

    def split(self, e):
        """Nef classes (a, b) with e = a - b, so that H_e = H_a / H_b.

        b = k*A, A the ample class and k the least integer making e + k*A
        nef: <g, e> + k <g, A> >= 0 for every nef inequality g, that is
        k >= ceil(-<g, e> / <g, A>).  A nef e has k = 0 and b = 0.
        """
        ample, ineqs = self._ample
        k = max([0] + [-(sum(x * y for x, y in zip(g, e)) // p)
                       for g, p in ineqs])
        return (tuple(x + k * y for x, y in zip(e, ample)),
                tuple(k * y for y in ample))

    def monomials(self, c):
        """The distinct per-cone representatives of the class c, sorted: on
        a canonical point the height of a nef c is max_w y^w over them."""
        lat = self.lattice
        return tuple(sorted({lat.class_representative(s, c)
                             for s in range(len(self.fan.max_cones))}))

    @cached_property
    def nef_split(self):
        """The split of every basis class e_i, as (a, b, mono): e_i = a_i -
        b_i, and mono[i] is the pair (monomials(a_i), monomials(b_i)), so
        that on a canonical point H_{e_i} = max_w y^w over the first list /
        max_w y^w over the second.  Raises DegenerateInputError when the
        fan has no ample class."""
        a, b = zip(*(self.split([int(j == i) for j in range(self.rho)])
                     for i in range(self.rho)))
        return a, b, [tuple(map(self.monomials, pair)) for pair in zip(a, b)]

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
        given = tuple(coords)
        coords = tuple(int(y) for y in given)
        if coords != given:
            raise DegenerateInputError(
                f"Cox coordinates must be integers, got {given}")
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

    # -- heights ---------------------------------------------------------

    def multi_height(self, point):
        """Exact H_{e_i} for all basis classes.

        The point is canonicalized first, so a wrong length, a coordinate
        that is zero or not an integer, or a failure of per-cone coprimality
        raises.  On a
        canonical point the height of a nef class is its largest monomial,
        so H_{e_i} = max_w y^w over the a_i-list of nef_split divided by
        max_w y^w over its b_i-list; both lists hold nonnegative exponents.
        """
        coords = point.coords if isinstance(point, TorsorPoint) else point
        ay = [abs(y) for y in self.canonicalize(coords).coords]

        def top(ws):
            return max(prod(y ** e for y, e in zip(ay, w)) for w in ws)

        return MultiHeight(values=tuple(Fraction(top(a), top(b))
                                        for a, b in self.nef_split[2]))


def _evaluator(lattice):
    ev = getattr(lattice, "_height_evaluator", None)
    if ev is None:
        ev = HeightEvaluator(lattice)
        lattice._height_evaluator = ev
    return ev


def canonicalize(lattice, coords):
    return _evaluator(lattice).canonicalize(coords)


def multi_height(lattice, point):
    return _evaluator(lattice).multi_height(point)
