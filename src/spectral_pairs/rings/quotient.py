"""Quotient extensions Base[z]/(chi) for a monic chi, and rational roots.

The quotient is taken over an arbitrary commutative base ring (zero divisors
allowed: chi need be neither irreducible nor squarefree).  Only division-free
arithmetic is provided.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from ..errors import (
    NonMonicError,
    RingMismatchError,
    SpectralPairsError,
    UnsupportedDegreeError,
)
from .multipoly import MultiPoly, PolyRing, _as_fraction, power


class CharPoly:
    """A monic univariate polynomial chi(z) over a coefficient ring.

    ``coeffs`` lists c_0 .. c_d (low to high); c_d must equal the ring one.
    """

    def __init__(self, ring: PolyRing, coeffs):
        coeffs = [c if isinstance(c, MultiPoly) else ring.const(c) for c in coeffs]
        if len(coeffs) < 2:
            raise ValueError("chi must have degree >= 1")
        if coeffs[-1] != ring.one:
            raise NonMonicError("chi must be monic")
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, value):
        """Horner evaluation at any element supporting the ring operations."""
        acc = value * 0  # zero of the target structure
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def map_coeffs(self, fn, ring=None) -> "CharPoly":
        return CharPoly(ring or self.ring, [fn(c) for c in self.coeffs])

    def rational_coeffs(self) -> list:
        return [c.as_fraction() for c in self.coeffs]

    def __eq__(self, other):
        return (
            isinstance(other, CharPoly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = [f"({c})*z^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs)]
        return " + ".join(reversed(parts))


class QuotientRing:
    """Base[z]/(chi) with chi monic; elements are coordinate vectors in z."""

    def __init__(self, base: PolyRing, chi: CharPoly):
        self.base = base
        # chi may live over a smaller coefficient ring; lift it.
        self.chi = chi if chi.ring == base else chi.map_coeffs(
            lambda c: c.map_to(base), base
        )
        d = self.chi.degree
        self.degree = d
        # z^d = -(c_0 + c_1 z + ... + c_{d-1} z^{d-1})
        self._zd = [-c for c in self.chi.coeffs[:-1]]
        self.zero = QuotientExt(self, (base.zero,) * d)
        one = [base.one] + [base.zero] * (d - 1)
        self.one = QuotientExt(self, tuple(one))
        if d >= 2:
            gen = [base.zero] * d
            gen[1] = base.one
            self.gen = QuotientExt(self, tuple(gen))
        else:
            self.gen = QuotientExt(self, tuple(self._zd))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.base == other.base
            and self.chi == other.chi
        )

    def __hash__(self):
        return hash((self.base, self.chi.coeffs))

    def __repr__(self):
        return f"{self.base}[z]/({self.chi})"

    def from_base(self, elem) -> "QuotientExt":
        if isinstance(elem, (int, Fraction)):
            elem = self.base.const(elem)
        if elem.ring != self.base:
            raise RingMismatchError("coefficient not in the base ring")
        coords = [elem] + [self.base.zero] * (self.degree - 1)
        return QuotientExt(self, tuple(coords))

    def const(self, value) -> "QuotientExt":
        return self.from_base(self.base.const(value))

    def sum_products(self, triples) -> "QuotientExt":
        """Sum of c*a*b over (int c, QuotientExt a, QuotientExt b) triples.

        Coordinate products are bucketed by z-power, each bucket is summed by
        the base ring's kernel, and the result is reduced mod chi once.
        """
        buckets = [[] for _ in range(2 * self.degree - 1)]
        for c, a, b in triples:
            for i, ai in enumerate(a.coords):
                if ai.is_zero():
                    continue
                for j, bj in enumerate(b.coords):
                    if not bj.is_zero():
                        buckets[i + j].append((c, ai, bj))
        return self.from_z_coeffs([self.base.sum_products(bk) for bk in buckets])

    def from_z_coeffs(self, coeffs) -> "QuotientExt":
        """Reduce an arbitrary-degree z-coefficient list into the quotient."""
        coeffs = [
            c if isinstance(c, MultiPoly) else self.base.const(c) for c in coeffs
        ]
        d = self.degree
        work = list(coeffs)
        while len(work) > d:
            top = work.pop()
            if top.is_zero():
                continue
            k = len(work) - d  # top multiplies z^(d+k)
            for i, r in enumerate(self._zd):
                work[k + i] = work[k + i] + top * r
        work += [self.base.zero] * (d - len(work))
        return QuotientExt(self, tuple(work))


class QuotientExt:
    """Element of a :class:`QuotientRing`: polynomial in z of degree < deg chi."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: QuotientRing, coords):
        self.ring = ring
        self.coords = tuple(coords)

    def _coerce(self, other):
        if isinstance(other, QuotientExt):
            if other.ring != self.ring:
                raise RingMismatchError("quotient rings differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        if isinstance(other, MultiPoly):
            return self.ring.from_base(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuotientExt(
            self.ring, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return QuotientExt(self.ring, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.sum_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, self.ring.one)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, self.coords))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def derive(self) -> "QuotientExt":
        # z is a constant for the derivation; differentiate coordinates
        return QuotientExt(self.ring, tuple(c.derive() for c in self.coords))

    def __repr__(self):
        parts = [
            f"({c})*z^{k}" if k else f"({c})"
            for k, c in enumerate(self.coords)
            if not c.is_zero()
        ]
        return " + ".join(reversed(parts)) if parts else "0"


def reduce_mod_char(p: MultiPoly, chi: CharPoly) -> QuotientExt:
    """Reduce a polynomial containing z modulo a monic chi(z).

    The result lives in Base[z]/(chi) where Base drops the z variable.
    """
    by_z = p.coefficients_in("z")
    if by_z:
        base = next(iter(by_z.values())).ring
    else:
        vars_ = tuple(v for v in p.ring.variables if v != "z")
        base = PolyRing(vars_, p.ring.laurent - {"z"})
    qring = QuotientRing(base, chi)
    top = max(by_z) if by_z else 0
    coeffs = [by_z.get(k, base.zero) for k in range(top + 1)]
    return qring.from_z_coeffs(coeffs)


def rational_roots(chi: CharPoly) -> list:
    """All rational roots (with multiplicity) of chi over Q, degree <= 3.

    Roots are found one at a time, each confirmed by exact evaluation and
    divided out with a zero-remainder re-check.  The search costs a number
    of evaluations logarithmic in the coefficients (see
    :func:`_one_rational_root`), never a scan over divisors.
    """
    if chi.degree > 3:
        raise UnsupportedDegreeError(f"degree {chi.degree} > 3")
    work = [_as_fraction(c) if not isinstance(c, MultiPoly) else c.as_fraction()
            for c in chi.coeffs]
    roots = []
    while len(work) > 1:
        found = Fraction(0) if work[0] == 0 else _one_rational_root(work)
        if found is None:
            break
        work, rem = _deflate(work, found)
        if rem != 0:
            raise SpectralPairsError("a confirmed root left a nonzero remainder")
        roots.append(found)
    return sorted(roots)


def _one_rational_root(coeffs):
    """A rational root of a rational polynomial of degree 1..3, or None.

    Cleared of denominators, the polynomial is sum a_i z^i over the integers;
    y = a_n z maps its rational roots onto the integer roots of the monic
    g(y) = sum a_i a_n^(n-1-i) y^i.  Each candidate is confirmed by exact
    Horner evaluation of the original coefficients.
    """
    den = lcm(*(c.denominator for c in coeffs))
    a = [int(c * den) for c in coeffs]
    n = len(a) - 1
    lead = a[-1]
    monic = [a[i] * lead ** (n - 1 - i) for i in range(n)] + [1]
    for y in _integer_roots(monic):
        cand = Fraction(y, lead)
        if _horner(coeffs, cand) == 0:
            return cand
    return None


def _integer_roots(g):
    """Integer roots of a monic integer polynomial of degree 1..3.

    They lie within the Cauchy bound B = 1 + max |g_i|.  Cut at the integer
    floors of the real critical points, [-B, B] falls into pieces on each of
    which g is monotone, so one bisection per piece finds its integer root
    in O(log B) exact evaluations.
    """
    bound = 1 + max(abs(c) for c in g[:-1])
    out = []
    lo = -bound
    for cut in _critical_floors(g) + [bound]:
        hi = min(cut, bound)
        if lo <= hi:
            y = _bisect_root(g, lo, hi)
            if y is not None:
                out.append(y)
        lo = max(lo, cut + 1)
    return out


def _critical_floors(g):
    """floor(r), ascending, for each real root r of g', deg g <= 3, g monic.

    Exact: floor(x / m) = floor(floor(x) / m) for an integer m > 0, and
    floor(-c +- sqrt(D)) is -c + isqrt(D) or -c - ceil(sqrt(D)).
    """
    d = [k * g[k] for k in range(1, len(g))]
    if len(d) == 1:
        return []
    if len(d) == 2:
        return [-d[0] // d[1]]
    c0, c1, c2 = d  # c2 = 3 > 0
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    s = isqrt(disc)
    s_up = s if s * s == disc else s + 1
    return [(-c1 - s_up) // (2 * c2), (-c1 + s) // (2 * c2)]


def _bisect_root(g, lo: int, hi: int):
    """The integer root of g in [lo, hi], where g is monotone, or None."""
    g_lo, g_hi = _horner(g, lo), _horner(g, hi)
    if g_lo == 0:
        return lo
    if g_hi != 0 and (g_lo > 0) == (g_hi > 0):
        return None
    sign = 1 if g_lo < 0 else -1  # sign * g rises from < 0 to >= 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sign * _horner(g, mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi if _horner(g, hi) == 0 else None


def _horner(coeffs, value):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


def _deflate(coeffs, root):
    """Synthetic division of coeffs (low->high) by (z - root)."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    out[n - 1] = coeffs[n]
    for k in range(n - 2, -1, -1):
        out[k] = coeffs[k + 1] + root * out[k + 1]
    rem = coeffs[0] + root * out[0]
    return out, rem
