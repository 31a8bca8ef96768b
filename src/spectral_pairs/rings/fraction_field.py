"""Univariate polynomials over a field and their fraction field.

No production code path uses them: they are the tests' independent
Frac(K[x]) oracle (K the rationals or a quotient field of them) for the
corollary, whose witness the package reports as p^-3 times an operator
over K[x].  ``rings`` still exports the names because the benchmark's
tracer looks up ``FractionElem`` by name.

A "field" (:class:`RationalField`, :class:`QuotientField`) is a small adapter
exposing zero, one, inv and coerce; the elements carry the arithmetic.
A :class:`FractionFieldRing` is not one: it is a coefficient ring of DiffOp.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import RingMismatchError
from .multipoly import DERIVATION_VAR, RingElement, power
from .quotient import QuotientExt, QuotientRing


class RationalField:
    """Adapter for plain Fraction scalars."""

    zero = Fraction(0)
    one = Fraction(1)

    def inv(self, a: Fraction) -> Fraction:
        return Fraction(1) / a

    def coerce(self, a):
        if isinstance(a, (int, Fraction)):
            return Fraction(a)
        raise TypeError(f"not a rational scalar: {a!r}")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class QuotientField:
    """Adapter for Q[z]/(chi) with chi irreducible over Q."""

    def __init__(self, qring: QuotientRing):
        self.qring = qring
        self.zero = qring.zero
        self.one = qring.one
        self.gen = qring.gen

    def inv(self, a: QuotientExt) -> QuotientExt:
        """Extended Euclid in Q[z] against chi; a zero divisor raises ZeroDivisionError."""
        qq = RationalField()
        r0 = UniPoly(qq, self.qring.chi.rational_coeffs(), "z")
        r1 = UniPoly(qq, [c.as_fraction() for c in a.coords], "z")
        s0, s1 = UniPoly(qq, [], "z"), UniPoly.const(qq, 1, "z")
        while not r1.is_zero():  # invariant: s_i * a = r_i mod chi
            quo, rem = r0.divmod(r1)
            r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
        if r0.degree != 0:
            raise ZeroDivisionError("element is a zero divisor in the quotient")
        return self.qring.from_z_coeffs([c / r0.lead() for c in s0.coeffs])

    def coerce(self, a):
        if isinstance(a, QuotientExt):
            if a.ring != self.qring:
                raise RingMismatchError("quotient fields differ")
            return a
        if isinstance(a, (int, Fraction)):
            return self.qring.const(a)
        raise TypeError(f"cannot coerce {a!r}")

    def __eq__(self, other):
        return isinstance(other, QuotientField) and self.qring == other.qring

    def __hash__(self):
        return hash(("qf", self.qring))

    def __repr__(self):
        return f"Frac({self.qring})"


def _is_zero(a) -> bool:
    return a.is_zero() if isinstance(a, QuotientExt) else a == 0


class UniPoly(RingElement):
    """Dense univariate polynomial over a field adapter."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field, coeffs, var=DERIVATION_VAR):
        coeffs = list(coeffs)
        while coeffs and _is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.var = var
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, field, value, var=DERIVATION_VAR):
        return cls(field, [field.coerce(value)], var)

    @classmethod
    def gen(cls, field, var=DERIVATION_VAR):
        return cls(field, [field.zero, field.one], var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for zero

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self):
        return self.coeffs[-1]

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.field != self.field or other.var != self.var:
                raise RingMismatchError("univariate rings differ")
            return other
        try:
            return UniPoly.const(self.field, other, self.var)
        except (TypeError, RingMismatchError):
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [self.field.zero] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return UniPoly(self.field, a, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, [], self.var)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, UniPoly.const(self.field, self.field.one, self.var))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.var, self.coeffs))

    def divmod(self, other: "UniPoly"):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = self.field.inv(other.lead())
        rem = list(self.coeffs)
        qlen = max(0, len(rem) - len(other.coeffs) + 1)
        quo = [self.field.zero] * qlen
        while len(rem) >= len(other.coeffs) and rem:
            f = rem[-1] * inv_lead
            k = len(rem) - len(other.coeffs)
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            while rem and _is_zero(rem[-1]):
                rem.pop()
        return (
            UniPoly(self.field, quo, self.var),
            UniPoly(self.field, rem, self.var),
        )

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.field.inv(self.lead())
        return UniPoly(self.field, [c * inv for c in self.coeffs], self.var)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def derive(self) -> "UniPoly":
        """d/dx; identically zero when the variable is not x."""
        if self.var != DERIVATION_VAR:
            return UniPoly(self.field, [], self.var)
        return UniPoly(self.field, [c * k for k, c in enumerate(self.coeffs)][1:], self.var)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if _is_zero(c):
                continue
            parts.append(f"({c})*{self.var}^{k}" if k else f"({c})")
        return " + ".join(parts)


class FractionFieldRing:
    """Frac(K[var]): differential ring handle for operator coefficients."""

    def __init__(self, field, var=DERIVATION_VAR):
        self.field = field
        self.var = var
        one = UniPoly.const(field, field.one, var)
        self.zero = FractionElem(UniPoly(field, [], var), one, _normalized=True)
        self.one = FractionElem(one, one, _normalized=True)

    def __eq__(self, other):
        return (
            isinstance(other, FractionFieldRing)
            and self.field == other.field
            and self.var == other.var
        )

    def __hash__(self):
        return hash(("fracfield", self.field, self.var))

    def __repr__(self):
        return f"Frac({self.field}[{self.var}])"

    def const(self, value) -> "FractionElem":
        return self.from_poly(UniPoly.const(self.field, value, self.var))

    def from_poly(self, p: UniPoly) -> "FractionElem":
        return FractionElem(p, self.one.den, _normalized=True)

    def gen(self) -> "FractionElem":
        return self.from_poly(UniPoly.gen(self.field, self.var))

    def sum_products(self, triples) -> "FractionElem":
        """Sum of c*a*b over (int c, FractionElem a, FractionElem b) triples."""
        out = self.zero
        for c, a, b in triples:
            term = a * b
            out = out + (term if c == 1 else term * c)
        return out


class FractionElem(RingElement):
    """num/den over K[var], gcd-reduced, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly, _normalized=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = UniPoly.const(num.field, num.field.one, num.var)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
                inv = num.field.inv(den.lead())
                num = UniPoly(num.field, [c * inv for c in num.coeffs], num.var)
                den = den.monic()
        self.num = num
        self.den = den

    @property
    def ring(self) -> FractionFieldRing:
        return FractionFieldRing(self.num.field, self.num.var)

    def _coerce(self, other):
        if isinstance(other, FractionElem):
            if other.num.field != self.num.field or other.num.var != self.num.var:
                raise RingMismatchError("fraction fields differ")
            return other
        if isinstance(other, UniPoly):
            return self.ring.from_poly(other)
        try:
            return self.ring.const(other)
        except (TypeError, RingMismatchError):
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionElem(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return FractionElem(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return FractionElem(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def inverse(self) -> "FractionElem":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FractionElem(self.den, self.num)

    def derive(self) -> "FractionElem":
        # (f/g)' = (f'g - fg') / g^2
        return FractionElem(
            self.num.derive() * self.den - self.num * self.den.derive(),
            self.den * self.den,
        )

    def __repr__(self):
        if self.den.degree == 0 and not self.den.is_zero():
            return repr(self.num)
        return f"({self.num}) / ({self.den})"
