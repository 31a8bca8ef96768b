"""Ordinary differential operators over a differential coefficient ring.

An operator is a finite coefficient list a_0 .. a_n (a_i multiplies the i-th
derivative).  Composition uses the closed Leibniz form

    d^i (b f) = sum_k  C(i, k) b^(k) f^(i-k),

so A*B aggregates per output order instead of shuffling single terms: the
triples (C(i, k), a_i, b_j^(k)) that land on D^m go to one call of the
coefficient ring's kernel ``ring.sum_products``, which returns sum c*a*b
exactly.  Over a polynomial ring the kernel works on integer numerators
keyed by exponent tuple and builds one Fraction per output term; over
Base[z]/(chi) it sums coordinate products by z-power and reduces mod chi
once per output coefficient; over a fraction field it sums c*a*b plainly.
The commutator [A, B] takes the same route without forming A*B and B*A: their
k = 0 terms a_i b_j D^(i+j) cancel, so only the k >= 1 triples of both sides
go to the kernel, one call per output order.
Right Euclidean division is restricted to monic divisors, which keeps
everything division-free and therefore valid over quotient rings with zero
divisors; each quotient term is subtracted from the remainder in place.
"""

from __future__ import annotations

from math import comb

from .errors import NonMonicError, RingMismatchError, TruncationError
from .rings.multipoly import power

NEG_INF = float("-inf")


class DiffOp:
    """Immutable differential operator; the zero operator has order -inf."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ring) -> "DiffOp":
        return cls(ring, [])

    @classmethod
    def identity(cls, ring) -> "DiffOp":
        return cls(ring, [ring.one])

    @classmethod
    def d(cls, ring, order: int = 1) -> "DiffOp":
        """The pure derivative operator of the given order."""
        return cls(ring, [ring.zero] * order + [ring.one])

    @classmethod
    def mult(cls, coeff) -> "DiffOp":
        """Multiplication by a ring element, as an order-0 operator."""
        return cls(coeff.ring, [coeff])

    @property
    def order(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def _check(self, other: "DiffOp"):
        if not isinstance(other, DiffOp):
            raise TypeError(f"expected DiffOp, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("operators over different rings")
        return other

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return DiffOp(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        """Multiply every coefficient by c, a ring element or a rational."""
        return DiffOp(self.ring, [c * a for a in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, DiffOp) or other.ring != self.ring:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    # -- composition and commutator ---------------------------------------

    def __mul__(self, other):
        """Operator composition self after other."""
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return DiffOp.zero(self.ring)
        db = _derivative_table(other.coeffs, len(self.coeffs) - 1)
        groups = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                _leibniz(groups, 1, a, i, db)
        return DiffOp(self.ring, [self.ring.sum_products(g) for g in groups])

    def __pow__(self, n: int):
        return power(self, n, DiffOp.identity(self.ring))

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """[self, other] = self*other - other*self, in one pass.

        The k = 0 Leibniz terms a_i b_j D^(i+j) of the two products cancel,
        so only k >= 1 is formed: the D^m coefficient is the sum over
        i + j - k = m of C(i, k) a_i b_j^(k) - C(j, k) b_j a_i^(k), one
        kernel call per output order and no subtraction pass.
        """
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return DiffOp.zero(self.ring)
        na, nb = len(self.coeffs), len(other.coeffs)
        da = _derivative_table(self.coeffs, nb - 1)
        db = _derivative_table(other.coeffs, na - 1)
        groups = [[] for _ in range(na + nb - 2)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                _leibniz(groups, 1, a, i, db, first=1)
        for j, b in enumerate(other.coeffs):
            if not b.is_zero():
                _leibniz(groups, -1, b, j, da, first=1)
        return DiffOp(self.ring, [self.ring.sum_products(g) for g in groups])

    # -- division and conjugation ------------------------------------------

    def right_divmod(self, divisor: "DiffOp"):
        """Q, R with self = Q*divisor + R and order(R) < order(divisor).

        The divisor must be monic; no coefficient inverses are needed, so the
        division is valid over any commutative differential ring.  Each
        quotient term c*D^e is subtracted from the remainder in place, one
        kernel sum per remainder coefficient it touches.
        """
        divisor = self._check(divisor)
        if not divisor.is_monic():
            raise NonMonicError("right division requires a monic divisor")
        ring = self.ring
        d = divisor.order
        rem = list(self.coeffs)
        quo = [ring.zero] * max(len(rem) - d, 0)
        # the leading coefficient of divisor is 1, so c*D^e*divisor cancels
        # rem[e + d] exactly; only the lower coefficients need the kernel
        lower = divisor.coeffs[:-1]
        db = _derivative_table(lower, len(quo) - 1)
        for e in range(len(quo) - 1, -1, -1):
            c = rem[e + d]
            if c.is_zero():
                continue
            quo[e] = c
            rem[e + d] = ring.zero
            groups = [[] for _ in range(e + d)]
            _leibniz(groups, -1, c, e, db)
            for m, g in enumerate(groups):
                if g:
                    rem[m] = rem[m] + ring.sum_products(g)
        return DiffOp(ring, quo), DiffOp(ring, rem)

    def conjugate_by_unit(self, p) -> "DiffOp":
        """p^-1 * self * p for a unit p of the coefficient ring."""
        if p.is_zero():
            raise ZeroDivisionError("conjugation by zero")
        p_inv = p.inverse()
        return (self * DiffOp.mult(p)).scale(p_inv)

    # -- action on series ----------------------------------------------------

    def apply_to_poly(self, f):
        """Act on a ring element by repeated derivation (oracle-grade path)."""
        out = self.ring.zero
        for a in self.coeffs:
            out = out + a * f
            f = f.derive()
        return out

    def apply_to_series(self, f: "PowerSeries", x_split) -> "PowerSeries":
        """Act on a truncated series.

        ``x_split(coeff)`` expands an operator coefficient as a list of
        (x-power, series-ring element) pairs.  Output truncation drops by the
        operator order, per the contract.
        """
        n = self.order
        if self.is_zero():
            return PowerSeries(f.ring, [f.ring.zero] * (f.trunc + 1))
        if f.trunc < n:
            raise TruncationError(f"series truncation {f.trunc} < order {n}")
        out_trunc = f.trunc - n
        out = [f.ring.zero] * (out_trunc + 1)
        deriv = f
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for s, c in x_split(a):
                    for k, fc in enumerate(deriv.coeffs):
                        m = k + s
                        if m <= out_trunc:
                            out[m] = out[m] + c * fc
            deriv = deriv.derive()
        return PowerSeries(f.ring, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            d = f"D^{i}" if i > 1 else ("D" if i == 1 else "")
            if i == 0:
                parts.append(f"({c})")
            elif c == self.ring.one:
                parts.append(d)
            else:
                parts.append(f"({c})*{d}")
        return " + ".join(parts)


def _derivative_table(coeffs, n: int) -> list:
    """table[k][j]: the k-th derivative of coeffs[j], for k = 0 .. n."""
    table = [list(coeffs)]
    for _ in range(n):
        table.append([c.derive() for c in table[-1]])
    return table


def _leibniz(groups, sign: int, a, i: int, db, first: int = 0) -> None:
    """Append the triples of sign * a D^i * (sum_j b_j D^j) to groups[order].

    d^i (b f) = sum_k C(i, k) b^(k) f^(i-k), so the term a*C(i,k)*b_j^(k)
    lands on D^(i+j-k); ``db[k][j]`` holds b_j^(k).  Only k >= ``first``
    is formed.
    """
    for k in range(first, i + 1):
        c = sign * comb(i, k)
        for j, b in enumerate(db[k]):
            if not b.is_zero():
                groups[i + j - k].append((c, a, b))


class PowerSeries:
    """Truncated formal series sum c_k x^k + O(x^(trunc+1)) over a ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k]

    def __add__(self, other):
        if other.ring != self.ring:
            raise RingMismatchError("series over different rings")
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries(
            self.ring, [self.coeffs[k] + other.coeffs[k] for k in range(n)]
        )

    def __sub__(self, other):
        if other.ring != self.ring:
            raise RingMismatchError("series over different rings")
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries(
            self.ring, [self.coeffs[k] - other.coeffs[k] for k in range(n)]
        )

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(self.ring, [c * a for a in self.coeffs])

    def derive(self) -> "PowerSeries":
        if not self.coeffs:
            raise TruncationError("cannot differentiate an empty series")
        out = [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        return PowerSeries(self.ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        parts = [
            f"({c})*x^{k}" if k else f"({c})"
            for k, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.trunc + 1})"

