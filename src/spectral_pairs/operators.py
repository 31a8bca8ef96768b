"""Ordinary differential operators over a differential coefficient ring.

An operator is a finite coefficient list a_0 .. a_n (a_i multiplies the i-th
derivative).  Composition uses the closed Leibniz form

    d^i (b f) = sum_k  C(i, k) b^(k) f^(i-k),

so A*B aggregates per output order instead of shuffling single terms.  Right
Euclidean division is restricted to monic divisors, which keeps everything
division-free and therefore valid over quotient rings with zero divisors.
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
        """Multiply every coefficient by a ring element (left multiplication)."""
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
        # db[k][j]: k-th derivative of other's j-th coefficient
        na, nb = len(self.coeffs), len(other.coeffs)
        db = [list(other.coeffs)]
        for _ in range(na - 1):
            db.append([c.derive() for c in db[-1]])
        out = [self.ring.zero] * (na + nb - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k in range(i + 1):
                c_ik = comb(i, k)
                row = db[k]
                for j, b in enumerate(row):
                    if b.is_zero():
                        continue
                    term = a * b
                    if c_ik != 1:
                        term = term * c_ik
                    m = i + j - k
                    out[m] = out[m] + term
        return DiffOp(self.ring, out)

    def __pow__(self, n: int):
        return power(self, n, DiffOp.identity(self.ring))

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self * other - other * self

    # -- division and conjugation ------------------------------------------

    def right_divmod(self, divisor: "DiffOp"):
        """Q, R with self = Q*divisor + R and order(R) < order(divisor).

        The divisor must be monic; no coefficient inverses are needed, so the
        division is valid over any commutative differential ring.
        """
        divisor = self._check(divisor)
        if not divisor.is_monic():
            raise NonMonicError("right division requires a monic divisor")
        q = DiffOp.zero(self.ring)
        r = self
        d = divisor.order
        while not r.is_zero() and r.order >= d:
            e = r.order - d
            step = DiffOp(self.ring, [self.ring.zero] * e + [r.coeffs[-1]])
            q = q + step
            r = r - step * divisor
        return q, r

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


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    return a * b


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return a.commutator(b)


def right_divide(n: DiffOp, d: DiffOp):
    return n.right_divmod(d)


def conjugate_by_unit(op: DiffOp, p) -> DiffOp:
    return op.conjugate_by_unit(p)
