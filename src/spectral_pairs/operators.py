"""Ordinary differential operators over a differential coefficient ring.

An operator is a finite coefficient list a_0 .. a_n (a_i multiplies the i-th
derivative).  Composition uses the closed Leibniz form

    d^i (b f) = sum_k  C(i, k) b^(k) f^(i-k),

so A*B aggregates per output order instead of shuffling single terms: the
triples (C(i, k), a_i, b_j^(k)) that land on D^m go to one call of the
coefficient ring's kernel ``ring.sum_products``, which returns sum c*a*b
exactly.  Over a polynomial ring the kernel works on each element's integer
normal form, one dense list in one variable and keyed by exponent tuple
otherwise; over Base[z]/(chi) it folds every z^k with k >= deg chi into the
lower coordinates inside the base kernel's sums, one call per coordinate;
over a fraction field it sums c*a*b plainly.
The commutator [A, B] takes the same route without forming A*B and B*A: their
k = 0 terms a_i b_j D^(i+j) cancel, so only the k >= 1 triples of both sides
go to the kernel, one call per output order.
Right Euclidean division is restricted to monic divisors, which keeps
everything division-free and therefore valid over quotient rings with zero
divisors.  It solves for the quotient from the top order down, and each
quotient and remainder coefficient is one kernel sum.
"""

from __future__ import annotations

from math import comb

from .errors import NonMonicError, RingMismatchError
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

        The divisor D^d + sum_(j<d) b_j D^j must be monic; no coefficient
        inverses are needed, so the division is valid over any commutative
        differential ring.  With self = sum s_m D^m, the D^m coefficient of
        Q*divisor is q_(m-d) plus sum C(e, k) q_e b_j^(k) over e + j - k = m,
        where only e > m - d occurs.  So, from the top order down,

            q_e = s_(e+d) - sum_(e'>e) sum_j C(e', k) q_e' b_j^(k),
            k = e' + j - e - d,

        and r_m (m < d) is s_m less the same sum over every e'.  Each
        coefficient is one kernel sum, with s_m entering as (1, s_m, 1).
        """
        divisor = self._check(divisor)
        if not divisor.is_monic():
            raise NonMonicError("right division requires a monic divisor")
        ring = self.ring
        d = divisor.order
        s = self.coeffs
        n_quo = max(len(s) - d, 0)
        lower = divisor.coeffs[:-1]
        db = _derivative_table(lower, n_quo - 1)
        solved = []  # (e, q_e) for the nonzero quotient coefficients found so far

        def reduced(m):
            """s_m less the D^m coefficient of sum_(solved e) q_e D^e * lower."""
            triples = [(1, s[m], ring.one)] if m < len(s) else []
            for e, q in solved:
                # k = e + j - m runs over 0 .. e, with 0 <= j < d
                for j in range(max(m - e, 0), min(m + 1, d)):
                    b = db[e + j - m][j]
                    if not b.is_zero():
                        triples.append((-comb(e, e + j - m), q, b))
            return ring.sum_products(triples) if triples else ring.zero

        quo = [ring.zero] * n_quo
        for e in range(n_quo - 1, -1, -1):
            quo[e] = reduced(e + d)
            if not quo[e].is_zero():
                solved.append((e, quo[e]))
        return DiffOp(ring, quo), DiffOp(ring, [reduced(m) for m in range(d)])

    def conjugate_by_unit(self, p) -> "DiffOp":
        """p^-1 * self * p for a unit p of the coefficient ring."""
        if p.is_zero():
            raise ZeroDivisionError("conjugation by zero")
        p_inv = p.inverse()
        return (self * DiffOp.mult(p)).scale(p_inv)

    # -- action on functions -------------------------------------------------

    def apply_to_poly(self, f):
        """Act on a ring element by repeated derivation (oracle-grade path)."""
        out = self.ring.zero
        for a in self.coeffs:
            out = out + a * f
            f = f.derive()
        return out

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


def _horner(coeffs, a: DiffOp) -> DiffOp:
    """sum_i coeffs[i] a^i for operators coeffs[i], by Horner with each
    coefficient on the left: acc = acc * a + c."""
    acc = DiffOp.zero(a.ring)
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


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

