"""Ordinary differential operators over a differential coefficient ring.

An operator is a finite coefficient list a_0 .. a_n (a_i multiplies the i-th
derivative).  Every product of operators here rests on the closed Leibniz form

    (a D^i) (b D^j) = sum_k C(i, k) a b^(k) D^(i+j-k),

and one function, :func:`_leibniz`, forms its triples (C(i, k), a, b_j^(k))
and appends each to the list of its output order.  b_j enters as its list of
derivatives up to the first zero one (:func:`_derivatives`), so a polynomial
coefficient of degree d costs d + 1 derivations however long the other
operand is.  Each output order's list then goes to one call of the
coefficient ring's kernel ``ring.sum_products``, which returns sum c*a*b
exactly.  Over a polynomial ring the kernel works on each element's integer
normal form, one dense list in one variable and keyed by exponent tuple
otherwise; over Base[z]/(chi) it folds every z^k with k >= deg chi into the
lower coordinates inside the base kernel's sums, one call per coordinate;
over a fraction field it sums c*a*b plainly.
The commutator [A, B] takes the same route without forming A*B and B*A: their
k = 0 terms a_i b_j D^(i+j) cancel, so only the k >= 1 triples of both sides
are formed.  The partner search of :mod:`centralizer` builds its commutator
coefficients with the same function.
Right Euclidean division is restricted to monic divisors, which keeps
everything division-free and therefore valid over quotient rings with zero
divisors.  It solves for the quotient from the top order down, appending
each quotient coefficient's triples as soon as it is solved, so each
quotient and remainder coefficient is one kernel sum.
A polynomial sum_i c_i a^i in an operator, with operator coefficients c_i,
is formed by the package's one Horner, :func:`rings.multipoly.horner`, as
acc*a + c from the zero operator: ``a`` is composed on the right.
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
        cols = _columns(other.coeffs, len(self.coeffs) - 1)
        groups = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                _leibniz(groups, 1, a, i, cols)
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
        cols_a = _columns(self.coeffs, nb - 1)
        cols_b = _columns(other.coeffs, na - 1)
        groups = [[] for _ in range(na + nb - 2)]
        for i, da in cols_a:
            _leibniz(groups, 1, da[0], i, cols_b, first=1)
        for j, db in cols_b:
            _leibniz(groups, -1, db[0], j, cols_a, first=1)
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

        and r_m (m < d) is s_m less the same sum over every e'.  The list
        of order m starts as the triple (1, s_m, 1), and as soon as q_e is
        solved the triples of -q_e D^e * (divisor - D^d) join the lower
        orders, so each list is complete when its coefficient is summed.
        """
        divisor = self._check(divisor)
        if not divisor.is_monic():
            raise NonMonicError("right division requires a monic divisor")
        ring = self.ring
        d = divisor.order
        n_quo = max(len(self.coeffs) - d, 0)
        cols = _columns(divisor.coeffs[:-1], n_quo - 1)
        groups = [[(1, c, ring.one)] for c in self.coeffs]
        groups += [[] for _ in range(d - len(groups))]
        quo = [ring.zero] * n_quo
        for e in range(n_quo - 1, -1, -1):
            quo[e] = ring.sum_products(groups[e + d])
            if not quo[e].is_zero():
                _leibniz(groups, -1, quo[e], e, cols)
        return DiffOp(ring, quo), DiffOp(ring, [ring.sum_products(g) for g in groups[:d]])

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


def _derivatives(p, n: int) -> list:
    """[p, p', ..., p^(n)], cut before the first zero derivative ([] for 0)."""
    out = []
    while not p.is_zero():
        out.append(p)
        if len(out) > n:
            break
        p = p.derive()
    return out


def _columns(coeffs, n: int) -> list:
    """(j, derivatives of b_j up to order n) for the nonzero coefficients b_j."""
    return [(j, db) for j, b in enumerate(coeffs) if (db := _derivatives(b, n))]


def _leibniz(groups, sign: int, a, i: int, cols, first: int = 0) -> None:
    """Append the triples of sign * a D^i * (sum_j b_j D^j) to groups[order].

    d^i (b f) = sum_k C(i, k) b^(k) f^(i-k), so the term a*C(i,k)*b_j^(k)
    lands on D^(i+j-k); ``cols`` holds (j, [b_j, b_j', ...]) as from
    :func:`_columns`, and a list that stops early means the derivatives past
    it are zero.  Only k >= ``first`` is formed.
    """
    for j, db in cols:
        for k in range(first, min(i + 1, len(db))):
            groups[i + j - k].append((sign * comb(i, k), a, db[k]))
