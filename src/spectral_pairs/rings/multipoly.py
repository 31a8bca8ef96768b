"""Multivariate polynomials over exact rationals.

Terms map exponent vectors (tuples, one entry per ring variable) to nonzero
Fraction coefficients.  Variables declared "laurent" may carry negative
exponents; all others are ordinary polynomial variables.  The derivation
differentiates the variable named ``x`` and treats every other variable as a
constant, except that a variable named ``t`` stands for exp(x/2), so
D(t^k) = (k/2) t^k.

Arithmetic, equality and hashing work on one integer normal form per
element, the pair (d, nums) for nums / d with d > 0 and gcd(d, nums) = 1:

- in a ring with one ordinary variable (Q[x], and the Q[z] of the kernel
  basis) nums is the dense list [n_0, n_1, ...] with no trailing zero, for
  sum n_e v^e / d, so zero is (1, []);
- in every other ring nums is a dict {exponent tuple: nonzero int}, so zero
  is (1, {}).

The normal form is unique, so equal polynomials have equal pairs.  Terms are
built from the pair when read, in ascending exponent order in one variable
and in the order the kernel first met each exponent otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import add

from ..errors import RingMismatchError

DERIVATION_VAR = "x"
EXP_HALF_VAR = "t"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def power(base, n: int, one):
    """base ** n by square-and-multiply, starting from ``one``."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def horner(coeffs, value, zero):
    """sum_i coeffs[i] value^i by Horner, acc = acc * value + c, from ``zero``."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


class RingElement:
    """Coerced subtraction and :func:`power` for an exact ring element, from
    its ``_coerce``, ``+``, unary ``-`` and ``*`` (and ``ring.one``)."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __pow__(self, n: int):
        return power(self, n, self.ring.one)


def _dense_sum_products(triples) -> tuple:
    """(den, nums) for sum c p q over (int c, p, q) in one ordinary variable.

    Each product is scaled to the lcm of the products' denominators, so the
    loop multiplies and adds Python ints.
    """
    parts = []
    for c, p, q in triples:
        (dp, np), (dq, nq) = p._ints or p._cleared(), q._ints or q._cleared()
        if c and np and nq:
            parts.append((c, dp * dq, np, nq) if len(np) <= len(nq) else (c, dp * dq, nq, np))
    den = lcm(*[d for _, d, _, _ in parts])
    acc = [0] * max([len(np) + len(nq) - 1 for _, _, np, nq in parts], default=0)
    for c, d, np, nq in parts:
        scale = c * (den // d)
        for s, a in enumerate(np):
            if a:
                a *= scale
                for t, b in enumerate(nq, s):
                    acc[t] += a * b
    return den, acc


class PolyRing:
    """A polynomial (optionally partly Laurent) ring over ℚ with the derivation D."""

    def __init__(self, variables=(), laurent=()):
        self.variables = tuple(variables)
        self.laurent = frozenset(laurent)
        if not self.laurent <= set(self.variables):
            raise ValueError("laurent variables must be ring variables")
        self._zero_exp = (0,) * len(self.variables)
        self._x = self._index(DERIVATION_VAR)
        self._t = self._index(EXP_HALF_VAR)
        # one ordinary variable: the normal-form pair holds a dense list
        self._dense = len(self.variables) == 1 and not self.laurent
        self.zero = MultiPoly(self, {})
        self.one = MultiPoly(self, {self._zero_exp: Fraction(1)})

    def _index(self, name):
        return self.variables.index(name) if name in self.variables else None

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.laurent == other.laurent
        )

    def __hash__(self):
        return hash((self.variables, self.laurent))

    def __repr__(self):
        lau = f", laurent={sorted(self.laurent)}" if self.laurent else ""
        return f"PolyRing({list(self.variables)}{lau})"

    def const(self, value) -> "MultiPoly":
        q = _as_fraction(value)
        if q == 0:
            return self.zero
        return MultiPoly(self, {self._zero_exp: q})

    def var(self, name: str, power: int = 1) -> "MultiPoly":
        i = self.variables.index(name)
        if power < 0 and name not in self.laurent:
            raise ValueError(f"negative power of non-laurent variable {name}")
        exp = list(self._zero_exp)
        exp[i] = power
        return MultiPoly(self, {tuple(exp): Fraction(1)})

    def from_terms(self, terms) -> "MultiPoly":
        clean = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        return MultiPoly(self, clean)

    def from_dense(self, den: int, nums) -> "MultiPoly":
        """sum nums[e] v^e / den (den > 0) in normal form, v the one ordinary
        variable; the list ``nums`` is taken over."""
        if not self._dense:
            raise ValueError(f"not a ring in one ordinary variable: {self}")
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g > 1:
            den, nums = den // g, [c // g for c in nums]
        return _from_ints(self, den, nums)

    def _from_sparse(self, den: int, nums: dict) -> "MultiPoly":
        """sum nums[e] * prod v^e / den (den > 0) in normal form, outside one
        ordinary variable; the dict ``nums`` of nonzero ints is taken over."""
        g = gcd(den, *nums.values())
        if g > 1:
            den, nums = den // g, {e: c // g for e, c in nums.items()}
        return _from_ints(self, den, nums)

    def sum_products(self, triples) -> "MultiPoly":
        """Sum of c*a*b over (int c, MultiPoly a, MultiPoly b) triples, exactly.

        Every factor enters as its normal-form pair, every product is scaled
        to the lcm of the products' denominators, and the loop multiplies and
        adds Python ints, into a dense list in one ordinary variable and keyed
        by exponent tuple otherwise.  The result is the normal-form pair of
        the sum: no Fraction is built.
        """
        if self._dense:
            return self.from_dense(*_dense_sum_products(triples))
        parts = []
        den = 1
        for c, a, b in triples:
            (da, na), (db, nb) = a._cleared(), b._cleared()
            if c and na and nb:
                parts.append((c, da * db, na, nb))
                den = lcm(den, da * db)
        acc: dict = {}
        get, pop = acc.get, acc.pop
        for c, d, na, nb in parts:
            scale = c * (den // d)
            for e1, n1 in na.items():
                m1 = scale * n1
                for e2, n2 in nb.items():
                    e = tuple(map(add, e1, e2))
                    s = get(e, 0) + m1 * n2
                    if s:
                        acc[e] = s
                    else:
                        pop(e, None)
        return self._from_sparse(den, acc)


def _add_term(acc: dict, e, value: int) -> None:
    """acc[e] += value, dropping the entry when the sum is zero."""
    s = acc.get(e, 0) + value
    if s:
        acc[e] = s
    else:
        acc.pop(e, None)


def _from_ints(ring: PolyRing, den: int, nums) -> "MultiPoly":
    """The element of ``ring`` whose normal-form pair is (den, nums)."""
    p = object.__new__(MultiPoly)
    p.ring, p._terms, p._ints = ring, None, (den, nums)
    return p


class MultiPoly(RingElement):
    """Element of a :class:`PolyRing`.  Immutable after construction.

    It holds its Fraction ``terms``, its normal-form pair (:meth:`_cleared`)
    or both, each built from the other on first use.  Arithmetic, ``==`` and
    ``hash`` work on the pair, so terms are built only when read.
    """

    __slots__ = ("ring", "_terms", "_ints")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring, self._terms, self._ints = ring, terms, None

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero Fraction}."""
        if self._terms is None:
            den, nums = self._ints
            if self.ring._dense:
                self._terms = {(e,): Fraction(c, den) for e, c in enumerate(nums) if c}
            else:
                self._terms = {e: Fraction(c, den) for e, c in nums.items()}
        return self._terms

    def dense(self) -> tuple:
        """The pair (d, [n_0, n_1, ...]) in one ordinary variable; do not change it."""
        return self._cleared()

    def _cleared(self):
        """The normal-form pair (d, nums) with self = nums / d: a dense list in
        one ordinary variable, a dict by exponent tuple otherwise.  Built from
        the terms, d is the lcm of their reduced denominators, so
        gcd(d, nums) = 1."""
        if self._ints is None:
            terms = self._terms
            den = lcm(*[c.denominator for c in terms.values()])
            ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
            if self.ring._dense:
                ints = [ints.get((e,), 0) for e in range(max(terms)[0] + 1)] if terms else []
            self._ints = den, ints
        return self._ints

    # -- basic ring operations -------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingMismatchError(f"{other.ring} != {self.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (da, na), (db, nb) = self._cleared(), other._cleared()
        if not (na and nb):
            return other if nb else self
        d = lcm(da, db)
        sa, sb = d // da, d // db
        if self.ring._dense:
            return self.ring.from_dense(d, [a * sa + b * sb
                                            for a, b in zip_longest(na, nb, fillvalue=0)])
        acc = {e: c * sa for e, c in na.items()}
        for e, c in nb.items():
            _add_term(acc, e, c * sb)
        return self.ring._from_sparse(d, acc)

    __radd__ = __add__

    def __neg__(self):
        den, nums = self._cleared()
        if self.ring._dense:
            return _from_ints(self.ring, den, [-c for c in nums])
        return _from_ints(self.ring, den, {e: -c for e, c in nums.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            den, nums = self._cleared()
            den, num = den * other.denominator, other.numerator
            if self.ring._dense:
                return self.ring.from_dense(den, [c * num for c in nums])
            return self.ring._from_sparse(den, {e: c * num for e, c in nums.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.sum_products(((1, self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly) or (other.ring is not self.ring
                                                and other.ring != self.ring):
            return NotImplemented
        return self._cleared() == other._cleared()

    def __hash__(self):
        den, nums = self._cleared()
        key = tuple(nums) if self.ring._dense else frozenset(nums.items())
        return hash((self.ring, den, key))

    def is_zero(self) -> bool:
        return not (self._ints[1] if self._terms is None else self._terms)

    # -- derivation -------------------------------------------------------

    def derive(self) -> "MultiPoly":
        """D = d/dx + (t/2) d/dt; every other variable is a constant."""
        ring = self.ring
        ix, it = ring._x, ring._t
        den, nums = self._cleared()
        if ring._dense:
            if ix is not None:
                return ring.from_dense(den, [c * e for e, c in enumerate(nums)][1:])
            if it is not None:
                return ring.from_dense(2 * den, [c * e for e, c in enumerate(nums)])
            return ring.zero
        # over 2d when t is a variable: D(x^a t^b) = (2a x^(a-1) t^b + b x^a t^b) / 2
        half = 1 if it is None else 2
        acc: dict = {}
        for e, c in nums.items():
            if ix is not None and e[ix]:
                _add_term(acc, e[:ix] + (e[ix] - 1,) + e[ix + 1:], half * c * e[ix])
            if it is not None and e[it]:
                _add_term(acc, e, c * e[it])
        return ring._from_sparse(half * den, acc)

    def inverse(self) -> "MultiPoly":
        """Inverse of a unit: a nonzero constant times Laurent variables."""
        if len(self.terms) != 1:
            raise ZeroDivisionError(f"not a unit: {self}")
        (e, c), = self.terms.items()
        names = self.ring.variables
        if any(k and names[i] not in self.ring.laurent for i, k in enumerate(e)):
            raise ZeroDivisionError(f"not a unit: {self}")
        return MultiPoly(self.ring, {tuple(-k for k in e): 1 / c})

    # -- structure queries --------------------------------------------------

    def degree_in(self, name: str) -> int:
        """Largest exponent of ``name``; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.ring.variables.index(name)
        return max(e[i] for e in self.terms)

    def coefficients_in(self, name: str) -> dict:
        """Split into {exponent of name: MultiPoly without that variable}."""
        i = self.ring.variables.index(name)
        rest_vars = self.ring.variables[:i] + self.ring.variables[i + 1:]
        rest = PolyRing(rest_vars, self.ring.laurent - {name})
        out: dict = {}
        for e, c in self.terms.items():  # distinct exponents: nothing to add up
            out.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {k: MultiPoly(rest, t) for k, t in out.items()}

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring._zero_exp, Fraction(0))

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial; raises if non-constant."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {self.ring._zero_exp}:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[self.ring._zero_exp]

    # -- mapping between rings ----------------------------------------------

    def map_to(self, target: PolyRing) -> "MultiPoly":
        """Embed into a ring containing (by name) all variables used here."""
        idx = [target.variables.index(v) for v in self.ring.variables]
        zero = (0,) * len(target.variables)
        terms = {}
        for e, c in self.terms.items():
            ne = list(zero)
            for j, k in zip(idx, e):
                ne[j] = k
            terms[tuple(ne)] = c
        return MultiPoly(target, terms)

    def subs(self, values: dict, target: PolyRing | None = None) -> "MultiPoly":
        """Substitute exact rationals for some variables.

        Remaining variables must all exist in ``target`` (defaults to the
        ring spanned by the untouched variables, in order).
        """
        vals = {name: _as_fraction(v) for name, v in values.items()}
        keep = [v for v in self.ring.variables if v not in vals]
        if target is None:
            target = PolyRing(keep, self.ring.laurent & set(keep))
        out = target.zero
        for e, c in self.terms.items():
            coeff = c
            ne = [0] * len(target.variables)
            for name, k in zip(self.ring.variables, e):
                if k == 0:
                    continue
                if name in vals:
                    base = vals[name]
                    if base == 0 and k < 0:
                        raise ZeroDivisionError(f"{name}=0 with negative exponent")
                    coeff *= base ** k
                else:
                    ne[target.variables.index(name)] = k
            if coeff != 0:
                out = out + MultiPoly(target, {tuple(ne): coeff})
        return out

    # -- display -------------------------------------------------------------

    def _sorted_terms(self):
        # graded lexicographic on the fixed variable order
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = [
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(self.ring.variables, e)
                if k != 0
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
