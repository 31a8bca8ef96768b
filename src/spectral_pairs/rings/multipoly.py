"""Multivariate polynomials over exact rationals.

Terms map exponent vectors (tuples, one entry per ring variable) to nonzero
Fraction coefficients, so equality is structural.  Variables declared
"laurent" may carry negative exponents; all others are ordinary polynomial
variables.  The derivation differentiates the variable named ``x`` and
treats every other variable as a constant, except that a variable named
``t`` stands for exp(x/2), so D(t^k) = (k/2) t^k.

In a ring with one ordinary variable (Q[x], and the Q[z] of the kernel
basis) arithmetic works on one pair (d, [n_0, n_1, ...]) per element, for
sum n_e x^e / d in normal form: d > 0, no trailing zero and gcd(d, n_0,
n_1, ...) = 1, so zero is (1, []) and equal polynomials have equal pairs.
Terms are built from the pair, in ascending exponent order, when read.
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
        # one ordinary variable: arithmetic on the normal-form pair
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
        p = object.__new__(MultiPoly)
        p.ring, p._terms, p._ints = self, None, (den, nums)
        return p

    def sum_products(self, triples) -> "MultiPoly":
        """Sum of c*a*b over (int c, MultiPoly a, MultiPoly b) triples, exactly.

        Every factor enters as integer numerators over its own common
        denominator (cleared once per element and kept on it), every product
        is scaled to the lcm of the products' denominators, and the loop
        multiplies and adds Python ints keyed by exponent tuple: one Fraction
        is built per output term, not one per term pair.
        """
        if self._dense:
            return self.from_dense(*_dense_sum_products(triples))
        parts = []
        den = 1
        for c, a, b in triples:
            da, na = a._cleared()
            db, nb = b._cleared()
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
        return MultiPoly(self, {e: Fraction(n, den) for e, n in acc.items()})


class MultiPoly:
    """Element of a :class:`PolyRing`.  Immutable after construction.

    It holds its Fraction ``terms``, its integer form (:meth:`_cleared`) or
    both, each built from the other on first use.  In one ordinary variable
    arithmetic works on the integer form, so terms are built only when read.
    """

    __slots__ = ("ring", "_terms", "_ints")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring, self._terms, self._ints = ring, terms, None

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero Fraction}."""
        if self._terms is None:
            den, nums = self._ints
            self._terms = {(e,): Fraction(c, den) for e, c in enumerate(nums) if c}
        return self._terms

    def dense(self) -> tuple:
        """The pair (d, [n_0, n_1, ...]) in one ordinary variable; do not change it."""
        return self._cleared()

    def _cleared(self):
        """(d, ints) with self = ints / d, d the lcm of the denominators: in one
        variable a list, and the normal-form pair, as the Fractions are reduced."""
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
        if self.ring._dense:
            (da, na), (db, nb) = self._cleared(), other._cleared()
            if not (na and nb):
                return other if nb else self
            d = lcm(da, db)
            sa, sb = d // da, d // db
            return self.ring.from_dense(d, [a * sa + b * sb
                                            for a, b in zip_longest(na, nb, fillvalue=0)])
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        if self.ring._dense:
            return self.ring.sum_products(((-1, self, self.ring.one),))
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            if self.ring._dense:
                den, nums = self._cleared()
                return self.ring.from_dense(den * other.denominator,
                                            [c * other.numerator for c in nums])
            return MultiPoly(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.sum_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, self.ring.one)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly) or other.ring != self.ring:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not (self._ints[1] if self._terms is None else self._terms)

    # -- derivation -------------------------------------------------------

    def derive(self) -> "MultiPoly":
        """D = d/dx + (t/2) d/dt; every other variable is a constant."""
        ix, it = self.ring._x, self.ring._t
        if self.ring._dense and ix is not None:
            den, nums = self._cleared()
            return self.ring.from_dense(den, [c * e for e, c in enumerate(nums)][1:])
        parts = []
        for e, c in self.terms.items():
            if ix is not None and e[ix]:
                parts.append((e[:ix] + (e[ix] - 1,) + e[ix + 1:], c * e[ix]))
            if it is not None and e[it]:
                parts.append((e, c * Fraction(e[it], 2)))
        terms: dict = {}
        for e, c in parts:
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiPoly(self.ring, terms)

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
