"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict mapping exponent vectors (tuples, one entry per
ring variable) to nonzero Fraction coefficients, so equality is structural.
Variables declared "laurent" may carry negative exponents; all others are
ordinary polynomial variables.  The derivation differentiates the variable
named ``x`` and treats every other variable as a constant, except that a
variable named ``t`` stands for exp(x/2), so D(t^k) = (k/2) t^k.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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

    def sum_products(self, triples) -> "MultiPoly":
        """Sum of c*a*b over (int c, MultiPoly a, MultiPoly b) triples, exactly.

        Every factor enters as integer numerators over its own common
        denominator (cleared once per element and kept on it), every product
        is scaled to the lcm of the products' denominators, and the loop
        multiplies and adds Python ints keyed by exponent tuple: one Fraction
        is built per output term, not one per term pair.
        """
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
    """Element of a :class:`PolyRing`.  Immutable after construction."""

    __slots__ = ("ring", "terms", "_ints")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._ints = None

    def _cleared(self):
        """(d, {exponent: int}) with self = {exponent: int} / d, d the lcm."""
        if self._ints is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            self._ints = (
                den,
                {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()},
            )
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
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingMismatchError(f"{other.ring} != {self.ring}")
        elif isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly(self.ring, {})
            return MultiPoly(self.ring, {e: c * other for e, c in self.terms.items()})
        else:
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
        return not self.terms

    # -- derivation -------------------------------------------------------

    def derive(self) -> "MultiPoly":
        """D = d/dx + (t/2) d/dt; every other variable is a constant."""
        ix, it = self.ring._x, self.ring._t
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
        for e, c in self.terms.items():
            k = e[i]
            re = e[:i] + e[i + 1:]
            bucket = out.setdefault(k, {})
            bucket[re] = bucket.get(re, 0) + c
        return {k: rest.from_terms(t) for k, t in out.items()}

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
