"""Bivariate spectral curves R(z, w) with exact rational coefficients.

The curve of a commuting pair is the squarefree part of the characteristic
polynomial det(w*I - A(z)) of the action of the second operator on the formal
kernel of the first.  Squarefree reduction is an exact gcd against the
w-derivative, carried out over the rational-function field Q(z).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RingMismatchError
from .operators import DiffOp
from .rings import MultiPoly, PolyRing
from .rings.fraction_field import FractionFieldRing, RationalField, UniPoly

_QQ = RationalField()
_ZW = PolyRing(("z", "w"))


class SpectralCurve(MultiPoly):
    """R(z, w) in Q[z, w]; ``terms`` maps (z_power, w_power) to a Fraction.

    Arithmetic is :class:`MultiPoly`'s and returns plain MultiPoly values
    over the same ring; wrap ``terms`` to get a curve back.
    """

    __slots__ = ()

    def __init__(self, terms: dict):
        super().__init__(_ZW, {k: Fraction(v) for k, v in terms.items() if v != 0})

    def w_degree(self) -> int:
        return self.degree_in("w")

    def z_degree(self) -> int:
        return self.degree_in("z")

    def w_slice(self, j: int) -> list:
        """Coefficient of w^j as a dense z-coefficient list."""
        top = max((i for (i, jj) in self.terms if jj == j), default=-1)
        out = [Fraction(0)] * (top + 1)
        for (i, jj), c in self.terms.items():
            if jj == j:
                out[i] = c
        return out

    def eval_at_operators(self, a: DiffOp, b: DiffOp) -> DiffOp:
        """Substitute z -> a, w -> b monomial-wise; requires [a, b] = 0."""
        a_pows = _powers(a, self.z_degree())
        b_pows = _powers(b, self.w_degree())
        out = DiffOp.zero(a.ring)
        for (i, j), c in self.terms.items():
            if j == 0:
                op = a_pows[i]
            elif i == 0:
                op = b_pows[j]
            else:
                op = a_pows[i] * b_pows[j]
            out = out + op.scale(c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[1], k[0]), reverse=True):
            c = self.terms[(i, j)]
            mono = "*".join(
                ([f"z^{i}"] if i else []) + ([f"w^{j}"] if j else [])
            ) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def _powers(op: DiffOp, n: int) -> list:
    """[op^0, op^1, ..., op^n]; op^1 is op itself."""
    pows = [DiffOp.identity(op.ring), op]
    while len(pows) <= n:
        pows.append(pows[-1] * op)
    return pows


def charpoly_w(matrix) -> SpectralCurve:
    """det(w*I - A) for a 4x4 (or nxn) matrix of Q[z] coefficient lists.

    ``matrix[i][j]`` is a dense list of Fractions (z-powers, low to high).
    The determinant is a Laplace expansion along the first row over Q[z, w]:
    division-free and exact.
    """
    n = len(matrix)
    w = _ZW.var("w")
    entries = [
        [
            _ZW.from_terms({(k, 0): -c for k, c in enumerate(matrix[i][j])})
            + (w if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SpectralCurve(_det(entries).terms)


def _det(entries) -> MultiPoly:
    n = len(entries)
    if n == 1:
        return entries[0][0]
    out = _ZW.zero
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [
            [entries[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = entries[0][j] * _det(minor)
        out = out - term if j % 2 else out + term
    return out


def _to_w_poly(curve: SpectralCurve) -> UniPoly:
    """View R(z, w) as a polynomial in w over Q(z)."""
    field = FractionFieldRing(_QQ, "z")
    coeffs = [
        field.from_poly(UniPoly(_QQ, curve.w_slice(j), var="z"))
        for j in range(curve.w_degree() + 1)
    ]
    return UniPoly(field, coeffs, var="w")


def squarefree_normalize(curve: MultiPoly) -> SpectralCurve:
    """Squarefree part of R in w, z-denominators cleared, then made monic over Q.

    ``curve`` is any element of Q[z, w].  The gcd with dR/dw is computed over
    Q(z); the quotient's w-coefficients are multiplied by the lcm of their
    denominator polynomials, which leaves rational z-coefficients.  The
    result is then divided by the leading rational (highest z-power) of its
    top w-slice, so 2/3 z w + 2/3 w + 1/2 becomes z w + w + 3/4.
    """
    if curve.ring != _ZW:
        raise RingMismatchError(f"not a polynomial in z and w: {curve.ring}")
    rp = _to_w_poly(SpectralCurve(curve.terms))
    # dR/dw
    field = rp.field
    dcoeffs = [
        rp.coeffs[k] * field.from_rational(Fraction(k))
        for k in range(1, len(rp.coeffs))
    ]
    drp = UniPoly(field, dcoeffs, var="w")
    g = rp.gcd(drp)
    part = rp.divmod(g)[0] if g.degree > 0 else rp
    # clear z-denominators: multiply by lcm of denominator polynomials
    dens = [c.den for c in part.coeffs if not c.num.is_zero()]
    lcm = UniPoly.const(_QQ, 1, var="z")
    for d in dens:
        gg = lcm.gcd(d)
        lcm = (lcm.divmod(gg)[0] if gg.degree > 0 else lcm) * d
    terms: dict = {}
    for j, c in enumerate(part.coeffs):
        if c.num.is_zero():
            continue
        scaled = c.num * lcm.divmod(c.den)[0]
        for i, q in enumerate(scaled.coeffs):
            if q != 0:
                terms[(i, j)] = q
    out = SpectralCurve(terms)
    # normalize: divide by the leading rational of the top w-slice
    top = out.w_degree()
    lead_slice = out.w_slice(top)
    lead = lead_slice[-1] if lead_slice else Fraction(1)
    if lead != 0 and lead != 1:
        out = SpectralCurve({k: c / lead for k, c in out.terms.items()})
    return out
