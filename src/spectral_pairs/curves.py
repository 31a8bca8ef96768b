"""Bivariate spectral curves R(z, w) with exact rational coefficients.

The curve of a commuting pair is the squarefree part of the characteristic
polynomial det(w*I - A(z)) of the action of the second operator on the formal
kernel of the first.  That polynomial is F^l for the pair's irreducible
relation F, monic in w (Burchnall and Chaundy), so the curve is its exact
monic l-th root in Q[z][w]: no gcd and no rational functions of z.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonMonicError, RingMismatchError
from .operators import DiffOp
from .rings import MultiPoly, PolyRing

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
        """R(a, b) by Horner in w over Horner in z; requires [a, b] = 0.

        For w^2 - F(z) that is one b*b and deg F compositions with a.
        """
        out = DiffOp.zero(a.ring)
        for j in range(self.w_degree(), -1, -1):
            acc = DiffOp.zero(a.ring)
            for c in reversed(self.w_slice(j)):
                acc = a * acc + DiffOp.identity(a.ring).scale(c)
            out = b * out + acc
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


def _monic_root(p: MultiPoly, l: int):
    """The G monic in w with G^l = p, or None; ``p`` is monic in w."""
    n = p.degree_in("w")
    d = n // l
    root = _ZW.var("w") ** d
    for k in range(1, d + 1):
        # the w^(n-k) slice of p - G^l is l times G's w^(d-k) coefficient
        rest = (p - root ** l).terms.items()
        root = root + _ZW.from_terms(
            {(i, d - k): c / l for (i, j), c in rest if j == n - k}
        )
    return root if root ** l == p else None


def squarefree_normalize(curve: MultiPoly) -> SpectralCurve:
    """The F monic in w with det(w I - A) = F^l, read off as an exact root.

    ``curve`` is P in Q[z, w], monic in w (its top w-slice is 1), as a
    characteristic polynomial is.  For commuting L4, M over Q[x], Q[L4, M]
    is a subring of the Weyl algebra and so a domain: its relations form a
    prime ideal (F) of Q[z, w], F irreducible and, by Gauss's lemma, monic in
    w.  F(z, A) = 0 on the formal kernel of L4 - z, so det(w I - A) = F^l
    with l = n / deg_w F, n = deg_w P (Burchnall and Chaundy, 1923).

    Each divisor l of n is tried from n down to 2: the candidate G =
    w^(n/l) + ... is built from the top down, its next coefficient being the
    w^(n-k) slice of P - G^l divided by l, and accepted when G^l == P
    exactly.  By unique factorization in Q[z][w], P = G^m for a monic G
    exactly when m divides the multiplicity of every irreducible factor of
    P.  For P = F^l with F squarefree, that multiplicity is l, so the first
    m that succeeds is l and G is F: the squarefree part of P, normalized as
    a gcd with dP/dw over Q(z) would give it.  When no l succeeds, P is
    returned as it is.
    """
    if curve.ring != _ZW:
        raise RingMismatchError(f"not a polynomial in z and w: {curve.ring}")
    n = curve.degree_in("w")
    top = SpectralCurve(curve.terms).w_slice(n)
    if top != [1]:
        raise NonMonicError(f"not monic in w: the w^{n} coefficient is {top}")
    for l in range(n, 1, -1):
        root = _monic_root(curve, l) if n % l == 0 else None
        if root is not None:
            return SpectralCurve(root.terms)
    return SpectralCurve(curve.terms)
