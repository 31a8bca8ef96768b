"""Bivariate spectral curves R(z, w) and the formal kernel they act on.

The curve of a commuting pair is the squarefree part of the characteristic
polynomial det(w*I - A(z)) of the action of the second operator on the formal
kernel of the first.  That polynomial is F^l for the pair's irreducible
relation F, monic in w (Burchnall and Chaundy), so the curve is its exact
monic l-th root in Q[z][w]: no gcd and no rational functions of z.

The characteristic polynomial (:func:`charpoly_w`) and its root
(:func:`squarefree_normalize`) are computed on w-coefficients over Q[z], and
a curve is only assembled from them (:func:`_curve`), so there is no
arithmetic in two variables.  The formal kernel of L4 - z lives here too:
its basis psi_0 .. psi_3 is held as Taylor data over Q[z]
(:func:`series_kernel_basis`), and the 4x4 action matrix A of an operator on
it (:func:`action_matrix`), with Q[z] entries, feeds both :func:`charpoly_w`
and the zero test of :meth:`SpectralCurve.eval_at_operators`.  Both take A
from one function (:func:`_kernel_action`), the one place on the curve path
that decides [a, b] = 0, and the powers I, A, A^2, ... from another
(:func:`_matrix_powers`).

A partner whose commutation is already proven carries the proof:
:class:`_Commuting` marks it with the very L4 object it commutes with, and,
once formed, with its action matrix.  :func:`_kernel_action` trusts the mark
only for that same object (``is``) and expands [a, b] for every other pair,
so each fact is computed once per pair and nothing is kept across calls.
A polynomial over Q[z] in an operator is formed on its scalar operators
(:func:`_at_operator`) by the package's one Horner,
:func:`rings.multipoly.horner`, which the chain partner and the square
completion of :mod:`centralizer` share.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .errors import NonMonicError, RingMismatchError, SpectralPairsError, TruncationError
from .operators import DiffOp
from .rings import MultiPoly, PolyRing
from .rings.multipoly import horner

_ZW = PolyRing(("z", "w"))
_Z = PolyRing(("z",))


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
        den, nums = self.coefficients_in("w").get(j, _Z.zero).dense()
        return [Fraction(c, den) for c in nums]

    def eval_at_operators(self, a: DiffOp, b: DiffOp) -> DiffOp:
        """R(a, b) for commuting a, b; a zero result is decided on a 4x4 matrix.

        When the curve has w-degree >= 1, ``a`` is monic of order 4 over Q[x]
        and [a, b] = 0 holds, R(a, b) = 0 is decided on the action of b on
        the formal kernel of a - z, and no composition is formed.  Both the
        commutation and the matrix come from :func:`_kernel_action`: a ``b``
        that :func:`centralizer.hyperelliptic_pair` returned for this very
        ``a`` carries its matrix, and any other ``b`` has [a, b] expanded
        directly and its matrix built.  Let C(a) be the operators that
        commute with a, and let psi_j(x, z) be the kernel basis of a - z
        with psi_j^(k)(0) = delta_jk (:func:`series_kernel_basis`).  Then:

        - P -> A(P), P psi_j = sum_k A_kj psi_k, is a ring homomorphism
          C(a) -> M_4(Q[z]) (the entries are constant in x), and A(a) = z I.
          So A(R(a, b)) = R(z I, A(b)), as R(a, b) lies in C(a).
        - The map is injective.  If A(Q) = 0, Q kills psi(., c) for every
          value c.  These are eigenfunctions of a for distinct eigenvalues,
          so infinitely many of them are linearly independent, while a
          nonzero operator of order n has at most n independent solutions
          in Qbar((x)), whose constants are Qbar.  So Q = 0.

        This is the Burchnall-Chaundy / Krichever correspondence (L_f psi =
        f(P) psi): Burchnall and Chaundy, Proc. London Math. Soc. 1923;
        Krichever, Russian Math. Surveys 1977.  R(z I, A(b)) = sum_j R_j(z)
        A(b)^j is decided over Q[z] entry by entry, one exact kernel sum per
        entry on the powers of A(b) (:func:`_matrix_powers`), stopping at the
        first nonzero entry, so no modular, float or heuristic step decides
        the verdict.  When that matrix is zero the zero operator is returned.
        Otherwise, and whenever the test does not apply, R(a, b) = sum_j
        R_j(a) b^j is formed by Horner in w over Horner in z
        (:func:`rings.multipoly.horner`): for w^2 - F(z) that is one b*b and
        deg F compositions with a, and on the matrix path the result is known
        to be nonzero.
        """
        if self._kills_kernel_action(a, b):
            return DiffOp.zero(a.ring)
        by_w = self.coefficients_in("w")
        return horner([_at_operator(by_w.get(j, _Z.zero), a)
                       for j in range(self.w_degree() + 1)], b, DiffOp.zero(a.ring))

    def _kills_kernel_action(self, a: DiffOp, b: DiffOp) -> bool:
        """R(z I, A(b)) = 0 when the zero test of :meth:`eval_at_operators`
        applies; False when it does not apply or the matrix is not zero."""
        matrix = (self.w_degree() >= 1 and a.order == 4 and a.is_monic()
                  and _over_qx(a.ring) and _kernel_action(a, b))
        if not matrix:
            return False
        powers = _matrix_powers(matrix, self.w_degree())
        terms = self.coefficients_in("w").items()
        return all(_Z.sum_products((1, r, powers[j][row][col]) for j, r in terms).is_zero()
                   for row in range(4) for col in range(4))

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
    """det(w*I - A) for an n x n matrix A of Q[z] ``MultiPoly`` entries.

    Its coefficient c_(n-k) of w^(n-k) comes from the power sums p_k =
    tr(A^k) by Newton's identities (Le Verrier), c_n = 1 and

        k c_(n-k) = -(p_k + sum_(i<k) c_(n-i) p_(k-i)),

    exact over Q[z], as the only division is by the integer k.  Each p_k is
    the trace of A^(k-j) A^j with j = min(k - 1, ceil(n/2)), a sum of n^2
    products, so only A^2 .. A^ceil(n/2) are formed: one product at n = 4.
    """
    n, half = len(matrix), (len(matrix) + 1) // 2
    powers = _matrix_powers(matrix, half)
    p, c = [None], [_Z.one]
    for k in range(1, n + 1):
        a, b = powers[k - min(k - 1, half)], powers[min(k - 1, half)]
        p.append(_Z.sum_products((1, a[r][s], b[s][r]) for r in range(n) for s in range(n)))
        c.append(_Z.sum_products([(1, p[k], _Z.one)] + [(1, c[i], p[k - i]) for i in range(1, k)])
                 * Fraction(-1, k))
    return _curve(c)


def _matrix_powers(matrix, top: int) -> list:
    """[I, A, A^2, ..., A^top] for a square matrix A over Q[z], each entry
    of A^(k+1) = A A^k one kernel sum."""
    n = len(matrix)
    powers = [[[_Z.one if r == s else _Z.zero for s in range(n)] for r in range(n)], matrix]
    while len(powers) <= top:
        powers.append([[_Z.sum_products((1, matrix[r][i], powers[-1][i][s]) for i in range(n))
                        for s in range(n)] for r in range(n)])
    return powers


def _curve(coeffs) -> SpectralCurve:
    """sum_k coeffs[k] w^(n-k), n = len(coeffs) - 1, for coeffs over Q[z]."""
    n = len(coeffs) - 1
    return SpectralCurve({(e, n - k): v for k, c in enumerate(coeffs)
                          for (e,), v in c.terms.items()})


def _at_operator(p: MultiPoly, a: DiffOp) -> DiffOp:
    """p(a) for p in Q[z]: Horner on p's coefficients as scalar operators."""
    den, nums = p.dense()
    return horner([DiffOp.identity(a.ring).scale(Fraction(c, den)) for c in nums],
                  a, DiffOp.zero(a.ring))


# -- formal kernel and action matrix -------------------------------------------


def _over_qx(ring) -> bool:
    """True for Q[x]: one ordinary variable named x."""
    return isinstance(ring, PolyRing) and ring.variables == ("x",) and not ring.laurent


def _x_terms(op: DiffOp) -> dict:
    """{(i, s): rational coefficient of x^s D^i} of an operator over Q[x]."""
    if not _over_qx(op.ring):
        raise SpectralPairsError("expected an operator with Q[x] coefficients")
    return {
        (i, e[0]): c for i, coeff in enumerate(op.coeffs) for e, c in coeff.terms.items()
    }


def series_kernel_basis(l4: DiffOp, truncation: int) -> list:
    """Taylor data of four solutions psi_0 .. psi_3 of (L4 - z) psi = 0.

    Returns four lists d of length ``truncation + 1`` over Q[z], with d[k]
    the k-th derivative of psi_j at 0, so d[k] = [k == j] for k < 4.
    ``l4`` must be monic of order 4 with Q[x] coefficients; x = 0 is then an
    ordinary point.  With L4 = sum q_(i,s) x^s D^i, the m-th derivative of
    (L4 - z) psi at 0 gives a recurrence with no factorial denominators:

        d_(m+4) = z d_m - sum_((i,s) != (4,0)) q_(i,s) m!/(m-s)! d_(m-s+i),

    over m >= s.
    """
    if l4.order != 4 or not l4.is_monic():
        raise SpectralPairsError("expected a monic operator of order 4")
    if truncation < 8:
        raise TruncationError("truncation must be at least 8")
    lower = [(i, s, _Z.const(q)) for (i, s), q in _x_terms(l4).items() if (i, s) != (4, 0)]
    z = _Z.var("z")
    basis = []
    for j in range(4):
        d = [_Z.one if k == j else _Z.zero for k in range(4)]
        for m in range(truncation - 3):
            d.append(_Z.sum_products([(1, z, d[m])] + [
                (-perm(m, s), q, d[m - s + i]) for i, s, q in lower if m >= s
            ]))
        basis.append(d)
    return basis


class _Commuting(DiffOp):
    """An operator proven to commute with the operator object ``l4``, with
    its action matrix on ker(l4 - z) in ``action`` once that is formed.

    Only :func:`centralizer.find_commuting_operator`, right after its exact
    [L4, M] = 0 expansion, and :func:`centralizer.hyperelliptic_pair`, whose
    M' differs from a proven M by b(L4)/2 in Q[L4], build one.  Arithmetic
    and every other method return plain :class:`DiffOp`, so no operator
    derived from a marked one inherits the mark, and :func:`_kernel_action`
    reads it only when the L4 it is given is ``l4`` itself: an L4 of equal
    value is still expanded, as nothing ties it to the proof.
    """

    __slots__ = ("l4", "action")

    def __init__(self, op: DiffOp, l4: DiffOp, action=None):
        super().__init__(op.ring, op.coeffs)
        self.l4, self.action = l4, action


def _kernel_action(a: DiffOp, b: DiffOp):
    """A(b) on the formal kernel of a - z, or None unless [a, b] = 0.

    ``a`` is monic of order 4 over Q[x].  A ``b`` marked with this very
    ``a`` (:class:`_Commuting`) has [a, b] = 0 proven, and its carried
    matrix is returned when it has one; [a, b] is expanded directly for any
    other ``b``.  The matrix is built on the basis at truncation max(8,
    ord b + 3), the shortest that holds every d_k :func:`action_matrix`
    reads for b.
    """
    marked = isinstance(b, _Commuting) and b.l4 is a
    if marked and b.action is not None:
        return b.action
    if not marked and not a.commutator(b).is_zero():
        return None
    return action_matrix(b, series_kernel_basis(a, max(8, b.order + 3)))


def action_matrix(m: DiffOp, basis: list) -> list:
    """4x4 matrix over Q[z] of M acting on the formal kernel basis.

    Column j holds the Taylor data (k-th derivative at 0, k < 4) of M psi_j,
    which are exactly its coordinates in the basis.  With M = sum a_(i,s)
    x^s D^i and d the Taylor data of psi_j, only these four are formed:

        A[k][j] = sum_i sum_(s <= k) a_(i,s) k!/(k-s)! d_(k-s+i),

    which reads d up to d_(ord M + 3).  Entries are Q[z] ``MultiPoly``
    values, as the basis's are.
    """
    if len(basis[0]) - 1 - m.order < 3:
        raise TruncationError("basis truncation too small for this operator")
    terms = {key: _Z.const(a) for key, a in _x_terms(m).items()}
    matrix = [[None] * 4 for _ in range(4)]
    for j, d in enumerate(basis):
        for k in range(4):
            matrix[k][j] = _Z.sum_products(
                (perm(k, s), a, d[k - s + i]) for (i, s), a in terms.items() if s <= k
            )
    return matrix


def squarefree_normalize(curve: MultiPoly) -> SpectralCurve:
    """The F monic in w with det(w I - A) = F^l, read off as an exact root.

    ``curve`` is P in Q[z, w], monic in w (its top w-slice is 1), as a
    characteristic polynomial is.  For commuting L4, M over Q[x], Q[L4, M]
    is a subring of the Weyl algebra and so a domain: its relations form a
    prime ideal (F) of Q[z, w], F irreducible and, by Gauss's lemma, monic in
    w.  F(z, A) = 0 on the formal kernel of L4 - z, so det(w I - A) = F^l
    with l = n / deg_w F, n = deg_w P (Burchnall and Chaundy, 1923).

    With y = 1/w, P = w^n f(y), f = sum_k c_k y^k over Q[z], c_0 = 1.  For
    each divisor l of n, from n down to 2, f^(1/l) = sum r_k y^k has r_0 =
    1 and r_k = sum_(0<i<=k) ((l+1) i - l k) c_i r_(k-i) / (l k) (Knuth,
    TAOCP vol. 2, 4.7), exact over Q[z] as l k is an integer.  P = G^l, G
    monic of w-degree d = n/l, exactly when r_(d+1) .. r_n are 0; then G =
    sum_(k<=d) r_k w^(d-k): T = sum_(k<=d) r_k y^k agrees with f^(1/l) up
    to y^n, so T^l agrees with f there, and both have degree <= n.
    By unique factorization in Q[z][w], P = G^m for a monic G exactly when
    m divides the multiplicity of every irreducible factor of P.  For P =
    F^l with F squarefree, that multiplicity is l, so the first m that
    succeeds is l and G is F: the squarefree part of P, normalized as a gcd
    with dP/dw over Q(z) would give it.  When no l succeeds, P is returned
    as it is.
    """
    if curve.ring != _ZW:
        raise RingMismatchError(f"not a polynomial in z and w: {curve.ring}")
    n, by_w = curve.degree_in("w"), curve.coefficients_in("w")
    if by_w.get(n) != _Z.one:
        top = SpectralCurve(curve.terms).w_slice(n)
        raise NonMonicError(f"not monic in w: the w^{n} coefficient is {top}")
    c = [by_w.get(n - k, _Z.zero) for k in range(n + 1)]
    for l in (l for l in range(n, 1, -1) if n % l == 0):
        r = [_Z.one]
        for k in range(1, n + 1):
            r.append(_Z.sum_products(((l + 1) * i - l * k, c[i], r[k - i])
                                     for i in range(1, k + 1)) * Fraction(1, l * k))
            if k > n // l and not r[k].is_zero():
                break
        else:
            return _curve(r[:n // l + 1])
    return SpectralCurve(curve.terms)
