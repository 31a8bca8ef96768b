"""Commuting partners of L4 and their spectral curves.

The partner M = sum_i m_i(x) D^i of order N is found by triangular
back-substitution, with no degree bound and no pseudo-differential
operators.  For monic L4 of order n (n = 4 here) over Q[x], the D^(i+n-1)
coefficient of [L4, M] is n m_i' plus terms in the m_j with j > i only
(Leibniz: the D^(i+n) terms cancel, and so do the underived products
a_k m_j - m_j a_k).  Setting it to zero fixes each m_i by integration, up
to its constant term.  So the operators of order <= N whose commutator with
L4 has order < n - 1 are exactly sum_k c_k M_k over constants c_k, where M_k
has m_k = 1, m_j = 0 for j > k and integration constants 0 below k.  The
remaining coefficients of [L4, M] (orders 0 .. n-2) are linear in the c_k;
their x-monomials are the rows of a system with N + 1 columns, solved
exactly by :func:`linalg.nullspace` (integer elimination with an exact
re-check over Q).  Its null space is every commuting operator of order <= N,
so "not found" proves that no partner of order N exists over Q[x].  The
partner built from it must still pass the exact check [L4, M] = 0 by direct
commutator expansion.  :func:`build_ansatz_system` keeps the older
degree-bounded ansatz as an independent formulation of the same space.

The back-substitution is ring code over Q[x], one kernel sum per
coefficient of [L4, M]; the integer pairs of :mod:`rings.multipoly` are
read directly only by the integral (:func:`_partial_solution`).

The spectral curve comes from the action of M on a formal basis psi_0 ..
psi_3 of ker(L4 - z): the characteristic polynomial det(w I - A(z)) is F^l
for the irreducible relation F of the pair, and the curve is F, its exact
monic l-th root (:func:`curves.squarefree_normalize`).  The basis and the
action matrix live in :mod:`curves`, beside :func:`curves.charpoly_w`, and
are imported here.  The basis is held as its Taylor data
d_k = psi_j^(k)(0) over Q[z], which obey a recurrence with no factorial
denominators (:func:`curves.series_kernel_basis`).  The action matrix holds
the first four Taylor data of M psi_j, and only those are formed:
A[k][j] = sum_(i, s <= k) a_(i,s) k!/(k-s)! d_(k-s+i) over the terms
a_(i,s) x^s D^i of M, which reads d up to d_(ord M + 3)
(:func:`curves.action_matrix`).  So one basis at truncation
max(8, ord M + 3) gives the curve: the recurrence is prefix-closed (d_(m+4)
is fixed by d_0 .. d_(m+3)), so a longer basis cut to that length is the
same basis and gives the same matrix.  Completing the square needs no second
curve either: M + b(L4)/2 acts on ker(L4 - z) as A + b(z)/2 I, so the curve
w^2 + b w + c of M becomes R(z, w - b/2) = w^2 + c - b^2/4.  The same
matrix decides R(L4, M') = 0 without composing M' with itself
(:meth:`curves.SpectralCurve.eval_at_operators`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .curves import (
    SpectralCurve,
    _over_qx,
    action_matrix,
    charpoly_w,
    series_kernel_basis,
    squarefree_normalize,
)
from .errors import (
    CommutingOperatorNotFound,
    NotCoveredError,
    SpectralPairsError,
)
from .linalg import nullspace
from .operators import DiffOp, _derivative_table
from .rings import PolyRing

@dataclass
class AnsatzSystem:
    """Homogeneous constraint system for [L4, M] = 0.

    Unknown (i, j) is the coefficient of x^j in m_i(x); ``columns`` fixes
    their order.  ``rows`` are sparse {column: Fraction} constraints, one per
    (derivative order, x power) monomial of the expanded commutator.
    """

    order: int
    degree_bound: int
    columns: list
    rows: list

    def nullspace(self) -> list:
        return nullspace(self.rows, len(self.columns))


def build_ansatz_system(l4: DiffOp, order: int, degree_bound: int) -> AnsatzSystem:
    """Constraint system over Q for operators of order <= ``order``."""
    ring = l4.ring
    if not isinstance(ring, PolyRing) or ring.variables != ("x",):
        raise SpectralPairsError("ansatz requires specialized Q[x] coefficients")
    if not l4.is_monic():
        raise SpectralPairsError("L4 must be monic")
    x = ring.var("x")
    columns = [(i, j) for i in range(order + 1) for j in range(degree_bound + 1)]
    col_index = {c: k for k, c in enumerate(columns)}
    constraints: dict = {}  # (op order, x power) -> sparse row
    for (i, j), k in col_index.items():
        basis_op = DiffOp(ring, [ring.zero] * i + [x ** j])
        comm = l4.commutator(basis_op)
        for oi, coeff in enumerate(comm.coeffs):
            for e, c in coeff.terms.items():
                row = constraints.setdefault((oi, e[0]), {})
                row[k] = row.get(k, Fraction(0)) + c
    rows = [r for _, r in sorted(constraints.items())]
    return AnsatzSystem(order, degree_bound, columns, rows)


def _commutator_coeff(ring, da: list, m: list, r: int, lo: int):
    """D^r coefficient of [L, sum_{j >= lo} m_j D^j], one kernel sum in ``ring``.

    ``da[l][k]`` is the l-th derivative of L's coefficient a_k, and ``m[j]``
    lists the derivatives of m_j.
    By Leibniz, [L, M] = sum (C(k, l) a_k m_j^(l) - C(j, l) m_j a_k^(l))
    D^(k+j-l) over k, j and l >= 1; the l = 0 terms cancel.
    """
    triples = []
    for j in range(lo, len(m)):
        for k, ak in enumerate(da[0]):
            l = k + j - r
            if l < 1:
                continue
            if l <= k:
                triples.append((comb(k, l), ak, m[j][l]))
            if l <= j and l < len(da):
                triples.append((-comb(j, l), m[j][0], da[l][k]))
    return ring.sum_products(triples)


def _partial_solution(ring, da: list, k: int) -> list:
    """Derivative lists of m_0 .. m_k for M_k (see the module docstring).

    m_k = 1, and going down, m_i = -(1/n) * integral of F_i with constant
    term 0, F_i being the D^(i+n-1) coefficient of [L, M] from the m_j, j > i.
    With F_i = sum f_e x^e / d, the integral is taken over the one common
    denominator n d lcm(1 .. deg F_i + 1).
    """
    n = len(da[0]) - 1
    m = [None] * (k + 1)
    m[k] = [row[0] for row in _derivative_table([ring.one], n)]
    for i in range(k - 1, -1, -1):
        d, f = _commutator_coeff(ring, da, m, i + n - 1, i + 1).dense()
        big = lcm(*range(1, len(f) + 1))
        integral = [0] + [-c * (big // (e + 1)) for e, c in enumerate(f)]
        m[i] = [row[0] for row in _derivative_table([ring.from_dense(n * d * big, integral)], n)]
    return m


def commuting_operators(l4: DiffOp, order: int) -> list:
    """Basis of the operators M of order <= ``order`` with [L4, M] = 0.

    Every such M is sum_k c_k M_k, the partial solutions of the module
    docstring, and the constants c solve the rows from orders 0 .. n-2 of
    [L4, M].  One monic operator per order K present, in increasing order:
    the reduced row echelon basis vector of the free column K from
    :func:`linalg.nullspace`, so c_K = 1 and c = 0 at the other orders.
    """
    ring = l4.ring
    if not _over_qx(ring):
        raise SpectralPairsError("partner search requires specialized Q[x] coefficients")
    if not l4.is_monic() or l4.order < 1:
        raise SpectralPairsError("L4 must be monic of positive order")
    n = l4.order
    da = _derivative_table(l4.coeffs, 1 + max(c.degree_in("x") for c in l4.coeffs))
    partials = [_partial_solution(ring, da, k) for k in range(order + 1)]
    constraints: dict = {}  # (order, x power) -> sparse row over the c_k
    for k, mk in enumerate(partials):
        for r in range(n - 1):
            for (e,), c in _commutator_coeff(ring, da, mk, r, 0).terms.items():
                constraints.setdefault((r, e), {})[k] = c
    rows = [r for _, r in sorted(constraints.items())]
    return [DiffOp(ring, [ring.sum_products((1, ring.const(c), partials[k][i][0])
                                            for k, c in enumerate(vec) if k >= i)
                          for i in range(len(vec))])
            for vec in nullspace(rows, order + 1)]


def find_commuting_operator(l4: DiffOp, target_order: int) -> DiffOp:
    """A monic operator M of exact order ``target_order`` with [L4, M] = 0.

    M is the basis operator of order N = ``target_order`` from
    :func:`commuting_operators`: the reduced row echelon null vector of the
    free column N, so c_N = 1 and c_K = 0 at each other order K of the space.
    That already fixes M modulo polynomials in L4 of lower order: for 4k < N
    the constant term of its D^(4k) coefficient is 0.  That constant term is
    c_(4k), since M_(4k) has m_(4k) = 1, each M_j with j > 4k has an m_(4k)
    with constant term 0 (its integration constants are 0), and no M_j with
    j < 4k has a D^(4k) term; and L4^k, of order 4k, lies in the space, so
    4k is a free column and c_(4k) = 0.  It is the operator the
    degree-bounded ansatz (:func:`build_ansatz_system`) gives as its reduced
    row echelon vector of the free column (N, 0), columns ordered by (order,
    x power): every null vector's highest ansatz column is (K, 0) for its
    order K, and its (K, 0) entry is c_K, because the M_j with j > K have
    m_K with constant term 0.  Both are therefore the null vector with
    c_N = 1 and c_K = 0 at each other order K of the space.

    Raises :class:`CommutingOperatorNotFound` when the space has no operator
    of order N, which proves that no operator of order N over Q[x] commutes
    with L4, and :class:`SpectralPairsError` unless M passes the exact check
    [L4, M] = 0 by direct commutator expansion.
    """
    space = commuting_operators(l4, target_order)
    m = next((op for op in space if op.order == target_order), None)
    if m is None:
        raise CommutingOperatorNotFound(
            f"no operator of order {target_order} over Q[x] commutes with L4; "
            f"those of order <= {target_order} have orders {[op.order for op in space]}"
        )
    if not l4.commutator(m).is_zero():
        raise SpectralPairsError("solver output failed exact commutator check")
    return m


def spectral_curve(l4: DiffOp, m: DiffOp) -> SpectralCurve:
    """Squarefree normalized R(z, w) with R(L4, M) = 0.

    One kernel basis, at truncation max(8, ord M + 3), is enough: a longer
    one agrees with it on every coefficient :func:`action_matrix` reads (see
    the module docstring).  The zero operator has det(w I - 0) = w^4 and so
    the curve w.
    """
    if not l4.commutator(m).is_zero():
        raise SpectralPairsError("operators do not commute")
    basis = series_kernel_basis(l4, max(8, m.order + 3))
    return squarefree_normalize(charpoly_w(action_matrix(m, basis)))


def hyperelliptic_pair(l4: DiffOp, m: DiffOp):
    """(M', R) with R(z, w) = w^2 - F(z) and R(L4, M') = 0.

    The normal form of :func:`find_commuting_operator` (no constant term on
    D^(4k) below its order) can leave a w-linear term b(z) w in the curve
    R = w^2 + b w + c; M' = M + b(L4)/2 completes the square, and its curve
    is R(z, w - b/2) = w^2 + c - b^2/4 (see the module docstring); b(L4)/2
    is the curve b(z)/2 evaluated by Horner.  Only rank-two (w-degree 2) curves are covered; any other curve
    raises :class:`NotCoveredError`.
    """
    curve = spectral_curve(l4, m)
    if curve.w_degree() != 2:
        raise NotCoveredError(f"not a rank-two curve: w-degree {curve.w_degree()}")
    half_b = SpectralCurve({(k, 0): c / 2 for k, c in enumerate(curve.w_slice(1))})
    m = m + half_b.eval_at_operators(l4, m)
    # w^2 + b w + c  ->  w^2 + c - (b/2)^2
    curve = SpectralCurve((curve - half_b * (2 * curve.ring.var("w") + half_b)).terms)
    return m, curve
