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
exactly by :func:`linalg.nullspace` (modular elimination with an exact
re-check over Q).  Its null space is every commuting operator of order <= N,
so "not found" proves that no partner of order N exists over Q[x].  The
partner built from it must still pass the exact check [L4, M] = 0 by direct
commutator expansion.  :func:`build_ansatz_system` keeps the older
degree-bounded ansatz as an independent formulation of the same space.

The spectral curve comes from the action of M on a formal power-series basis
of ker(L4 - z): the squarefree part of the characteristic polynomial
det(w I - A(z)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .curves import SpectralCurve, charpoly_w, squarefree_normalize
from .errors import (
    CommutingOperatorNotFound,
    SpectralPairsError,
    TruncationError,
)
from .linalg import nullspace
from .operators import DiffOp, PowerSeries, multipoly_x_split
from .rings import PolyRing

_STABILITY_MARGIN = 8


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


def gauge_normalize(m: DiffOp, l4: DiffOp, g: int) -> DiffOp:
    """Subtract rational multiples of L4^k (k <= g, 4k < order M) and constants.

    Afterwards the coefficient of d^(4k) has zero constant term for each
    such k, which pins down a unique representative of M modulo the obvious
    commuting polynomials in L4 of lower order.  Powers of order >= order M
    are left alone: subtracting them could cancel M's leading term.
    """
    for k in range(g, -1, -1):
        c = m.coeff(4 * k).constant_term()
        if c and 4 * k < m.order:
            m = m - (l4 ** k).scale(m.ring.const(c))
    return m


def _dense(poly, var: str) -> list:
    """Coefficients of a one-variable polynomial, lowest power first."""
    out = [Fraction(0)] * (poly.degree_in(var) + 1)
    for e, c in poly.terms.items():
        out[e[0]] = c
    return out


def _derivatives(p: list, count: int) -> list:
    """[p, p', ..., p^(count)] of a dense polynomial."""
    out = [p]
    for _ in range(count):
        p = [c * e for e, c in enumerate(p)][1:]
        out.append(p)
    return out


def _add_product(acc: list, scale: int, p: list, q: list) -> None:
    """acc += scale * p * q for dense polynomials, growing acc as needed."""
    if not p or not q:
        return
    acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for s, a in enumerate(p):
        if a:
            a *= scale
            for t, b in enumerate(q):
                if b:
                    acc[s + t] += a * b


def _commutator_coeff(a: list, m: list, r: int, lo: int) -> list:
    """Dense D^r coefficient of [L, sum_{j >= lo} m_j D^j].

    ``a[k]`` and ``m[j]`` list the derivatives of L's and M's coefficients.
    By Leibniz, [L, M] = sum (C(k, l) a_k m_j^(l) - C(j, l) m_j a_k^(l))
    D^(k+j-l) over k, j and l >= 1; the l = 0 terms cancel.
    """
    acc: list = []
    for j in range(lo, len(m)):
        for k, ak in enumerate(a):
            l = k + j - r
            if l < 1:
                continue
            if l <= k:
                _add_product(acc, comb(k, l), ak[0], m[j][l])
            if l <= j and l < len(ak):
                _add_product(acc, -comb(j, l), m[j][0], ak[l])
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _partial_solution(a: list, k: int) -> list:
    """Derivative lists of m_0 .. m_k for M_k (see the module docstring).

    m_k = 1, and going down, m_i = -(1/n) * integral of F_i with constant
    term 0, F_i being the D^(i+n-1) coefficient of [L, M] from the m_j, j > i.
    """
    n = len(a) - 1
    m = [None] * (k + 1)
    m[k] = _derivatives([Fraction(1)], n)
    for i in range(k - 1, -1, -1):
        f = _commutator_coeff(a, m, i + n - 1, i + 1)
        integral = [Fraction(-c, n * (e + 1)) for e, c in enumerate(f)]
        m[i] = _derivatives([Fraction(0)] + integral if f else [], n)
    return m


def commuting_operators(
    l4: DiffOp, order: int, degree_bound: int | None = None
) -> list:
    """Basis of the operators M of order <= ``order`` with [L4, M] = 0.

    Every such M is sum_k c_k M_k, the partial solutions of the module
    docstring, and the constants c solve the rows from orders 0 .. n-2 of
    [L4, M].  With ``degree_bound`` set, further rows force every coefficient
    power above it to vanish, which leaves the null space of the
    degree-bounded ansatz.  One monic operator per order K present, in
    increasing order: the reduced row echelon basis vector of the free column
    K from :func:`linalg.nullspace`, so c_K = 1 and c = 0 at the other orders.
    """
    ring = l4.ring
    if not isinstance(ring, PolyRing) or ring.variables != ("x",) or ring.laurent:
        raise SpectralPairsError("partner search requires specialized Q[x] coefficients")
    if not l4.is_monic() or l4.order < 1:
        raise SpectralPairsError("L4 must be monic of positive order")
    n = l4.order
    a = [_dense(c, "x") for c in l4.coeffs]
    a = [_derivatives(p, len(p)) for p in a]
    partials = [_partial_solution(a, k) for k in range(order + 1)]
    constraints: dict = {}  # (kind, order, x power) -> sparse row over the c_k
    for k, mk in enumerate(partials):
        for r in range(n - 1):
            for e, c in enumerate(_commutator_coeff(a, mk, r, 0)):
                if c:
                    constraints.setdefault((0, r, e), {})[k] = c
        if degree_bound is not None:
            for i, mi in enumerate(mk):
                for e in range(degree_bound + 1, len(mi[0])):
                    if mi[0][e]:
                        constraints.setdefault((1, i, e), {})[k] = mi[0][e]
    rows = [r for _, r in sorted(constraints.items())]
    space = []
    for vec in nullspace(rows, order + 1):
        coeffs = []
        for i in range(len(vec)):
            dense: list = []
            for k in range(i, len(vec)):
                _add_product(dense, 1, [vec[k]], partials[k][i][0])
            coeffs.append(ring.from_terms({(e,): c for e, c in enumerate(dense)}))
        space.append(DiffOp(ring, coeffs))
    return space


def find_commuting_operator(
    l4: DiffOp, target_order: int, degree_bound: int | None = None
) -> DiffOp:
    """A monic operator M of exact order ``target_order`` with [L4, M] = 0.

    M is the basis operator of order N = ``target_order`` from
    :func:`commuting_operators`, after :func:`gauge_normalize` subtracts
    multiples of powers of L4.  It is the operator the degree-bounded ansatz
    (:func:`build_ansatz_system`) gives as its reduced row echelon vector of
    the free column (N, 0), columns ordered by (order, x power): every null
    vector's highest ansatz column is (K, 0) for its order K, and its (K, 0)
    entry is c_K, because the M_j with j > K have m_K with constant term 0.
    Both are therefore the null vector with c_N = 1 and c_K = 0 at each
    other order K of the space.

    Raises :class:`CommutingOperatorNotFound` when the space has no operator
    of order N.  Without ``degree_bound`` that proves no operator of order N
    over Q[x] commutes with L4 (``exc.bounded`` is False); with it, it only
    says none has coefficient degree <= ``degree_bound`` (``exc.bounded`` is
    True).
    """
    space = commuting_operators(l4, target_order, degree_bound)
    m = next((op for op in space if op.order == target_order), None)
    if m is None:
        if degree_bound is not None:
            raise CommutingOperatorNotFound(
                f"no order-{target_order} partner with coefficient degree <= {degree_bound}"
            )
        raise CommutingOperatorNotFound(
            f"no operator of order {target_order} over Q[x] commutes with L4; "
            f"those of order <= {target_order} have orders {[op.order for op in space]}",
            bounded=False,
        )
    m = gauge_normalize(m, l4, max((target_order - 2) // 4, 1))
    if not l4.commutator(m).is_zero():
        raise SpectralPairsError("solver output failed exact commutator check")
    if m.order != target_order:
        raise SpectralPairsError("gauge normalization changed the order")
    return m


# -- formal kernel and action matrix -------------------------------------------


def series_kernel_basis(l4: DiffOp, truncation: int) -> list:
    """Four series psi_j = x^j/j! + O(x^4) spanning ker(L4 - z), over Q[z].

    ``l4`` must be monic of order 4 with Q[x] coefficients; x = 0 is then an
    ordinary point and the coefficients follow an order-4 recurrence.
    """
    ring = l4.ring
    if l4.order != 4 or not l4.is_monic():
        raise SpectralPairsError("expected a monic operator of order 4")
    if truncation < 8:
        raise TruncationError("truncation must be at least 8")
    zring = PolyRing(("z",))
    z = zring.var("z")
    # a[(i, s)]: rational coefficient of x^s in the i-th operator coefficient
    a: dict = {}
    for i, coeff in enumerate(l4.coeffs):
        for e, c in coeff.terms.items():
            a[(i, e[0])] = c
    basis = []
    for j in range(4):
        c = [zring.zero] * (truncation + 1)
        c[j] = zring.const(Fraction(1, factorial(j)))
        for m in range(truncation - 3):
            # coefficient of x^m in (L4 - z) psi must vanish; solve for c[m+4]
            total = zring.zero
            for (i, s), q in a.items():
                if (i, s) == (4, 0):
                    continue
                k = m - s + i  # c_k x^k contributes via x^s * d^i
                if k >= i and m >= s:
                    w = q * Fraction(factorial(k), factorial(k - i))
                    total = total + c[k] * w
            total = total - z * c[m]
            c[m + 4] = total * Fraction(-factorial(m), factorial(m + 4))
        basis.append(PowerSeries(zring, c))
    return basis


def action_matrix(m: DiffOp, basis: list) -> list:
    """4x4 matrix over Q[z] of M acting on the formal kernel basis.

    Column j holds the Taylor data (k-th derivative at 0, k < 4) of M psi_j,
    which are exactly its coordinates in the basis.
    """
    zring = basis[0].ring
    split = multipoly_x_split(zring)
    matrix = [[None] * 4 for _ in range(4)]
    for j, psi in enumerate(basis):
        image = m.apply_to_series(psi, split)
        if image.trunc < 3:
            raise TruncationError("basis truncation too small for this operator")
        for k in range(4):
            entry = image.coeffs[k] * factorial(k)
            matrix[k][j] = _dense(entry, "z")
    return matrix


def spectral_curve(l4: DiffOp, m: DiffOp) -> SpectralCurve:
    """Squarefree normalized R(z, w) with R(L4, M) = 0.

    The action matrix is recomputed at a larger truncation and must agree;
    disagreement means the series were too short and is an internal error.
    """
    if not l4.commutator(m).is_zero():
        raise SpectralPairsError("operators do not commute")
    n = int(m.order) + 4 + _STABILITY_MARGIN
    mat = action_matrix(m, series_kernel_basis(l4, n))
    mat_check = action_matrix(m, series_kernel_basis(l4, n + _STABILITY_MARGIN))
    if mat != mat_check:
        raise SpectralPairsError("action matrix unstable under truncation growth")
    det = charpoly_w(mat)
    return squarefree_normalize(det)


def hyperelliptic_pair(l4: DiffOp, m: DiffOp):
    """(M', R) with R(z, w) = w^2 - F(z) and R(L4, M') = 0.

    The constant-term gauge of :func:`find_commuting_operator` can leave a
    w-linear term b(z) w in the curve; shifting M by -b(L4)/2 completes the
    square.  Only rank-two (w-degree 2) curves are supported here.
    """
    curve = spectral_curve(l4, m)
    if curve.w_degree() != 2:
        raise SpectralPairsError("not a rank-two curve")
    b = curve.w_slice(1)
    if any(b):
        shift = sum(
            ((l4 ** k).scale(l4.ring.const(c / 2)) for k, c in enumerate(b) if c),
            DiffOp.zero(l4.ring),
        )
        m = m + shift
        curve = spectral_curve(l4, m)
        if any(curve.w_slice(1)):
            raise SpectralPairsError("square completion failed")
    return m, curve
