"""Commuting partners of L4 and their spectral curves.

The order-(4g+2) partner is found by an exact linear ansatz: write
M = sum_i m_i(x) d^i with polynomial m_i of bounded degree, expand [L4, M]
coefficient by coefficient and solve the resulting homogeneous rational
system.  :func:`linalg.nullspace` solves it modulo primes with rational
reconstruction and accepts its basis only after an exact re-check over Q;
the partner built from that basis must still pass the exact check
[L4, M] = 0 by direct commutator expansion.  The spectral curve comes from the action of M on a formal
power-series basis of ker(L4 - z): the squarefree part of the characteristic
polynomial det(w I - A(z)).

No coefficient degree bound is known a priori; the search escalates the bound
on a fixed schedule and reports NotFound (inconclusive) past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

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


def _vector_to_operator(ring: PolyRing, columns, vec) -> DiffOp:
    by_order: dict = {}
    for (i, j), c in zip(columns, vec):
        if c:
            by_order.setdefault(i, {})[(j,)] = c
    top = max(by_order, default=-1)
    coeffs = [ring.from_terms(by_order.get(i, {})) for i in range(top + 1)]
    return DiffOp(ring, coeffs)


def gauge_normalize(m: DiffOp, l4: DiffOp, g: int) -> DiffOp:
    """Subtract rational multiples of L4^k (k <= g) and constants.

    Afterwards the coefficient of d^(4k) has zero constant term for each
    k <= g, which pins down a unique representative of M modulo the obvious
    commuting polynomials in L4.
    """
    for k in range(g, -1, -1):
        c = m.coeff(4 * k).constant_term()
        if c:
            m = m - (l4 ** k).scale(m.ring.const(c))
    return m


def find_commuting_operator(
    l4: DiffOp, target_order: int, degree_bound: int | None = None
) -> DiffOp:
    """A monic operator M of exact order ``target_order`` with [L4, M] = 0.

    With ``degree_bound`` unset, the coefficient degree cap starts at 6g+3 and
    escalates by 3 up to 12g+6 (g inferred from the target order).  Raises
    :class:`CommutingOperatorNotFound` if nothing turns up within the cap;
    that outcome is inconclusive, not a nonexistence proof.
    """
    g = max((target_order - 2) // 4, 1)
    if degree_bound is not None:
        schedule = [degree_bound]
    else:
        schedule = list(range(6 * g + 3, 12 * g + 7, 3))
    for d in schedule:
        system = build_ansatz_system(l4, target_order, d)
        basis = system.nullspace()
        lead_cols = [
            k for k, (i, _) in enumerate(system.columns) if i == target_order
        ]
        candidate = None
        for vec in basis:
            if any(vec[k] for k in lead_cols):
                candidate = vec
                break
        if candidate is None:
            continue
        m = _vector_to_operator(l4.ring, system.columns, candidate)
        lead = m.coeffs[-1]
        # the leading coefficient of a commuting operator is a constant
        scale = lead.as_fraction()
        m = m.scale(l4.ring.const(1 / scale))
        m = gauge_normalize(m, l4, g)
        if not l4.commutator(m).is_zero():
            raise SpectralPairsError("solver output failed exact commutator check")
        if m.order != target_order:
            raise SpectralPairsError("gauge normalization changed the order")
        return m
    raise CommutingOperatorNotFound(
        f"no order-{target_order} partner with coefficient degree <= {schedule[-1]}"
    )


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
            matrix[k][j] = _dense_z(entry)
    return matrix


def _dense_z(poly) -> list:
    out = [Fraction(0)] * (poly.degree_in("z") + 1)
    for e, c in poly.terms.items():
        out[e[0]] = c
    return out


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
