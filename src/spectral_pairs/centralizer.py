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

Every dense polynomial in one variable that the module forms (the m_i and
their derivatives, the coefficients of [L4, M], the Taylor data of the kernel
basis and the action-matrix entries) is one pair (d, [n_0, n_1, ...]) for
sum n_e x^e / d, in normal form: d > 0, no trailing zero, and gcd(d, n_0,
n_1, ...) = 1, so zero is (1, []) and equal polynomials have equal pairs.
A sum of products c p q is one Python-int sum over the lcm of the products'
denominators, and each integral of the back-substitution takes the one
denominator n d lcm(1 .. deg + 1); the common factor is cancelled once per
result (:func:`_sum_products`, :func:`_partial_solution`).  Fractions are
formed only where values leave the module: the rows given to
:func:`linalg.nullspace`, the coefficients of the partners, the series of
the kernel basis and the entries of the action matrix.

The spectral curve comes from the action of M on a formal power-series basis
psi_0 .. psi_3 of ker(L4 - z): the characteristic polynomial det(w I - A(z))
is F^l for the irreducible relation F of the pair, and the curve is F, its
exact monic l-th root (:func:`curves.squarefree_normalize`).  The basis is
built from its Taylor data d_k = k! c_k at x = 0, which obey a recurrence
over Q[z] with no factorial denominators (:func:`series_kernel_basis`).
The action matrix holds the first four Taylor data of M psi_j, and only
those are formed: A[k][j] = k! sum_(i, s <= k) a_(i,s) c_(k-s+i)
(k-s+i)!/(k-s)! over the terms a_(i,s) x^s D^i of M, which reads psi_j up
to x^(ord M + 3) (:func:`action_matrix`).  So one basis at truncation
max(8, ord M + 3) gives the curve: the recurrence is prefix-closed (d_(m+4)
is fixed by d_0 .. d_(m+3)), so a longer basis cut to that length is the
same basis and gives the same matrix.  Completing the square needs no
second curve either: M + b(L4)/2 acts on ker(L4 - z) as A + b(z)/2 I, so
the curve w^2 + b w + c of M becomes R(z, w - b/2) = w^2 + c - b^2/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm

from .curves import SpectralCurve, charpoly_w, squarefree_normalize
from .errors import (
    CommutingOperatorNotFound,
    NotCoveredError,
    SpectralPairsError,
    TruncationError,
)
from .linalg import nullspace
from .operators import DiffOp, PowerSeries
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


def _normal(den: int, nums: list) -> tuple:
    """The normal form of the polynomial sum nums[e] x^e / den, den > 0.

    Trailing zeros are dropped and the common factor of ``den`` and the
    numerators is divided out, so the zero polynomial is (1, []).
    """
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return 1, []
    g = gcd(den, *nums)
    if g > 1:
        return den // g, [c // g for c in nums]
    return den, nums


def _const(q) -> tuple:
    """The normal form of a rational constant (an int or a Fraction)."""
    return (q.denominator, [q.numerator]) if q else (1, [])


def _dense(poly) -> tuple:
    """The normal form of a one-variable polynomial over Q.

    MultiPoly clears its denominators to their lcm, which leaves no common
    factor with the numerators.
    """
    den, ints = poly._cleared()
    nums = [0] * (max((e for (e,) in ints), default=-1) + 1)
    for (e,), c in ints.items():
        nums[e] = c
    return den, nums


def _derivatives(p: tuple, count: int) -> list:
    """[p, p', ..., p^(count)] of a polynomial in normal form."""
    out = [p]
    for _ in range(count):
        den, nums = p
        p = _normal(den, [c * e for e, c in enumerate(nums)][1:])
        out.append(p)
    return out


def _sum_products(triples) -> tuple:
    """The normal form of sum c p q over (int c, p, q) in normal form.

    Each product is scaled to the lcm of the products' denominators, so the
    loop multiplies and adds Python ints; the common factor is cancelled once
    at the end.
    """
    parts = [(c, dp * dq, np, nq) for c, (dp, np), (dq, nq) in triples if c and np and nq]
    den = lcm(*(d for _, d, _, _ in parts))
    acc = [0] * max((len(np) + len(nq) - 1 for _, _, np, nq in parts), default=0)
    for c, d, np, nq in parts:
        if len(np) > len(nq):
            np, nq = nq, np
        scale = c * (den // d)
        for s, a in enumerate(np):
            if a:
                a *= scale
                for t, b in enumerate(nq, s):
                    acc[t] += a * b
    return _normal(den, acc)


def _commutator_coeff(a: list, m: list, r: int, lo: int) -> tuple:
    """D^r coefficient of [L, sum_{j >= lo} m_j D^j], in normal form.

    ``a[k]`` and ``m[j]`` list the derivatives of L's and M's coefficients.
    By Leibniz, [L, M] = sum (C(k, l) a_k m_j^(l) - C(j, l) m_j a_k^(l))
    D^(k+j-l) over k, j and l >= 1; the l = 0 terms cancel.
    """
    triples = []
    for j in range(lo, len(m)):
        for k, ak in enumerate(a):
            l = k + j - r
            if l < 1:
                continue
            if l <= k:
                triples.append((comb(k, l), ak[0], m[j][l]))
            if l <= j and l < len(ak):
                triples.append((-comb(j, l), m[j][0], ak[l]))
    return _sum_products(triples)


def _partial_solution(a: list, k: int) -> list:
    """Derivative lists of m_0 .. m_k for M_k (see the module docstring).

    m_k = 1, and going down, m_i = -(1/n) * integral of F_i with constant
    term 0, F_i being the D^(i+n-1) coefficient of [L, M] from the m_j, j > i.
    With F_i = sum f_e x^e / d, the integral is taken over the one common
    denominator n d lcm(1 .. deg F_i + 1).
    """
    n = len(a) - 1
    m = [None] * (k + 1)
    m[k] = _derivatives((1, [1]), n)
    for i in range(k - 1, -1, -1):
        d, f = _commutator_coeff(a, m, i + n - 1, i + 1)
        big = lcm(*range(1, len(f) + 1))
        integral = [0] + [-c * (big // (e + 1)) for e, c in enumerate(f)]
        m[i] = _derivatives(_normal(n * d * big, integral), n)
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
    if not isinstance(ring, PolyRing) or ring.variables != ("x",) or ring.laurent:
        raise SpectralPairsError("partner search requires specialized Q[x] coefficients")
    if not l4.is_monic() or l4.order < 1:
        raise SpectralPairsError("L4 must be monic of positive order")
    n = l4.order
    a = [_dense(c) for c in l4.coeffs]
    a = [_derivatives(p, len(p[1])) for p in a]
    partials = [_partial_solution(a, k) for k in range(order + 1)]
    constraints: dict = {}  # (order, x power) -> sparse row over the c_k
    for k, mk in enumerate(partials):
        for r in range(n - 1):
            d, f = _commutator_coeff(a, mk, r, 0)
            for e, c in enumerate(f):
                if c:
                    constraints.setdefault((r, e), {})[k] = Fraction(c, d)
    rows = [r for _, r in sorted(constraints.items())]
    space = []
    for vec in nullspace(rows, order + 1):
        coeffs = []
        for i in range(len(vec)):
            d, f = _sum_products(
                (1, _const(vec[k]), partials[k][i][0]) for k in range(i, len(vec))
            )
            coeffs.append(ring.from_terms({(e,): Fraction(c, d) for e, c in enumerate(f)}))
        space.append(DiffOp(ring, coeffs))
    return space


def find_commuting_operator(l4: DiffOp, target_order: int) -> DiffOp:
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
    of order N, which proves that no operator of order N over Q[x] commutes
    with L4.
    """
    space = commuting_operators(l4, target_order)
    m = next((op for op in space if op.order == target_order), None)
    if m is None:
        raise CommutingOperatorNotFound(
            f"no operator of order {target_order} over Q[x] commutes with L4; "
            f"those of order <= {target_order} have orders {[op.order for op in space]}"
        )
    m = gauge_normalize(m, l4, max((target_order - 2) // 4, 1))
    if not l4.commutator(m).is_zero():
        raise SpectralPairsError("solver output failed exact commutator check")
    if m.order != target_order:
        raise SpectralPairsError("gauge normalization changed the order")
    return m


# -- formal kernel and action matrix -------------------------------------------


def _x_terms(op: DiffOp) -> dict:
    """{(i, s): rational coefficient of x^s D^i} of an operator over Q[x]."""
    ring = op.ring
    if not isinstance(ring, PolyRing) or ring.variables != ("x",) or ring.laurent:
        raise SpectralPairsError("expected an operator with Q[x] coefficients")
    return {
        (i, e[0]): c for i, coeff in enumerate(op.coeffs) for e, c in coeff.terms.items()
    }


def series_kernel_basis(l4: DiffOp, truncation: int) -> list:
    """Four series psi_j = x^j/j! + O(x^4) spanning ker(L4 - z), over Q[z].

    ``l4`` must be monic of order 4 with Q[x] coefficients; x = 0 is then an
    ordinary point.  With L4 = sum q_(i,s) x^s D^i, the coefficient of x^m
    in (L4 - z) psi, times m!, gives a recurrence for the Taylor data
    d_k = k! c_k of psi = sum c_k x^k that has no factorial denominators:

        d_(m+4) = z d_m - sum_((i,s) != (4,0)) q_(i,s) m!/(m-s)! d_(m-s+i),

    over m >= s, starting from d_k = [k == j] for k < 4.
    """
    if l4.order != 4 or not l4.is_monic():
        raise SpectralPairsError("expected a monic operator of order 4")
    if truncation < 8:
        raise TruncationError("truncation must be at least 8")
    lower = [(i, s, _const(q)) for (i, s), q in _x_terms(l4).items() if (i, s) != (4, 0)]
    z = (1, [0, 1])
    zring = PolyRing(("z",))
    basis = []
    for j in range(4):
        # d[k]: the k-th derivative of psi_j at 0, a polynomial in z
        d = [(1, [1]) if k == j else (1, []) for k in range(4)]
        for m in range(truncation - 3):
            d.append(_sum_products([(1, z, d[m])] + [
                (-perm(m, s), q, d[m - s + i]) for i, s, q in lower if m >= s
            ]))
        basis.append(PowerSeries(zring, [
            zring.from_terms({(e,): Fraction(c, den * factorial(k)) for e, c in enumerate(nums)})
            for k, (den, nums) in enumerate(d)
        ]))
    return basis


def action_matrix(m: DiffOp, basis: list) -> list:
    """4x4 matrix over Q[z] of M acting on the formal kernel basis.

    Column j holds the Taylor data (k-th derivative at 0, k < 4) of M psi_j,
    which are exactly its coordinates in the basis.  With M = sum a_(i,s)
    x^s D^i and psi_j = sum c_n x^n, only these four coefficients are formed:

        A[k][j] = k! sum_i sum_(s <= k) a_(i,s) c_(k-s+i) (k-s+i)!/(k-s)!,

    which reads psi_j up to x^(ord M + 3).  Entries are dense z-coefficient
    lists of Fractions, lowest power first.
    """
    if basis[0].trunc - m.order < 3:
        raise TruncationError("basis truncation too small for this operator")
    terms = {key: _const(a) for key, a in _x_terms(m).items()}
    matrix = [[None] * 4 for _ in range(4)]
    for j, psi in enumerate(basis):
        c = {}  # the c_n that the formula reads, as polynomials in z
        for k in range(4):
            triples = []
            for (i, s), a in terms.items():
                if s <= k:
                    n = k - s + i
                    if n not in c:
                        c[n] = _dense(psi.coeffs[n])
                    triples.append((factorial(k) * perm(n, i), a, c[n]))
            den, nums = _sum_products(triples)
            matrix[k][j] = [Fraction(e, den) for e in nums]
    return matrix


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

    The constant-term gauge of :func:`find_commuting_operator` can leave a
    w-linear term b(z) w in the curve R = w^2 + b w + c; M' = M + b(L4)/2
    completes the square, and its curve is R(z, w - b/2) = w^2 + c - b^2/4
    (see the module docstring).  Only rank-two (w-degree 2) curves are
    covered; any other curve raises :class:`NotCoveredError`.
    """
    curve = spectral_curve(l4, m)
    if curve.w_degree() != 2:
        raise NotCoveredError(f"not a rank-two curve: w-degree {curve.w_degree()}")
    b = curve.w_slice(1)
    if any(b):
        m = sum(((l4 ** k).scale(l4.ring.const(c / 2)) for k, c in enumerate(b) if c), m)
        # w^2 + b w + c  ->  w^2 + c - (b/2)^2
        zw = curve.ring
        half_b = zw.from_terms({(k, 0): c / 2 for k, c in enumerate(b)})
        curve = SpectralCurve((curve - half_b * (2 * zw.var("w") + half_b)).terms)
    return m, curve
