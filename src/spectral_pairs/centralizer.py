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
commutator expansion, on either path below; that expansion is the only one
the curve path makes (see the end of this docstring).

The back-substitution is ring code over Q[x] on the Leibniz triples of
:func:`operators._leibniz`, the ones composition uses: once m_i is
integrated, the triples of [L4, m_i D^i] join the list of their output
order, so the list of order i + n - 1 holds exactly the terms from the m_j
with j > i when m_i is solved, and the lists of orders 0 .. n-2 are the
constraint rows.  Each list is one kernel sum; the integer pairs of
:mod:`rings.multipoly` are read directly only by the integral
(:func:`_integral`).

At the order N = 4g + 2 (g >= 1) of a rank-two partner the search is the
fallback.  When L4 = (D^2 + V)^2 + W over Q[x] (V is half the D^2
coefficient and W = a_0 - V'' - V^2, provided the D^3 coefficient is 0
and the D^1 coefficient is 2V'), the paper's reference [8] (Mironov,
"Self-adjoint commuting ordinary differential operators", Invent. Math.
2014) builds the partner from Q(x, z) = z^g + a_(g-1)(x) z^(g-1) + ... +
a_0(x) with E0(Q) + 4z Q' = 0, where

    E0 = D^5 + 4V D^3 + 6V' D^2 + 2(V'' - 2W) D - 2W'.

By powers of z: a_g = 1, a_(i-1) = -(1/4) int_0^x E0(a_i) + k_(i-1), and
E0(a_0) = 0.  With u_0 = 1 and u_(m+1) = -(1/4) int_0^x E0(u_m), a_i =
sum_(j >= i) k_j u_(j-i) (k_g = 1), so the x-monomials of sum_j k_j E0(u_j)
are the rows of a system in g + 1 columns (:func:`linalg.nullspace`), and
the chain costs g + 1 applications of E0 (:func:`_chain_pair`).  It is used
only when that system has exactly one solution and its k_g is not 0.  Then

    M' = sum_i (a_i D^2 - a_i' D + a_i V + a_i''/2) L4^i,

and [8] proves [L4, M'] = 0 and M'^2 = F(L4), where

    F(z) = (z - W)Q^2 + Q''^2/4 - Q'Q'''/2 + QQ''''/2 + 2VQQ'' - VQ'^2 + V'QQ'

(' = d/dx) is a first integral of the chain, read here at x = 0.  F is
monic of degree 2g + 1 in z.

The chain's partner is returned only when it is provably the search's.
Write F = z^e F1 with F1(0) != 0, h = floor(e/2) and F0 = z^(e mod 2) F1,
so F = z^(2h) F0.  The guard (:func:`_chain_spans`) asks

- F1 squarefree, decided by gcd(F1, F1') = 1 modulo the prime 2^61 - 1
  (:func:`_squarefree_mod_p`); with F1(0) != 0 this makes F0 squarefree;
- deg F0 >= 3;
- when e >= 2, a nonzero remainder of M' right-divided by L4.  That
  remainder is terms[0] = a_0 D^2 - a_0' D + a_0 V + a_0''/2, so the test
  is a_0 != 0 and no operator is formed: M' = (sum_(i >= 1) terms[i]
  L4^(i-1)) L4 + terms[0], terms[0] has order 2 < 4, and right division
  by the monic L4 is unique.

Then C(L4), the operators over Q[x] that commute with L4, is Q[L4, M']:

- C(L4) is commutative, and integral over Q[L4]: P -> A(P), the action on
  the formal kernel of L4 - z, embeds it in M_4(Q[z]) with A(L4) = z I
  (:meth:`curves.SpectralCurve.eval_at_operators`), and by Cayley-Hamilton
  P is a root of det(w I - A(P)), monic in w over Q[z].
- y = M' / L4^h, in the fraction field of the domain Q[L4, M'], satisfies
  y^2 = F0(L4).  F0 is squarefree, so the curve y^2 = F0 is smooth and
  Q[z] + Q[z] y = Q[z, y]/(y^2 - F0) is integrally closed: it is the
  integral closure of Q[z] in Q(z, y) = Q(L4, M').  That curve has genus
  floor((deg F0 - 1)/2) >= 1.
- The rank r of C(L4), the gcd of its orders, divides gcd(4, 4g + 2) = 2,
  and its fraction field has degree 4/r over Q(L4).  r = 1 is impossible:
  rank-one commutative subalgebras of the Weyl algebra have rational
  spectral curves (Wilson, "Bispectral commutative ordinary differential
  operators", J. reine angew. Math. 1993), and a rational curve cannot
  cover y^2 = F0, of genus >= 1.  So C(L4) has rank 2, and its fraction
  field is Q(L4, M'), of degree 2.
- C(L4) is integral over Q[z] = Q[L4] inside Q(L4, M'), so it lies between
  Q[L4] and Q[z] + Q[z] y: C(L4) = Q[z] + J y, where the ideal J of the
  b in Q[z] with b(L4) y in C(L4) contains z^h (z^h y = M').  So J is
  (z^j) for some j <= h.
- j < h exactly when z^(h-1) y lies in C(L4), that is when M' = E L4 for
  an operator E over Q[x]: such an E commutes with L4, because [L4, E] L4
  = [L4, M'] = 0 and the Weyl algebra is a domain, and then E = z^(h-1) y.
  M' = E L4 means a zero remainder, that is a_0 = 0, and the guard rules
  it out (for e < 2, h = 0 and there is nothing to rule out), so j = h and
  C(L4) = Q[z] + Q[z] M' = Q[L4, M'].

So the operators of order <= N in C(L4) are p(L4) + c M', deg p <= g, of
orders 4k and N, and the search's reduced row echelon vector is M' less
the p(L4) that clears the constant terms of its D^(4k) coefficients
(:func:`find_commuting_operator`, :func:`_normal_form`).  F enters only
this guard: :func:`hyperelliptic_pair` reads its curve off the action
matrix of the partner it is given, so the curves it prints do not rest on
the chain.  V = x^3 has e = 2, 4, 3, 2, 4 at g = 3, 4, 6, 8, 9 and takes
the chain there.  Another order, another L4, a chain with no or several
solutions, deg F0 < 3 (V = x^3 at g = 1: F = z^3, F0 = z, genus 0), a
square factor of F other than a power of z, and a_0 = 0 when e >= 2 all run
the search, unchanged.

The spectral curve comes from the action of M on a formal basis psi_0 ..
psi_3 of ker(L4 - z), built in :mod:`curves` and imported here.  The basis
is held as its Taylor data d_k = psi_j^(k)(0) over Q[z]
(:func:`curves.series_kernel_basis`); the action matrix A, over Q[z] too,
holds the first four Taylor data of M psi_j, which reads d up to
d_(ord M + 3) (:func:`curves.action_matrix`).  So one basis at truncation
max(8, ord M + 3) gives the curve: the recurrence is prefix-closed (d_(m+4)
is fixed by d_0 .. d_(m+3)), so a longer basis cut to that length gives the
same matrix.  det(w I - A) is R^l for the irreducible relation R of the
pair.  :func:`spectral_curve`, for any rank, reads R off the w-coefficients
over Q[z] as the monic l-th root (:func:`curves.charpoly_w`,
:func:`curves.squarefree_normalize`).  :func:`hyperelliptic_pair` forms no
characteristic polynomial: a rank-two R = w^2 + b w + c has b = -tr(A)/2,
so it completes the square on the matrix, A' = A + b(z)/2 I, and one
product A'^2 = F I both decides the rank and gives the curve w^2 - F of
M' = M + b(L4)/2, which acts on ker(L4 - z) as A'.  That is the square
completion R(z, w - b/2) = w^2 + c - b^2/4, so no product in Q[z, w] is
formed.  A'^2 also decides R(L4, M') = 0 with no matrix product and no
composition of M' with itself (:meth:`curves.SpectralCurve.eval_at_operators`).

Each of these facts is computed once per pair, on the operators returned:
:func:`find_commuting_operator` marks its partner with the L4 object whose
commutator with it it has just expanded to zero (:class:`curves._Commuting`),
so :func:`spectral_curve` and :func:`hyperelliptic_pair` build the kernel
basis and A without expanding [L4, M] again, and :func:`hyperelliptic_pair`
returns M' with the same mark and the powers [I, A', A'^2] of A(M') = A(M)
+ b(z)/2 I: M' - M lies in Q[L4], which commutes with L4 and acts as b(z)/2
on ker(L4 - z).  The mark holds only for that L4 object; any other L4, even
one of equal value, and any operator formed from a marked one get the
direct expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .curves import (
    _Z,
    SpectralCurve,
    _at_operator,
    _Commuting,
    _curve,
    _kernel_action,
    _matrix_powers,
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
from .operators import DiffOp, _columns, _derivatives, _leibniz
from .rings import PolyRing
from .rings.multipoly import horner


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
    """Constraint system over Q for operators of order <= ``order``.

    The tests' independent formulation of the space that
    :func:`commuting_operators` solves.  With a large enough
    ``degree_bound``, its reduced row echelon vector of the free column
    (N, 0), columns ordered by (order, x power), is
    :func:`find_commuting_operator`'s M: every null vector's highest column
    is (K, 0) for its order K, and its (K, 0) entry is c_K (module
    docstring), because the M_j with j > K have m_K with constant term 0.
    So both are the null vector with c_N = 1 and c_K = 0 at each other
    order K of the space.
    """
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


def _integral(ring, p, n: int):
    """-(1/n) times the integral of ``p`` over [0, x], in Q[x].

    With p = sum f_e x^e / d it is taken over the one common denominator
    n d lcm(1 .. deg p + 1).
    """
    d, f = p.dense()
    big = lcm(*range(1, len(f) + 1))
    return ring.from_dense(n * d * big, [0] + [-c * (big // (e + 1)) for e, c in enumerate(f)])


def _partial_solution(ring, cols: list, k: int):
    """(m, rows): m_0 .. m_k of M_k and the D^0 .. D^(n-2) coefficients of
    [L, M_k], by the back-substitution of the module docstring: m_k = 1, and
    going down, m_i = -(1/n) * integral of F_i with constant term 0.
    ``cols`` holds L's coefficients as from :func:`operators._columns`, and
    n is L's order."""
    n = cols[-1][0]
    groups = [[] for _ in range(k + n)]
    m = [ring.zero] * k + [ring.one]
    for i in range(k, -1, -1):
        if i < k:
            m[i] = _integral(ring, ring.sum_products(groups[i + n - 1]), n)
        if m[i].is_zero():
            continue
        col = [(i, _derivatives(m[i], n))]
        for j, da in cols:
            _leibniz(groups, 1, da[0], j, col, first=1)
        _leibniz(groups, -1, m[i], i, cols, first=1)
    return m, [ring.sum_products(g) for g in groups[:n - 1]]


def _search_space(l4: DiffOp, order: int):
    """(partials, vectors): the m_i of the M_k of the module docstring,
    k = 0 .. ``order``, and the null vectors c of the rows from orders
    0 .. n-2 of [L4, M], from :func:`linalg.nullspace`."""
    ring = l4.ring
    if not _over_qx(ring):
        raise SpectralPairsError("partner search requires specialized Q[x] coefficients")
    if not l4.is_monic() or l4.order < 1:
        raise SpectralPairsError("L4 must be monic of positive order")
    cols = _columns(l4.coeffs, order)
    partials = []
    constraints: dict = {}  # (order, x power) -> sparse row over the c_k
    for k in range(order + 1):
        mk, lower = _partial_solution(ring, cols, k)
        partials.append(mk)
        for r, row in enumerate(lower):
            for (e,), c in row.terms.items():
                constraints.setdefault((r, e), {})[k] = c
    rows = [r for _, r in sorted(constraints.items())]
    return partials, nullspace(rows, order + 1)


def _combine(ring, partials: list, vec: list) -> DiffOp:
    """sum_k vec[k] M_k, one kernel sum per coefficient."""
    return DiffOp(ring, [ring.sum_products((1, ring.const(c), partials[k][i])
                                           for k, c in enumerate(vec) if k >= i)
                         for i in range(len(vec))])


def commuting_operators(l4: DiffOp, order: int) -> list:
    """Basis of the operators M of order <= ``order`` with [L4, M] = 0.

    Every such M is sum_k c_k M_k, the partial solutions of the module
    docstring, and the constants c solve the rows from orders 0 .. n-2 of
    [L4, M].  One monic operator per order K present, in increasing order:
    the reduced row echelon basis vector of the free column K from
    :func:`linalg.nullspace`, so c_K = 1 and c = 0 at the other orders.
    """
    partials, space = _search_space(l4, order)
    return [_combine(l4.ring, partials, vec) for vec in space]


# 2^61 - 1, a prime: the modulus of the squarefree guard on the chain's curve
_GUARD_PRIME = (1 << 61) - 1


def _schrodinger_square(l4: DiffOp):
    """(V, W) with L4 = (D^2 + V)^2 + W over Q[x], or None if L4 is not of
    that form (monic of order 4, no D^3 term, D^1 coefficient 2V').

    Exactly the inverse of :func:`families._l4_from`, which builds
    L4 = D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W): V is half the D^2
    coefficient and W the D^0 coefficient less V'' + V^2."""
    if not _over_qx(l4.ring) or l4.order != 4 or not l4.is_monic():
        return None
    a0, a1, a2, a3, _ = l4.coeffs
    v = a2 * Fraction(1, 2)
    dv = v.derive()
    if not a3.is_zero() or a1 != dv * 2:
        return None
    return v, a0 - dv.derive() - v * v


def _chain_pair(l4: DiffOp, order: int):
    """(terms, F) from the chain of the module docstring, or None.

    None unless ``order`` is 4g + 2 with g >= 1, L4 is (D^2 + V)^2 + W over
    Q[x] and the chain has exactly one solution with a_g = 1.  terms[i] is
    a_i D^2 - a_i' D + a_i V + a_i''/2, so M' = sum_i terms[i] L4^i
    (:func:`rings.multipoly.horner`), and F in Q[z] is the chain's first
    integral at x = 0.
    """
    vw = _schrodinger_square(l4)
    if vw is None or order % 4 != 2 or order < 6:
        return None
    g = (order - 2) // 4
    ring = l4.ring
    v, w = vw
    dv, dw = v.derive(), w.derive()
    # E0 = D^5 + 4V D^3 + 6V' D^2 + 2(V'' - 2W) D - 2W'
    e0 = ((-2, dw), (2, dv.derive() - w * 2), (6, dv), (4, v), (0, None), (1, ring.one))
    u, e = [ring.one], []
    for _ in range(g + 1):
        derivs = _derivatives(u[-1], 5)
        e.append(ring.sum_products((c, p, dk) for (c, p), dk in zip(e0, derivs) if c))
        u.append(_integral(ring, e[-1], 4))
    # a_i = sum_(j >= i) k_j u_(j-i) with k_g = 1, so E0(a_0) = sum_j k_j E0(u_j)
    rows: dict = {}
    for j, ej in enumerate(e):
        for (x_power,), c in ej.terms.items():
            rows.setdefault(x_power, {})[j] = c
    space = nullspace(list(rows.values()), g + 1)
    if len(space) != 1 or not space[0][g]:
        return None
    k = [ring.const(c / space[0][g]) for c in space[0]]
    a = [ring.sum_products((1, k[j], u[j - i]) for j in range(i, g + 1)) for i in range(g + 1)]
    terms = []
    for ai in a:
        dai = ai.derive()
        ddai = dai.derive()
        terms.append(DiffOp(ring, [ai * v + ddai * Fraction(1, 2), -dai, ai]))
    # 4F = 4(z - W)Q^2 + Q''^2 - 2Q'Q''' + 2Q Q'''' + 8V Q Q'' - 4V Q'^2 + 4V' Q Q'
    # at x = 0, with q[r] = Q^(r)(0, z)
    q = [_Z.from_terms({(i,): factorial(r) * ai.terms.get((r,), 0) for i, ai in enumerate(a)})
         for r in range(5)]
    v0, dv0, w0 = (p.constant_term() for p in (v, dv, w))
    f = _Z.sum_products([
        (4, _Z.var("z") - w0, q[0] * q[0]), (1, q[2], q[2]), (-2, q[1], q[3]),
        (2, q[0], q[4]), (8, q[0] * v0, q[2]), (-4, q[1] * v0, q[1]), (4, q[0] * dv0, q[1]),
    ]) * Fraction(1, 4)
    return terms, f


def _squarefree_mod_p(f) -> bool:
    """True if f in Q[z] is monic and gcd(f, f') = 1 mod :data:`_GUARD_PRIME`.

    False when the prime divides f's denominator.  True proves f squarefree
    over Q: a square factor h^2 of the monic f can be taken monic with
    p-integral coefficients (Gauss's lemma), and its image mod p, of the
    same positive degree, would divide both f and f' mod p.
    """
    p = _GUARD_PRIME
    den, nums = f.dense()
    if not nums or nums[-1] != den or den % p == 0:
        return False
    scale = pow(den, -1, p)
    a = [c * scale % p for c in nums]
    b = [e * c % p for e, c in enumerate(a)][1:]
    while b and not b[-1]:
        b.pop()
    while b:  # Euclid: a, b = b, a mod b
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            a = a[:shift] + [(ai - c * bi) % p for ai, bi in zip(a[shift:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _chain_spans(terms: list, f) -> bool:
    """True when C(L4) = Q[L4] + Q[L4] M' is proven (the module docstring).

    F = z^e F1 with F1(0) != 0 and F0 = z^(e mod 2) F1 must have F1
    squarefree (:func:`_squarefree_mod_p`) and deg F0 >= 3, and when e >= 2
    L4 must not right-divide M' = sum_i terms[i] L4^i.  The remainder of
    that division is terms[0], as the Horner form of M'
    (:func:`rings.multipoly.horner`) shows, so no operator is formed.
    """
    den, nums = f.dense()
    e = next((i for i, c in enumerate(nums) if c), len(nums))
    deg_f0 = len(nums) - 1 - 2 * (e // 2)
    if deg_f0 < 3 or not _squarefree_mod_p(_Z.from_dense(den, nums[e:])):
        return False
    return e < 2 or not terms[0].is_zero()


def _normal_form(terms: list, l4: DiffOp) -> list:
    """``terms`` less p_k on the D^0 coefficient of terms[k], k = 0 .. g.

    The p_k make sum_i terms[i] L4^i less p(L4) free of constant terms on
    every D^(4k) coefficient.  Writing r_k and t_kj for the constant terms
    of the D^(4k) coefficients of sum_i terms[i] L4^i and of L4^j, that
    asks r_k = sum_(j >= k) p_j t_kj, triangular with t_kk = 1 (L4^j has
    order 4j).  Only values at x = 0 enter, and no L4^j is formed: in
    P L4 = sum C(i, s) p_i l_j^(s) D^(i+j-s) the derivatives fall on L4's
    coefficients l_j alone, so the values at 0 of P L4's coefficients
    follow from those of P's.  They are kept as integers over one
    denominator per vector.
    """
    lden = lcm(*(c.denominator for lj in l4.coeffs for c in lj.terms.values()))
    jet = [(j, s, factorial(s) * c.numerator * (lden // c.denominator))
           for j, lj in enumerate(l4.coeffs) for (s,), c in lj.terms.items()]

    def times_l4(nums):  # numerators over d -> those of P L4 over d * lden
        out = [0] * (len(nums) + 4)
        for i, p in enumerate(nums):
            if p:
                for j, s, c in jet:
                    if s <= i:
                        out[i + j - s] += comb(i, s) * p * c
        return out

    consts = [[c.constant_term() for c in t.coeffs] for t in terms]
    den = lcm(*(c.denominator for row in consts for c in row))
    at0 = []  # values at 0 of the coefficients of sum_i terms[i] L4^i, over den
    for row in reversed(consts):
        if at0:
            at0, den = times_l4(at0), den * lden
        at0 += [0] * (len(row) - len(at0))
        for i, c in enumerate(row):
            at0[i] += c.numerator * (den // c.denominator)
    powers = [[1]]  # values at 0 of the coefficients of L4^j, over lden^j
    for _ in range(len(terms) - 1):
        powers.append(times_l4(powers[-1]))
    shifts = [0] * len(terms)
    for k in range(len(terms) - 1, -1, -1):
        shifts[k] = Fraction(at0[4 * k], den) - sum(
            (shifts[j] * Fraction(powers[j][4 * k], lden ** j)
             for j in range(k + 1, len(terms))), Fraction(0))
    return [t - DiffOp.identity(l4.ring).scale(c) if c else t for t, c in zip(terms, shifts)]


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
    4k is a free column and c_(4k) = 0.

    The search builds only that operator from its null vector; the orders
    of the others are read off their vectors (the vector of free column K
    is zero above K).

    At N = 4g + 2 the chain of the module docstring is tried first, and its
    M' less p(L4) (:func:`_normal_form`) is returned when its guard holds
    (:func:`_chain_spans`).  The module docstring proves that it is then the
    same null vector; every other case runs the search.

    Raises :class:`CommutingOperatorNotFound` when the space has no operator
    of order N, which proves that no operator of order N over Q[x] commutes
    with L4, and :class:`SpectralPairsError` unless M passes the exact check
    [L4, M] = 0 by direct commutator expansion, on either path.  M is
    returned marked with ``l4`` (:class:`curves._Commuting`), so that
    :func:`spectral_curve` and :func:`hyperelliptic_pair` given this same
    ``l4`` object do not expand the commutator again.
    """
    chain = _chain_pair(l4, target_order)
    if chain is not None and _chain_spans(*chain):
        m = horner(_normal_form(chain[0], l4), l4, DiffOp.zero(l4.ring))
    else:
        partials, space = _search_space(l4, target_order)
        orders = [max(k for k, c in enumerate(vec) if c) for vec in space]
        if target_order not in orders:
            raise CommutingOperatorNotFound(
                f"no operator of order {target_order} over Q[x] commutes with L4; "
                f"those of order <= {target_order} have orders {orders}"
            )
        m = _combine(l4.ring, partials, space[orders.index(target_order)])
    if not l4.commutator(m).is_zero():
        raise SpectralPairsError("solver output failed exact commutator check")
    return _Commuting(m, l4)


def spectral_curve(l4: DiffOp, m: DiffOp) -> SpectralCurve:
    """Squarefree normalized R(z, w) with R(L4, M) = 0.

    One kernel basis, at truncation max(8, ord M + 3), is enough: a longer
    one agrees with it on every coefficient :func:`action_matrix` reads (see
    the module docstring).  The zero operator has det(w I - 0) = w^4 and so
    the curve w.  [L4, M] = 0 is expanded unless ``m`` is marked with this
    ``l4`` (:func:`curves._kernel_action`).
    """
    action = _kernel_action(l4, m)
    if action is None:
        raise SpectralPairsError("operators do not commute")
    return squarefree_normalize(charpoly_w(action))


def hyperelliptic_pair(l4: DiffOp, m: DiffOp):
    """(M', R) with R(z, w) = w^2 - F(z) and R(L4, M') = 0.

    The curve is read off the action matrix A = A(M) on ker(L4 - z) in
    closed form, with no characteristic polynomial.  [L4, M] = 0 is proven
    (expanded here unless ``m`` is marked with this ``l4`` object, as
    :func:`find_commuting_operator` returns it), so det(w I - A) = R^l with
    R irreducible and monic in w over Q[z]
    (:func:`curves.squarefree_normalize`), and deg_w R is 1, 2 or 4.
    R(z, A) = 0, and R is irreducible over Q(z) (Gauss), so R is the
    minimal polynomial of A.  With b/2 = -tr(A)/4 in Q[z] and A' = A +
    (b/2) I, tr A' = 0, and the minimal polynomial of A' is R(z, w - b/2):

    - A' = 0 exactly when A is scalar, that is deg_w R = 1: a scalar A is
      tr(A)/4 I.  This raises :class:`NotCoveredError` (w-degree 1).
    - A' != 0 and A'^2 = F I, tested exactly (F = A'^2[0][0], every
      diagonal entry F and every off-diagonal entry 0): A' is not scalar,
      as tr A' = 0, so its minimal polynomial is w^2 - F, and the curve of
      M' = M + b(L4)/2 is w^2 - F.  If deg_w R = 2, det(w I - A) = R^2
      gives R = w^2 + b w + c (the w^3 coefficient of R^2 is 2b = -tr A),
      so A'^2 = (b^2/4 - c) I and the test holds: the curve is the square
      completion w^2 + c - b^2/4 of R.
    - Otherwise deg_w R = 4, which raises :class:`NotCoveredError`
      (w-degree 4).

    b(L4)/2 comes from :func:`curves._at_operator`.  M' is returned marked
    with ``l4`` and carries [I, A', A'^2] (:class:`curves._Commuting`): M' - M
    lies in Q[L4], so M' commutes with L4, and L4^i acts as z^i on
    ker(L4 - z), so A(M') = A'.
    :meth:`curves.SpectralCurve.eval_at_operators` decides R(L4, M') = 0 on
    the carried A'^2 with no matrix product.  A non-commuting pair raises
    :class:`SpectralPairsError`.
    """
    action = _kernel_action(l4, m)
    if action is None:
        raise SpectralPairsError("operators do not commute")
    half_b = _Z.sum_products((1, action[i][i], _Z.one) for i in range(4)) * Fraction(-1, 4)
    shifted = [[e + half_b if r == s else e for s, e in enumerate(row)]
               for r, row in enumerate(action)]
    if all(e.is_zero() for row in shifted for e in row):
        raise NotCoveredError("not a rank-two curve: w-degree 1")
    powers = _matrix_powers(shifted, 2)
    f = powers[2][0][0]
    if any(e != (f if r == s else _Z.zero) for r, row in enumerate(powers[2])
           for s, e in enumerate(row)):
        raise NotCoveredError("not a rank-two curve: w-degree 4")
    m_prime = _Commuting(m + _at_operator(half_b, l4), l4, powers)
    return m_prime, _curve([_Z.one, _Z.zero, -f])
