import importlib.util
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spectral_pairs
from spectral_pairs import centralizer, curves
from spectral_pairs.centralizer import (
    action_matrix,
    build_ansatz_system,
    commuting_operators,
    find_commuting_operator,
    hyperelliptic_pair,
    series_kernel_basis,
    spectral_curve,
)
from spectral_pairs.curves import SpectralCurve, charpoly_w, squarefree_normalize
from spectral_pairs.errors import (
    CommutingOperatorNotFound,
    NotCoveredError,
    SpectralPairsError,
    TruncationError,
)
from spectral_pairs.families import (
    CUBIC,
    QUARTIC,
    FamilySpec,
    make_L4,
    make_schrodinger,
    solve_quartic_constraint,
)
from spectral_pairs.linalg import nullspace
from spectral_pairs.operators import DiffOp, _columns
from spectral_pairs.rings import PolyRing
from spectral_pairs.rings.multipoly import horner
from spectral_pairs.verify import sample_spec

from conftest import (
    commutator_coeff_oracle,
    commuting_operators_oracle,
    dense_oracle,
    derivatives_oracle,
    eval_at_operators_oracle,
    gauge_normalize_oracle,
    hyperelliptic_pair_oracle,
    spectral_curve_oracle,
    sympy_squarefree_curve,
)

XRING = PolyRing(("x",))
XZRING = PolyRing(("x", "z"))
ZRING = PolyRing(("z",))
PURE_CUBIC = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 1))


def _horner(coeffs, a):
    """sum_i coeffs[i] a^i for operators coeffs[i]."""
    return horner(coeffs, a, DiffOp.zero(a.ring))


@pytest.fixture(scope="module")
def x3_l4():
    return make_L4(PURE_CUBIC)


@pytest.fixture(scope="module")
def x3_m(x3_l4):
    return find_commuting_operator(x3_l4, 6)


# -- the linear ansatz ---------------------------------------------------------------


def test_ansatz_kernel_contains_known_solutions(x3_l4):
    system = build_ansatz_system(x3_l4, 6, 9)
    basis = system.nullspace()
    assert len(basis) >= 2  # at least {1, L4} plus the genuine order-6 partner

    def as_vector(op):
        col_index = {c: k for k, c in enumerate(system.columns)}
        vec = [Fraction(0)] * len(system.columns)
        for i, coeff in enumerate(op.coeffs):
            for e, c in coeff.terms.items():
                vec[col_index[(i, e[0])]] = c
        return vec

    for op in (DiffOp.identity(XRING), x3_l4):
        vec = as_vector(op)
        for row in system.rows:
            assert sum(vec[k] * c for k, c in row.items()) == 0


def test_partner_commutes_and_is_monic_order_6(x3_l4, x3_m):
    assert x3_m.order == 6
    assert x3_m.is_monic()
    assert x3_l4.commutator(x3_m).is_zero()


def test_gauge_normalization_is_idempotent(x3_l4, x3_m):
    assert gauge_normalize_oracle(x3_m, x3_l4, 1) == x3_m
    # the constant term of the d^0 and d^4 coefficients vanishes
    assert x3_m.coeff(0).constant_term() == 0
    assert x3_m.coeff(4).constant_term() == 0


def test_square_potential_partner_is_power_of_order_2_factor():
    spec = FamilySpec(CUBIC, 1, alphas=(1, 2, 0, 0))  # a3 = 0: L4 = L2^2
    l2 = make_schrodinger(spec)
    l4 = make_L4(spec)
    assert l4 == l2 * l2
    m = find_commuting_operator(l4, 6)
    assert m.order == 6
    assert l4.commutator(m).is_zero()
    # everything commuting with L2^2 here is a polynomial in L2 itself
    assert l2.commutator(m).is_zero()
    assert l2.commutator(l2 * l2 * l2).is_zero()


def test_parameterized_input_rejected():
    l4 = make_L4(FamilySpec(CUBIC, 2))
    with pytest.raises(SpectralPairsError):
        find_commuting_operator(l4, 10)


# -- back-substitution against the degree-bounded ansatz ---------------------------


def _ansatz_null_operators(l4, order, degree_bound):
    """The ansatz's null space at one degree bound, as operators."""
    system = build_ansatz_system(l4, order, degree_bound)
    ops = []
    for vec in system.nullspace():
        terms: dict = {}
        for (i, j), c in zip(system.columns, vec):
            if c:
                terms.setdefault(i, {})[(j,)] = c
        ops.append(DiffOp(l4.ring, [l4.ring.from_terms(terms.get(i, {}))
                                    for i in range(order + 1)]))
    return ops


def _ansatz_partner(l4, order):
    """The partner search as the degree-bounded ansatz made it, or None.

    Bounds 6g+3 .. 12g+6 in steps of 3; the first null vector with a nonzero
    order-``order`` entry, scaled monic and gauge normalized.
    """
    g = max((order - 2) // 4, 1)
    for d in range(6 * g + 3, 12 * g + 7, 3):
        m = next((op for op in _ansatz_null_operators(l4, order, d) if op.order == order),
                 None)
        if m is not None:
            m = m.scale(l4.ring.const(1 / m.coeffs[-1].as_fraction()))
            return gauge_normalize_oracle(m, l4, g)
    return None


def _seeded(family, genus, count, seed):
    rng = random.Random(seed)
    return [sample_spec(family, genus, rng).alphas for _ in range(count)]


_SEEDED_CUBICS = _seeded(CUBIC, 2, 3, 20141)
_PARTNER_INPUTS = (
    [(CUBIC, g, (0, 0, 0, 1)) for g in (1, 2, 3)]
    + [(CUBIC, 1, (1, 2, 0, 0))]  # a3 = 0: L4 = L2^2
    + [(CUBIC, 2, (4, 1, Fraction(-2, 3), -1))]
    + [(CUBIC, g, alphas) for g in (2, 1) for alphas in _SEEDED_CUBICS]
    + [(CUBIC, 3, (3, -2, 1, -1))]
    + [(QUARTIC, g, alphas) for g in (1, 2) for alphas in _seeded(QUARTIC, g, 2, 20142)]
)


@pytest.mark.parametrize(
    "family,g,alphas", _PARTNER_INPUTS,
    ids=[f"{f}-g{g}-{i}" for i, (f, g, _) in enumerate(_PARTNER_INPUTS)],
)
def test_partner_matches_degree_bounded_ansatz(family, g, alphas):
    l4 = make_L4(FamilySpec(family, g, alphas=alphas))
    m = find_commuting_operator(l4, 4 * g + 2)
    # the search leaves no constant term on D^(4k) to subtract (its docstring)
    assert gauge_normalize_oracle(m, l4, g) == m
    assert m == _ansatz_partner(l4, 4 * g + 2)


@pytest.mark.parametrize("order", [5, 7])
def test_absent_order_is_proven_absent(x3_l4, order):
    with pytest.raises(CommutingOperatorNotFound):
        find_commuting_operator(x3_l4, order)
    assert all(op.order != order for op in _ansatz_null_operators(x3_l4, order, 30))


@pytest.mark.parametrize("alphas", [(0, 0, 0, 1), (4, 1, Fraction(-2, 3), -1)])
def test_order_4_partner_is_l4_up_to_a_constant(alphas):
    # the gauge must not subtract L4 itself from an order-4 operator
    l4 = make_L4(FamilySpec(CUBIC, 2, alphas=alphas))
    m = find_commuting_operator(l4, 4)
    assert m.order == 4 and m.is_monic()
    assert l4.commutator(m).is_zero()
    assert (m - l4).order <= 0
    assert m.coeff(0).constant_term() == 0


def test_order_0_partner_is_the_identity(x3_l4):
    assert find_commuting_operator(x3_l4, 0) == DiffOp.identity(XRING)


def test_commuting_operators_of_pure_cubic(x3_l4, x3_m):
    space = commuting_operators(x3_l4, 7)
    assert [op.order for op in space] == [0, 4, 6]
    assert all(op.is_monic() for op in space)
    assert space[0] == DiffOp.identity(XRING)
    assert gauge_normalize_oracle(space[2], x3_l4, 1) == x3_m


def _in_span(op, space):
    """op as the combination of the echelon basis given by op's entries there.

    The entry of a commuting operator at order K is the constant term of its
    D^K coefficient, and each basis operator has entry 1 at its own order and
    0 at the others.
    """
    combo = DiffOp.zero(XRING)
    for b in space:
        c = op.coeff(int(b.order)).constant_term()
        combo = combo + b.scale(XRING.const(c))
    return combo == op


_small_poly = st.lists(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=0, max_size=3
).map(lambda cs: XRING.from_terms({(e,): c for e, c in enumerate(cs)}))


@settings(max_examples=25, deadline=None)
@given(st.lists(_small_poly, min_size=4, max_size=4), st.integers(4, 6))
def test_commuting_operators_of_random_monic_l4(lower, order):
    l4 = DiffOp(XRING, lower + [XRING.one])
    space = commuting_operators(l4, order)
    assert all(l4.commutator(b).is_zero() for b in space)
    # each basis operator is already in the normal form modulo powers of L4
    assert all(gauge_normalize_oracle(b, l4, int(b.order) // 4) == b for b in space)
    assert _in_span(DiffOp.identity(XRING), space)
    assert _in_span(l4, space)
    for op in _ansatz_null_operators(l4, order, 2):
        assert _in_span(op, space)


_big_rational = st.builds(
    Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)
)
_big_poly = st.lists(_big_rational, min_size=0, max_size=4).map(
    lambda cs: XRING.from_terms({(e,): c for e, c in enumerate(cs)})
)


def _is_normal(p) -> bool:
    """(d, numerators) with d > 0, no trailing zero and no common factor."""
    den, nums = p
    if not nums:
        return den == 1
    return (type(den) is int and den > 0 and all(type(c) is int for c in nums)
            and nums[-1] != 0 and gcd(den, *nums) == 1)


def test_normal_form_of_zero_and_of_scaled_numerators():
    assert XRING.zero.dense() == (1, [])
    assert XRING.const(0).dense() == (1, [])
    assert XRING.from_dense(6, [0, 0]).dense() == (1, [])
    assert XRING.sum_products([]).dense() == (1, [])
    assert XRING.sum_products([(3, XRING.from_dense(2, [1]), XRING.zero)]).dense() == (1, [])
    assert XRING.from_dense(6, [4, 0, -2, 0]).dense() == (3, [2, 0, -1])
    assert XRING.from_terms({(0,): Fraction(1, 2), (2,): Fraction(-2, 3)}).dense() \
        == (6, [3, 0, -4])
    p = XRING.from_dense(2, [0, 0, 1])
    assert [q.dense() for q in accumulate(range(3), lambda q, _: q.derive(), initial=p)] \
        == [(2, [0, 0, 1]), (1, [0, 1]), (1, [1]), (1, [])]


@settings(max_examples=30, deadline=None)
@given(st.lists(_big_poly, min_size=4, max_size=4), st.integers(0, 8))
def test_back_substitution_matches_the_fraction_oracle(lower, order):
    """Partials, the rows given to nullspace and the space equal the oracle's."""
    l4 = DiffOp(XRING, lower + [XRING.one])
    partials, rows, space = commuting_operators_oracle(l4, order)
    seen = []

    def recording(rows, ncols):
        seen.append(rows)
        return nullspace(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(centralizer, "nullspace", recording)
        got = commuting_operators(l4, order)
    assert [[list(r.items()) for r in rs] for rs in seen] == [[list(r.items()) for r in rows]]
    assert got == space and repr(got) == repr(space)

    cols = _columns(l4.coeffs, order)
    a = [derivatives_oracle(dense_oracle(c), order) for c in l4.coeffs]
    for k in range(order + 1):
        mk, lower = centralizer._partial_solution(XRING, cols, k)
        assert all(_is_normal(p.dense()) for p in mk + lower)
        assert [[Fraction(c, d) for c in nums] for d, nums in (p.dense() for p in mk)] \
            == [mj[0] for mj in partials[k]]
        assert [[Fraction(c, d) for c in nums] for d, nums in (p.dense() for p in lower)] \
            == [commutator_coeff_oracle(a, partials[k], r, 0) for r in range(3)]


@settings(max_examples=25, deadline=None)
@given(st.lists(_small_poly, min_size=4, max_size=4), st.integers(4, 7))
def test_hypothesis_spectral_curve_matches_sympy_squarefree_part(lower, order):
    """On random commuting pairs the root is sympy's monic sqf_part over Q(z)."""
    l4 = DiffOp(XRING, lower + [XRING.one])
    for m in commuting_operators(l4, order):
        basis = series_kernel_basis(l4, max(8, m.order + 3))
        raw = charpoly_w(action_matrix(m, basis))
        assert spectral_curve(l4, m) == sympy_squarefree_curve(raw)


# -- formal kernel series --------------------------------------------------------


def _lift(op):
    """An operator over Q[x] as one over Q[x, z]."""
    return DiffOp(XZRING, [c.map_to(XZRING) for c in op.coeffs])


def _taylor_poly(d):
    """The truncated series sum_k d_k x^k/k! as a polynomial over Q[x, z]."""
    x = XZRING.var("x")
    psi = XZRING.zero
    for k, dk in enumerate(d):
        psi = psi + dk.map_to(XZRING) * x ** k * Fraction(1, factorial(k))
    return psi


def test_kernel_basis_of_pure_d4():
    basis = series_kernel_basis(DiffOp.d(XRING, 4), 8)
    zring = basis[0][0].ring
    z = zring.var("z")
    assert basis[0][4] == z
    assert basis[0][8] == z * z
    for j, d in enumerate(basis):
        assert len(d) == 9
        assert d[:4] == [zring.one if k == j else zring.zero for k in range(4)]


def test_kernel_basis_satisfies_the_equation(x3_l4):
    """(L4 - z) psi vanishes at every x^k the cut at x^N leaves exact, k < N - 3."""
    trunc = 16
    z = XZRING.var("z")
    for d in series_kernel_basis(x3_l4, trunc):
        psi = _taylor_poly(d)
        defect = _lift(x3_l4).apply_to_poly(psi) - z * psi
        assert not defect.is_zero()
        assert min(defect.coefficients_in("x")) >= trunc - 3


def test_kernel_basis_truncation_floor(x3_l4):
    with pytest.raises(TruncationError):
        series_kernel_basis(x3_l4, 7)


def _c_recurrence_basis(l4, truncation):
    """The kernel basis by the recurrence on the Taylor coefficients c_k.

    The coefficient of x^m in (L4 - z) psi is solved for c_(m+4) over Q[z]
    with MultiPoly arithmetic and factorial denominators: an independent
    formulation of series_kernel_basis's Taylor-data recurrence, returned as
    its Taylor data d_k = k! c_k.  Scalars enter as constant polynomials, so
    MultiPoly's scalar product is not used.
    """
    zring = PolyRing(("z",))
    z = zring.var("z")
    a = {(i, e[0]): c for i, coeff in enumerate(l4.coeffs) for e, c in coeff.terms.items()}
    basis = []
    for j in range(4):
        c = [zring.zero] * (truncation + 1)
        c[j] = zring.const(Fraction(1, factorial(j)))
        for m in range(truncation - 3):
            total = zring.zero
            for (i, s), q in a.items():
                k = m - s + i
                if (i, s) != (4, 0) and k >= i and m >= s:
                    w = q * Fraction(factorial(k), factorial(k - i))
                    total = total + c[k] * zring.const(w)
            total = total - z * c[m]
            c[m + 4] = total * zring.const(Fraction(-factorial(m), factorial(m + 4)))
        basis.append([ck * zring.const(factorial(k)) for k, ck in enumerate(c)])
    return basis


@settings(max_examples=20, deadline=None)
@given(st.lists(_big_poly, min_size=4, max_size=4), st.integers(8, 20))
def test_kernel_basis_matches_the_c_recurrence(lower, truncation):
    l4 = DiffOp(XRING, lower + [XRING.one])
    assert series_kernel_basis(l4, truncation) == _c_recurrence_basis(l4, truncation)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_small_poly, min_size=4, max_size=4),
    st.integers(8, 20),
    st.integers(1, 20),
)
def test_kernel_basis_is_prefix_closed(lower, n, extra):
    """The basis at n + extra, cut to d_n, is the basis at n."""
    l4 = DiffOp(XRING, lower + [XRING.one])
    longer = series_kernel_basis(l4, n + extra)
    assert [d[:n + 1] for d in longer] == series_kernel_basis(l4, n)


@pytest.mark.parametrize("spec", [
    PURE_CUBIC,
    FamilySpec(CUBIC, 2, alphas=(4, 1, Fraction(-2, 3), -1)),
    FamilySpec(QUARTIC, 1, alphas=(0, 0, 1, 0, 1)),
])
def test_family_kernel_basis_matches_the_c_recurrence(spec):
    l4 = make_L4(spec)
    for n in (8, 21, 34):
        assert series_kernel_basis(l4, n) == _c_recurrence_basis(l4, n)


# -- action matrices and curves ---------------------------------------------------


def test_identity_acts_as_identity(x3_l4):
    basis = series_kernel_basis(x3_l4, 16)
    mat = action_matrix(DiffOp.identity(XRING), basis)
    for i in range(4):
        for j in range(4):
            assert mat[i][j] == (ZRING.one if i == j else ZRING.zero)


def test_l4_acts_as_z(x3_l4):
    basis = series_kernel_basis(x3_l4, 16)
    mat = action_matrix(x3_l4, basis)
    for i in range(4):
        for j in range(4):
            assert mat[i][j] == (ZRING.var("z") if i == j else ZRING.zero)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_small_poly, min_size=4, max_size=4),
    st.lists(_big_poly, min_size=1, max_size=11),
    st.integers(0, 5),
)
def test_action_matrix_matches_the_series_image(lower, m_coeffs, extra):
    """A[k][j] = k! * (coefficient of x^k in M psi_j), k < 4, by direct derivation."""
    l4 = DiffOp(XRING, lower + [XRING.one])
    m = DiffOp(XRING, m_coeffs)
    order = 0 if m.is_zero() else m.order
    basis = series_kernel_basis(l4, max(order + 3 + extra, 8))
    expected = [[None] * 4 for _ in range(4)]
    for j, d in enumerate(basis):
        image = _lift(m).apply_to_poly(_taylor_poly(d)).coefficients_in("x")
        for k in range(4):
            expected[k][j] = image.get(k, ZRING.zero) * factorial(k)
    assert action_matrix(m, basis) == expected


@pytest.mark.parametrize("order", [6, 10, 14])
def test_action_matrix_needs_truncation_ord_m_plus_3(order):
    l4 = make_L4(FamilySpec(CUBIC, (order - 2) // 4, alphas=(0, 0, 0, 1)))
    m = find_commuting_operator(l4, order)
    full = action_matrix(m, series_kernel_basis(l4, order + 12))
    assert action_matrix(m, series_kernel_basis(l4, order + 3)) == full
    with pytest.raises(TruncationError):
        action_matrix(m, series_kernel_basis(l4, order + 2))


def test_action_matrix_stable_under_truncation(x3_l4, x3_m):
    mats = [
        action_matrix(x3_m, series_kernel_basis(x3_l4, n))
        for n in (18, 26, 34)
    ]
    assert mats[0] == mats[1] == mats[2]


def test_degenerate_curve_of_l4_with_itself(x3_l4):
    curve = spectral_curve(x3_l4, x3_l4)
    assert curve == SpectralCurve({(0, 1): 1, (1, 0): -1})  # w - z
    assert curve.eval_at_operators(x3_l4, x3_l4).is_zero()


def test_spectral_curve_rejects_non_commuting(x3_l4):
    with pytest.raises(SpectralPairsError):
        spectral_curve(x3_l4, DiffOp.d(XRING))


def test_raw_characteristic_polynomial_is_a_perfect_square(x3_l4, x3_m):
    basis = series_kernel_basis(x3_l4, 18)
    raw = charpoly_w(action_matrix(x3_m, basis))
    sqf = squarefree_normalize(raw)
    assert raw == sqf * sqf


def test_hyperelliptic_curve_of_first_instance(x3_l4, x3_m):
    m2, curve = hyperelliptic_pair(x3_l4, x3_m)
    assert curve == SpectralCurve({(0, 2): 1, (3, 0): -1})  # w^2 - z^3
    assert curve.eval_at_operators(x3_l4, m2).is_zero()
    assert not any(curve.w_slice(1))


def test_curve_of_the_zero_operator_is_w(x3_l4):
    zero = DiffOp.zero(XRING)
    curve = spectral_curve(x3_l4, zero)
    assert curve == SpectralCurve({(0, 1): 1})  # det(w I - 0) = w^4
    assert curve.eval_at_operators(x3_l4, zero).is_zero()
    with pytest.raises(NotCoveredError):
        hyperelliptic_pair(x3_l4, zero)


_GENERIC_CUBIC = (4, 1, Fraction(-2, 3), -1)
_QUARTIC_ALPHAS = (Fraction(-4, 3), Fraction(13, 12), -2, Fraction(-2, 3), Fraction(2, 3))
_SEEDED_CUBICS = tuple(sample_spec(CUBIC, 2, random.Random(seed)).alphas for seed in (1, 2, 3))

# (family, g, alphas, partner order)
_PAIR_CASES = (
    [(CUBIC, g, (0, 0, 0, 1), 4 * g + 2) for g in (1, 2, 3)]
    + [(CUBIC, g, _GENERIC_CUBIC, 4 * g + 2) for g in (1, 2, 3, 4)]
    + [(CUBIC, 1, alphas, 6) for alphas in _SEEDED_CUBICS]
    + [(QUARTIC, g, _QUARTIC_ALPHAS, 4 * g + 2) for g in (1, 2)]
    + [(CUBIC, 1, (0, 0, 0, 1), 10)]  # curve w^2 - z^5
)


@lru_cache(maxsize=None)
def _pair_input(case):
    family, g, alphas, order = case
    l4 = make_L4(FamilySpec(family, g, alphas=alphas))
    return l4, find_commuting_operator(l4, order)


def _case_id(case):
    family, g, alphas, order = case
    return f"{family}-g{g}-order{order}-" + "_".join(map(str, alphas))


@pytest.mark.parametrize("case", _PAIR_CASES, ids=_case_id)
def test_square_completion_by_substitution_matches_a_second_curve(case, monkeypatch):
    l4, m = _pair_input(case)

    def refuse(*args):
        raise AssertionError("b(L4)/2 is formed by Horner, not by evaluating a curve")

    with monkeypatch.context() as patched:
        patched.setattr(SpectralCurve, "eval_at_operators", refuse)
        m2, curve = hyperelliptic_pair(l4, m)
    m2_old, curve_old = hyperelliptic_pair_oracle(l4, m)
    assert curve == curve_old and repr(curve) == repr(curve_old)
    assert m2 == m2_old and repr(m2) == repr(m2_old)
    assert curve.eval_at_operators(l4, m2).is_zero()
    assert (m2 != m) == any(spectral_curve(l4, m).w_slice(1))


def test_some_square_completion_case_shifts():
    assert any(any(spectral_curve(*_pair_input(case)).w_slice(1)) for case in _PAIR_CASES)


def test_curve_path_does_each_exact_step_once(monkeypatch):
    # find -> pair -> check on one L4 object: find's exact check is the one
    # expansion of [L4, M], pair builds the one basis and matrix and reads
    # the curve off tr A and A'^2 with no characteristic polynomial, and the
    # check decides on the powers that M' carries, with no composition
    l4 = make_L4(FamilySpec(CUBIC, 2, alphas=_GENERIC_CUBIC))
    calls = {"basis": 0, "matrix": 0, "charpoly": 0, "commutator": 0, "compose": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (centralizer, curves):
        monkeypatch.setattr(module, "series_kernel_basis",
                            counted("basis", module.series_kernel_basis))
        monkeypatch.setattr(module, "action_matrix", counted("matrix", module.action_matrix))
        monkeypatch.setattr(module, "charpoly_w", counted("charpoly", module.charpoly_w))
    monkeypatch.setattr(DiffOp, "commutator", counted("commutator", DiffOp.commutator))
    m = find_commuting_operator(l4, 10)
    assert calls == {"basis": 0, "matrix": 0, "charpoly": 0, "commutator": 1, "compose": 0}
    m2, curve = hyperelliptic_pair(l4, m)
    assert m2 != m  # this case completes the square
    assert calls == {"basis": 1, "matrix": 1, "charpoly": 0, "commutator": 1, "compose": 0}
    monkeypatch.setattr(DiffOp, "__mul__", counted("compose", DiffOp.__mul__))
    assert curve.eval_at_operators(l4, m2).is_zero()
    assert calls == {"basis": 1, "matrix": 1, "charpoly": 0, "commutator": 1, "compose": 0}


def test_benchmark_tracer_tallies_the_curve_path():
    # perfbench/tracing.py wraps the package's layers by name, so a src change
    # that drops one of those names fails here as well as in the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:  # a failed install leaves its earlier patches, which uninstall undoes
        tracer.install(spectral_pairs)
        tracer.active = True
        l4 = make_L4(FamilySpec(CUBIC, 2, alphas=_GENERIC_CUBIC))
        m2, curve = centralizer.hyperelliptic_pair(l4, centralizer.find_commuting_operator(l4, 10))
        identity = curve.eval_at_operators(l4, m2)
    finally:
        tracer.uninstall()
    assert identity.is_zero()
    # one basis and one matrix for the curve; the check reads the matrix M'
    # carries, and find's exact check is the one commutator expansion
    assert tracer.calls("centralizer.action_matrix") == 1
    assert tracer.calls("centralizer.series_kernel_basis") == 1
    assert tracer.calls("operators.commutator") == 1


# _PAIR_CASES plus V = x^3 at g = 4 and V = x^4 at g = 2 (V = x^3 at g = 3 is in it)
_DIFFERENTIAL_CASES = _PAIR_CASES + [
    (CUBIC, 4, (0, 0, 0, 1), 18),
    (QUARTIC, 2, (0, 0, 0, 0, 1), 10),
]


def _plain(op):
    """An unmarked copy, which takes the direct expansion of [L4, op]."""
    return DiffOp(op.ring, op.coeffs)


@pytest.mark.parametrize("case", _DIFFERENTIAL_CASES, ids=_case_id)
def test_carried_proof_and_matrix_match_the_direct_expansion(case):
    l4, m = _pair_input(case)
    assert isinstance(m, curves._Commuting) and m.l4 is l4 and m.powers is None
    # a chain partner carries its terms, and A(M) read off them is M's own
    assert (m.terms is None) == (case in _FALLBACK_CASES)
    if m.terms is not None:
        _assert_terms_action_is_the_long_basis_action(l4, m)
    m2, curve = hyperelliptic_pair(l4, m)
    verdict = curve.eval_at_operators(l4, m2).is_zero()
    plain_m2, plain_curve = hyperelliptic_pair(l4, _plain(m))
    plain_verdict = plain_curve.eval_at_operators(l4, _plain(plain_m2)).is_zero()
    assert curve == plain_curve and repr(curve) == repr(plain_curve)
    assert m2 == plain_m2 and repr(m2) == repr(plain_m2)
    assert verdict and plain_verdict
    assert m2.l4 is l4
    assert m2.powers == curves._matrix_powers(
        action_matrix(m2, series_kernel_basis(l4, m2.order + 3)), 2)


def _counted_commutators(monkeypatch) -> list:
    count = [0]
    commutator = DiffOp.commutator

    def counted(self, other):
        count[0] += 1
        return commutator(self, other)

    monkeypatch.setattr(DiffOp, "commutator", counted)
    return count


def test_operators_formed_from_a_marked_partner_are_expanded(monkeypatch):
    l4, m = _pair_input((CUBIC, 2, (0, 0, 0, 1), 10))
    m2, curve = hyperelliptic_pair(l4, m)
    x_d = DiffOp(XRING, [XRING.zero, XRING.var("x")])
    count = _counted_commutators(monkeypatch)
    for derived, commutes in ((m2 + x_d, False), (m2.scale(1), True), (-(-m2), True)):
        assert type(derived) is DiffOp
        count[0] = 0
        assert curve.eval_at_operators(l4, derived).is_zero() == commutes
        assert count[0] == 1
    count[0] = 0
    assert curve.eval_at_operators(l4, m2).is_zero()
    assert count[0] == 0


def test_the_mark_holds_only_for_its_own_l4_object(monkeypatch):
    l4, m = _pair_input((CUBIC, 2, _GENERIC_CUBIC, 10))
    twin = make_L4(FamilySpec(CUBIC, 2, alphas=_GENERIC_CUBIC))
    assert twin == l4 and twin is not l4
    count = _counted_commutators(monkeypatch)
    assert spectral_curve(twin, m) == spectral_curve(l4, m)
    assert count[0] == 1
    count[0] = 0
    m2, curve = hyperelliptic_pair(twin, m)
    assert count[0] == 1 and m2.l4 is twin
    count[0] = 0
    assert curve.eval_at_operators(l4, m2).is_zero()  # marked for twin, given l4
    assert count[0] == 1
    # another spec's L4: the mark does not vouch for it
    other = make_L4(FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)))
    count[0] = 0
    with pytest.raises(SpectralPairsError, match="operators do not commute"):
        spectral_curve(other, m)
    with pytest.raises(SpectralPairsError, match="operators do not commute"):
        hyperelliptic_pair(other, m2)
    assert count[0] == 2
    identity = curve.eval_at_operators(other, m2)
    assert count[0] == 3
    assert identity == eval_at_operators_oracle(curve, other, m2)
    assert not identity.is_zero()


def test_a_perturbed_curve_on_a_marked_partner_matches_the_oracle():
    l4, m = _pair_input((CUBIC, 2, _GENERIC_CUBIC, 10))
    m2, curve = hyperelliptic_pair(l4, m)
    assert isinstance(m2, curves._Commuting) and m2.powers is not None
    for key in ((0, 0), (2, 0)):
        perturbed = _shifted(curve, key, Fraction(-2, 3))
        identity = perturbed.eval_at_operators(l4, m2)
        assert not identity.is_zero()
        assert identity == eval_at_operators_oracle(perturbed, l4, m2)


@pytest.mark.parametrize("case", [(CUBIC, 2, _GENERIC_CUBIC, 10), (CUBIC, 1, (0, 0, 0, 1), 6)],
                         ids=["chain", "search"])
def test_curve_path_forms_no_product_in_q_z_w(case, monkeypatch):
    # the chain partner at g = 2, and V = x^3 at g = 1, whose F = z^3 takes the search
    family, g, alphas, order = case
    l4 = make_L4(FamilySpec(family, g, alphas=alphas))
    expected = hyperelliptic_pair(l4, find_commuting_operator(l4, order))

    def refuse(triples):
        raise AssertionError("a product in Q[z, w] was formed")

    monkeypatch.setattr(curves._ZW, "sum_products", refuse)
    m2, curve = hyperelliptic_pair(l4, find_commuting_operator(l4, order))
    assert curve.eval_at_operators(l4, m2).is_zero()
    assert curve == expected[1] and repr(curve) == repr(expected[1])
    assert m2 == expected[0]


def _shifted(curve, key, c):
    terms = dict(curve.terms)
    terms[key] = terms.get(key, 0) + c
    return SpectralCurve(terms)


@pytest.mark.parametrize("case", _PAIR_CASES, ids=_case_id)
def test_kernel_action_check_agrees_with_the_operator_oracle(case):
    l4, m = _pair_input(case)
    m2, curve = hyperelliptic_pair(l4, m)
    assert curve.eval_at_operators(l4, m2).is_zero()
    assert eval_at_operators_oracle(curve, l4, m2).is_zero()
    # 1/3 added to the constant term and to the z coefficient of the curve
    for key in ((0, 0), (1, 0)):
        shifted = _shifted(curve, key, Fraction(1, 3))
        identity = shifted.eval_at_operators(l4, m2)
        assert not identity.is_zero()
        assert identity == eval_at_operators_oracle(shifted, l4, m2)


def test_kernel_action_check_needs_a_commuting_pair(monkeypatch):
    l4, m = _pair_input((CUBIC, 2, (0, 0, 0, 1), 10))
    m2, curve = hyperelliptic_pair(l4, m)
    b = m2 + DiffOp(XRING, [XRING.zero, XRING.var("x")])  # M' + x D
    assert not l4.commutator(b).is_zero()
    bases = []
    basis = curves.series_kernel_basis
    monkeypatch.setattr(curves, "series_kernel_basis",
                        lambda *args: bases.append(args) or basis(*args))
    identity = curve.eval_at_operators(l4, b)
    assert bases == []  # the zero test is not taken
    assert not identity.is_zero()
    assert identity == eval_at_operators_oracle(curve, l4, b)


def test_kernel_action_check_composes_nothing(monkeypatch):
    # criterion 7's pair: V = x^3 at g = 2, the order-10 partner
    l4, m = _pair_input((CUBIC, 2, (0, 0, 0, 1), 10))
    m2, curve = hyperelliptic_pair(l4, m)

    def refuse(self, other):
        raise RuntimeError("an operator composition was formed")

    monkeypatch.setattr(DiffOp, "__mul__", refuse)
    assert curve.eval_at_operators(l4, m2).is_zero()
    # a nonzero result is still formed by composition
    with pytest.raises(RuntimeError, match="composition"):
        _shifted(curve, (0, 0), Fraction(1, 3)).eval_at_operators(l4, m2)


def test_curve_path_forms_no_power_list_and_scales_only_the_identity(monkeypatch):
    l4, m = _pair_input((CUBIC, 2, _GENERIC_CUBIC, 10))
    scaled_orders = []

    def recorded_scale(op, c):
        scaled_orders.append(op.order)
        return scale(op, c)

    scale = DiffOp.scale
    monkeypatch.setattr(DiffOp, "scale", recorded_scale)
    m2, curve = hyperelliptic_pair(l4, m)
    assert m2 != m  # b(L4)/2 is evaluated
    assert curve.eval_at_operators(l4, m2).is_zero()
    assert not hasattr(curves, "_powers") and not hasattr(centralizer, "_powers")
    assert scaled_orders and max(scaled_orders) == 0


_small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _commuting_pairs(draw):
    """(a, b) with [a, b] = 0: (D^p, D^q), (L4, L4) or (L4, p(L4) + c M6)."""
    kind = draw(st.sampled_from(("d", "l4", "m6")))
    if kind == "d":
        p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return DiffOp.d(XRING, p), DiffOp.d(XRING, q)
    l4, m6 = _pair_input((CUBIC, 1, (0, 0, 0, 1), 6))
    if kind == "l4":
        return l4, l4
    m = m6.scale(XRING.const(draw(_small_rational)))
    for k, pk in enumerate(draw(st.lists(_small_rational, min_size=1, max_size=2))):
        m = m + (l4 ** k).scale(XRING.const(pk))
    return l4, m


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)), _small_rational,
                    max_size=6),
    _commuting_pairs(),
)
def test_eval_at_operators_matches_the_power_list_oracle(terms, pair):
    a, b = pair
    curve = SpectralCurve(terms)
    assert curve.eval_at_operators(a, b) == eval_at_operators_oracle(curve, a, b)
    assert SpectralCurve({}).eval_at_operators(a, b).is_zero()


@settings(max_examples=15, deadline=None)
@given(
    st.lists(_small_rational, min_size=1, max_size=3),
    _small_rational,
    _small_rational.filter(bool),
    st.integers(0, 3),
)
def test_kernel_action_decides_the_curve_of_p_of_l4_plus_c_m6(p, c, delta, j):
    """M = p(L4) + c M6 on V = x^3, g = 1: R(L4, M) = 0, and R + delta z^j
    gives delta L4^j, nonzero and equal to the power-list oracle."""
    l4, m6 = _pair_input((CUBIC, 1, (0, 0, 0, 1), 6))
    m = m6.scale(XRING.const(c))
    for k, pk in enumerate(p):
        m = m + (l4 ** k).scale(XRING.const(pk))
    curve = spectral_curve(l4, m)
    assert curve.eval_at_operators(l4, m).is_zero()
    perturbed = _shifted(curve, (j, 0), delta)
    identity = perturbed.eval_at_operators(l4, m)
    assert not identity.is_zero()
    assert identity == eval_at_operators_oracle(perturbed, l4, m)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(((0, 0, 0, 1),) + _SEEDED_CUBICS),
    st.lists(_small_rational, min_size=1, max_size=3),
    _small_rational,
)
def test_spectral_curve_matches_the_two_truncation_curve(alphas, p, c):
    """M = p(L4) + c M6 commutes with L4; one basis gives the old curve."""
    l4, m6 = _pair_input((CUBIC, 1, alphas, 6))
    m = m6.scale(XRING.const(c))
    for k, pk in enumerate(p):
        m = m + (l4 ** k).scale(XRING.const(pk))
    assume(not m.is_zero())  # the old computation fails on order -inf
    curve = spectral_curve(l4, m)
    assert curve == spectral_curve_oracle(l4, m)
    assert curve.eval_at_operators(l4, m).is_zero()


# -- the rank-two curve off tr A and A'^2 against the characteristic polynomial ------


def _charpoly_route_curve(l4, m):
    """The curve of M' by det(w I - A), its exact square root w^2 + b w + c
    and the square completion w^2 + c - b^2/4 on its w-coefficients."""
    root = squarefree_normalize(charpoly_w(action_matrix(m, series_kernel_basis(l4, m.order + 3))))
    assert root.w_degree() == 2
    b, c = (root.coefficients_in("w").get(j, ZRING.zero) for j in (1, 0))
    return curves._curve([ZRING.one, ZRING.zero, c - b * b * Fraction(1, 4)])


def _assert_pair_matches_the_charpoly_route(l4, m):
    m2, curve = hyperelliptic_pair(l4, m)
    expected = _charpoly_route_curve(l4, m)
    assert curve == expected and repr(curve) == repr(expected)
    fresh = action_matrix(m2, series_kernel_basis(l4, m2.order + 3))
    assert m2.powers == curves._matrix_powers(fresh, 2)
    assert m2.powers[2] == [[-curve.coefficients_in("w")[0] if r == s else ZRING.zero
                             for s in range(4)] for r in range(4)]  # A'^2 = F I


@pytest.mark.parametrize("case", _DIFFERENTIAL_CASES, ids=_case_id)
def test_pair_curve_off_the_trace_and_square_is_the_charpoly_route(case):
    _assert_pair_matches_the_charpoly_route(*_pair_input(case))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_small_rational, min_size=4, max_size=4).filter(lambda a: a[3]),
    st.booleans(),
    st.integers(1, 3),
)
def test_pair_curve_on_drawn_potentials_is_the_charpoly_route(alphas, quartic, g):
    """Generic cubics a0 .. a3 at g = 1 .. 3, or quartics with a2 = a0,
    a3 = a1, a4 = a3 and a1 from the quartic constraint at g = 1, 2."""
    if quartic:
        g = min(g, 2)
        a0, a2, a3, a4 = alphas[0], alphas[0], alphas[1], alphas[3]
        alphas = (a0, solve_quartic_constraint(a2, a3, a4), a2, a3, a4)
    l4 = make_L4(FamilySpec(QUARTIC if quartic else CUBIC, g, alphas=tuple(alphas)))
    _assert_pair_matches_the_charpoly_route(l4, find_commuting_operator(l4, 4 * g + 2))


def _d4_d():
    return DiffOp.d(XRING, 4), DiffOp.d(XRING)


def _d4_d8_plus_d4():
    return DiffOp.d(XRING, 4), DiffOp.d(XRING, 8) + DiffOp.d(XRING, 4)


def _l4_l4():
    l4 = make_L4(PURE_CUBIC)
    return l4, l4


@pytest.mark.parametrize("pair, degree", [(_d4_d, 4), (_d4_d8_plus_d4, 1), (_l4_l4, 1)],
                         ids=["D4-D", "D4-D8+D4", "L4-L4"])
def test_pair_error_names_the_w_degree_of_the_spectral_curve(pair, degree):
    # A' = 0 for a polynomial in L4 (w-degree 1); A'^2 is not F I for the
    # fourth root of z (w-degree 4)
    a, b = pair()
    assert spectral_curve(a, b).w_degree() == degree
    with pytest.raises(NotCoveredError, match=f"^not a rank-two curve: w-degree {degree}$"):
        hyperelliptic_pair(a, b)


def test_pair_of_d4_and_d2_completes_nothing():
    m2, curve = hyperelliptic_pair(DiffOp.d(XRING, 4), DiffOp.d(XRING, 2))
    assert m2 == DiffOp.d(XRING, 2)
    assert curve == SpectralCurve({(0, 2): 1, (1, 0): -1})  # w^2 - z


# -- the order-(4g+2) partner by the chain of Mironov's method --------------------


def _search_partner(l4, order):
    return next((op for op in commuting_operators(l4, order) if op.order == order), None)


def _chain_partner(l4, order):
    """The chain's operator as find_commuting_operator returns it, or None
    where find_commuting_operator falls back to the search."""
    chain = centralizer._chain_pair(l4, order)
    if chain is None or not centralizer._chain_spans(*chain):
        return None
    return _horner(centralizer._normal_form(chain[0], l4), l4)


# the _PAIR_CASES the search answers: V = x^3 at g = 1 has F = z^3, of
# genus 0, and at order 10 for g = 1 the chain has a second solution
_FALLBACK_CASES = {(CUBIC, 1, (0, 0, 0, 1), 6), (CUBIC, 1, (0, 0, 0, 1), 10)}


@pytest.mark.parametrize("case", _PAIR_CASES, ids=_case_id)
def test_chain_partner_is_the_search_partner(case):
    l4, m = _pair_input(case)
    chained = _chain_partner(l4, case[3])
    assert (chained is None) == (case in _FALLBACK_CASES)
    assert m == _search_partner(l4, case[3])
    if chained is not None:
        assert chained == m
        assert gauge_normalize_oracle(chained, l4, (case[3] - 2) // 4) == chained


@pytest.mark.parametrize("case", _PAIR_CASES, ids=_case_id)
def test_chain_curve_is_the_hyperelliptic_curve(case):
    """w^2 - F, F the chain's first integral at x = 0, is the curve of the
    characteristic-polynomial route, and M' is its square-completed M."""
    l4, m = _pair_input(case)
    chain = centralizer._chain_pair(l4, case[3])
    if chain is None:
        assert case in _FALLBACK_CASES
        return
    terms, f = chain
    m_prime = _horner(terms, l4)
    curve = SpectralCurve({(0, 2): 1, **{(k, 0): -c for (k,), c in f.terms.items()}})
    assert hyperelliptic_pair(l4, m) == (m_prime, curve)
    assert curve.eval_at_operators(l4, m_prime).is_zero()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(_small_rational, min_size=4, max_size=4).filter(lambda a: a[3]),
    st.booleans(),
    st.integers(1, 3),
)
def test_chain_matches_the_search_on_drawn_potentials(alphas, quartic, g):
    """Cubics a0 .. a3, or quartics with a2 = a0, a3 = a1, a4 = a3 and a1
    from the quartic constraint, at g = 1 .. 3: the chain gives the search's
    operator or falls back."""
    if quartic:
        a0, a2, a3, a4 = alphas[0], alphas[0], alphas[1], alphas[3]
        alphas = (a0, solve_quartic_constraint(a2, a3, a4), a2, a3, a4)
    l4 = make_L4(FamilySpec(QUARTIC if quartic else CUBIC, g, alphas=tuple(alphas)))
    chained = _chain_partner(l4, 4 * g + 2)
    assert chained is None or chained == _search_partner(l4, 4 * g + 2)


def _count_searches(monkeypatch) -> list:
    """Record each call of the partner search (:func:`centralizer._search_space`)."""
    searches = []
    search = centralizer._search_space
    monkeypatch.setattr(centralizer, "_search_space",
                        lambda *args: searches.append(args) or search(*args))
    return searches


def _refuse_search(monkeypatch):
    def refuse(*args):
        raise RuntimeError("the search ran")

    monkeypatch.setattr(centralizer, "_search_space", refuse)


@pytest.mark.parametrize("g, curve", [(1, {3: 1}), (3, {7: 1, 2: -2025})])
def test_singular_curve_falls_back_to_the_search(monkeypatch, g, curve):
    """Both curves are singular.  F = z^3 at g = 1 (F0 = z, genus 0) takes
    the search; F = z^2 (z^5 - 2025) at g = 3 has F0 = z^5 - 2025, of genus
    2, and a nonzero remainder, so the chain answers."""
    l4 = make_L4(FamilySpec(CUBIC, g, alphas=(0, 0, 0, 1)))
    chain = centralizer._chain_pair(l4, 4 * g + 2)
    assert chain[1].terms == {(k,): c for k, c in curve.items()}
    assert not centralizer._squarefree_mod_p(chain[1])
    assert centralizer._chain_spans(*chain) == (g == 3)
    searches = _count_searches(monkeypatch)
    m = find_commuting_operator(l4, 4 * g + 2)
    assert len(searches) == (g == 1)
    assert m == _search_partner(l4, 4 * g + 2)


def test_chain_with_two_solutions_falls_back(x3_l4):
    # order 10 for the g = 1 operator: z Q_1 + k Q_1 solves the chain for every k
    assert centralizer._schrodinger_square(x3_l4) is not None
    assert centralizer._chain_pair(x3_l4, 10) is None
    assert find_commuting_operator(x3_l4, 10) == _search_partner(x3_l4, 10)


def test_absent_order_4g_plus_2_still_raises_the_search_message():
    l4 = make_L4(FamilySpec(CUBIC, 2, alphas=_GENERIC_CUBIC))
    assert centralizer._chain_pair(l4, 6) is None
    with pytest.raises(CommutingOperatorNotFound) as excinfo:
        find_commuting_operator(l4, 6)
    assert str(excinfo.value) == (
        "no operator of order 6 over Q[x] commutes with L4; "
        "those of order <= 6 have orders [0, 4]"
    )


def _shift_d(op):
    """e^(-x) op e^x: D becomes D + 1, and the coefficients stay in Q[x]."""
    d_plus_1 = DiffOp(XRING, [XRING.one, XRING.one])
    out = DiffOp.zero(XRING)
    for i, a in enumerate(op.coeffs):
        out = out + DiffOp.mult(a) * d_plus_1 ** i
    return out


def test_l4_off_the_schrodinger_square_form_takes_the_search(monkeypatch):
    l4, m = _pair_input((CUBIC, 1, _GENERIC_CUBIC, 6))
    x_d = DiffOp(XRING, [XRING.zero, XRING.var("x")])
    assert centralizer._schrodinger_square(l4 + x_d) is None  # D^1 coefficient not 2V'
    # e^(-x) L4 e^x has a D^3 term and the partner e^(-x) M e^x
    shifted = _shift_d(l4)
    assert shifted.coeff(3) == XRING.const(4)
    assert centralizer._chain_pair(shifted, 6) is None
    searches = _count_searches(monkeypatch)
    partner = find_commuting_operator(shifted, 6)
    assert len(searches) == 1
    assert partner == _search_partner(shifted, 6)
    assert (partner - _shift_d(m)).order <= 4


@pytest.mark.parametrize("g", [2, 10])
def test_default_order_partner_needs_no_search(monkeypatch, g):
    l4 = make_L4(FamilySpec(CUBIC, g, alphas=_GENERIC_CUBIC))
    expected = _search_partner(l4, 4 * g + 2)
    _refuse_search(monkeypatch)
    assert find_commuting_operator(l4, 4 * g + 2) == expected


# V = x^4: the quartic family with a4 = 1 and a0 = a2 = a3 = 0
_X4 = (0, solve_quartic_constraint(0, 0, 1), 0, 0, 1)


def _assert_remainder_is_terms_0(l4, terms):
    """The guard's reading, checked by the division it replaces: M' right-
    divided by L4 is (sum_(i >= 1) terms[i] L4^(i-1), terms[0])."""
    q, r = _horner(terms, l4).right_divmod(l4)
    assert q == _horner(terms[1:], l4)
    assert r == terms[0]


@pytest.mark.parametrize("family, g, alphas",
                         [(CUBIC, g, (0, 0, 0, 1)) for g in (3, 4, 6, 8, 9)]
                         + [(QUARTIC, 2, _X4)],
                         ids=["x3-g3", "x3-g4", "x3-g6", "x3-g8", "x3-g9", "x4-g2"])
def test_chain_partner_of_a_curve_with_a_z_square_factor(monkeypatch, family, g, alphas):
    """z^2 divides F; the chain, whose guard reads a_0 != 0 off terms[0],
    gives the search's operator, and neither a search nor a right division
    runs."""
    l4 = make_L4(FamilySpec(family, g, alphas=alphas))
    expected = _search_partner(l4, 4 * g + 2)
    terms, f = centralizer._chain_pair(l4, 4 * g + 2)
    assert (0,) not in f.terms and (1,) not in f.terms
    assert not terms[0].is_zero()
    _assert_remainder_is_terms_0(l4, terms)

    def refuse(*args):
        raise RuntimeError("a right division ran")

    monkeypatch.setattr(DiffOp, "right_divmod", refuse)
    _refuse_search(monkeypatch)
    assert find_commuting_operator(l4, 4 * g + 2) == expected


@settings(max_examples=15, deadline=None)
@given(st.lists(_small_rational, min_size=4, max_size=4).filter(lambda a: a[3]),
       st.integers(1, 3))
def test_right_division_of_drawn_chain_partners_leaves_terms_0(alphas, g):
    l4 = make_L4(FamilySpec(CUBIC, g, alphas=tuple(alphas)))
    chain = centralizer._chain_pair(l4, 4 * g + 2)
    assume(chain is not None)
    _assert_remainder_is_terms_0(l4, chain[0])


def test_zero_remainder_falls_back_to_the_search(monkeypatch):
    """Terms with a zero terms[0] sum to M' L4, which L4 right-divides: the
    guard refuses and the search answers."""
    l4 = make_L4(FamilySpec(CUBIC, 3, alphas=(0, 0, 0, 1)))
    expected = _search_partner(l4, 14)
    terms, f = centralizer._chain_pair(l4, 14)
    shifted = [DiffOp.zero(XRING)] + terms
    assert _horner(shifted, l4) == _horner(terms, l4) * l4
    assert centralizer._chain_spans(terms, f)
    assert not centralizer._chain_spans(shifted, f)
    monkeypatch.setattr(centralizer, "_chain_pair", lambda *args: (shifted, f))
    searches = _count_searches(monkeypatch)
    assert find_commuting_operator(l4, 14) == expected
    assert len(searches) == 1


def test_chain_guard_limits():
    """No terms are read where the guard refuses on F alone, or where z^2
    does not divide F; where it does, only whether terms[0] is zero."""
    z = ZRING.var("z")
    # deg F0 < 3: genus 0
    assert not centralizer._chain_spans(None, z ** 3)
    assert not centralizer._chain_spans(None, z ** 4 * (z + 1))
    # a square factor other than a power of z
    assert not centralizer._chain_spans(None, z ** 2 * (z - 1) ** 2 * (z + 1))
    # e = 0 or 1: F0 = F, no remainder to read
    assert centralizer._chain_spans(None, z * (z * z + 1))
    assert centralizer._chain_spans(None, z ** 3 + 1)
    # e = 2: the remainder terms[0]
    assert centralizer._chain_spans([DiffOp.identity(XRING)], z ** 2 * (z ** 3 + 1))
    assert not centralizer._chain_spans([DiffOp.zero(XRING)], z ** 2 * (z ** 3 + 1))


def test_squarefree_guard_modulo_the_prime():
    zring = PolyRing(("z",))
    z = zring.var("z")
    p = centralizer._GUARD_PRIME
    assert centralizer._squarefree_mod_p(z ** 3 - z + Fraction(1, 3))
    assert not centralizer._squarefree_mod_p((z - 1) ** 2 * (z + 2))
    assert not centralizer._squarefree_mod_p(z * 2 + 1)  # not monic
    # the prime divides the denominator: undecided, so not accepted
    assert not centralizer._squarefree_mod_p(z ** 3 + z * Fraction(1, p) + 1)
    # squarefree over Q but (z - 1)^2 (z + 1) mod p: the guard may refuse a
    # squarefree F (the search then runs), never accept a singular one
    assert not centralizer._squarefree_mod_p((z - 1) ** 2 * (z + 1) + p)


def test_normal_form_clears_what_the_power_list_clears():
    l4 = make_L4(FamilySpec(CUBIC, 3, alphas=_GENERIC_CUBIC))
    terms, _ = centralizer._chain_pair(l4, 14)
    m_prime = _horner(terms, l4)
    reduced = _horner(centralizer._normal_form(terms, l4), l4)
    assert reduced == gauge_normalize_oracle(m_prime, l4, 3)
    assert reduced != m_prime


# -- the chain partner's action off its order-2 terms ------------------------------------


def _assert_terms_action_is_the_long_basis_action(l4, m):
    """A(M) read off the terms M carries, on the truncation-8 basis, equals
    the action of M itself on a basis at truncation ord M + 3."""
    assert m.terms is not None and m.l4 is l4 and m.powers is None
    assert _horner(m.terms, l4) == m
    expected = action_matrix(m, series_kernel_basis(l4, m.order + 3))
    assert curves._kernel_action(l4, m) == expected


@settings(max_examples=20, deadline=None)
@given(
    st.lists(_small_rational, min_size=4, max_size=4).filter(lambda a: a[3]),
    st.booleans(),
    st.integers(1, 3),
)
def test_chain_terms_action_on_drawn_potentials(alphas, quartic, g):
    """Cubics a0 .. a3, or quartics with a2 = a0, a3 = a1, a4 = a3 and a1
    from the quartic constraint, at g = 1 .. 3: a partner carries terms
    exactly when the chain and its guard hold, and their action is the
    partner's."""
    if quartic:
        a0, a2, a3, a4 = alphas[0], alphas[0], alphas[1], alphas[3]
        alphas = (a0, solve_quartic_constraint(a2, a3, a4), a2, a3, a4)
    l4 = make_L4(FamilySpec(QUARTIC if quartic else CUBIC, g, alphas=tuple(alphas)))
    m = find_commuting_operator(l4, 4 * g + 2)
    chain = centralizer._chain_pair(l4, 4 * g + 2)
    assert (m.terms is None) == (chain is None or not centralizer._chain_spans(*chain))
    if m.terms is not None:
        _assert_terms_action_is_the_long_basis_action(l4, m)


def test_a_shifted_term_shifts_the_terms_action():
    # adding c L4^k to M adds c z^k to A(M): the action is read off every term
    l4 = make_L4(FamilySpec(CUBIC, 2, alphas=_GENERIC_CUBIC))
    terms = find_commuting_operator(l4, 10).terms
    action = curves._chain_action(l4, terms)
    z = ZRING.var("z")
    for k in range(len(terms)):
        shifted = list(terms)
        shifted[k] = terms[k] + DiffOp.identity(XRING).scale(Fraction(2, 3))
        expected = [[e + Fraction(2, 3) * z ** k if r == s else e for s, e in enumerate(row)]
                    for r, row in enumerate(action)]
        assert curves._chain_action(l4, shifted) == expected


def test_action_matrix_reads_z_coefficients_as_constants():
    # T = z x D^2 + (z^2 - 1/3), given by its Q[z] coefficients, against its
    # z^0, z^1, z^2 parts over Q[x]
    l4 = make_L4(FamilySpec(CUBIC, 2, alphas=_GENERIC_CUBIC))
    z = ZRING.var("z")
    t = {(2, 1): z, (0, 0): z * z - Fraction(1, 3)}
    parts = [DiffOp(XRING, [XRING.const(Fraction(-1, 3))]),
             DiffOp(XRING, [XRING.zero, XRING.zero, XRING.var("x")]),
             DiffOp.identity(XRING)]
    basis = series_kernel_basis(l4, 8)
    by_power = [action_matrix(p, basis) for p in parts]
    expected = [[by_power[0][r][s] + z * by_power[1][r][s] + z * z * by_power[2][r][s]
                 for s in range(4)] for r in range(4)]
    assert action_matrix(t, basis) == expected
    with pytest.raises(TruncationError):
        action_matrix({(6, 0): z}, basis)
    with pytest.raises(SpectralPairsError, match="Q\\[x\\]"):
        action_matrix(DiffOp.identity(ZRING), basis)
