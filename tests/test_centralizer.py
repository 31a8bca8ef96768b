import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs.centralizer import (
    action_matrix,
    build_ansatz_system,
    commuting_operators,
    find_commuting_operator,
    gauge_normalize,
    hyperelliptic_pair,
    series_kernel_basis,
    spectral_curve,
)
from spectral_pairs.curves import SpectralCurve, charpoly_w, squarefree_normalize
from spectral_pairs.errors import (
    CommutingOperatorNotFound,
    SpectralPairsError,
    TruncationError,
)
from spectral_pairs.families import (
    CUBIC,
    QUARTIC,
    FamilySpec,
    make_L4,
    make_schrodinger,
)
from spectral_pairs.operators import DiffOp, multipoly_x_split
from spectral_pairs.rings import PolyRing
from spectral_pairs.verify import sample_spec

XRING = PolyRing(("x",))
PURE_CUBIC = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 1))


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
    assert gauge_normalize(x3_m, x3_l4, 1) == x3_m
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


def test_constant_ansatz_finds_nothing(x3_l4):
    with pytest.raises(CommutingOperatorNotFound) as info:
        find_commuting_operator(x3_l4, 6, degree_bound=0)
    assert info.value.bounded


def test_parameterized_input_rejected():
    l4 = make_L4(FamilySpec(CUBIC, 2))
    with pytest.raises(SpectralPairsError):
        find_commuting_operator(l4, 10, degree_bound=3)


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


def _ansatz_partner(l4, order, degree_bound=None):
    """The partner search as the degree-bounded ansatz made it, or None.

    Bounds 6g+3 .. 12g+6 in steps of 3 unless one is given; the first null
    vector with a nonzero order-``order`` entry, scaled monic and gauge
    normalized.
    """
    g = max((order - 2) // 4, 1)
    bounds = [degree_bound] if degree_bound is not None else range(6 * g + 3, 12 * g + 7, 3)
    for d in bounds:
        m = next((op for op in _ansatz_null_operators(l4, order, d) if op.order == order),
                 None)
        if m is not None:
            m = m.scale(l4.ring.const(1 / m.coeffs[-1].as_fraction()))
            return gauge_normalize(m, l4, g)
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
    assert m == _ansatz_partner(l4, 4 * g + 2)


@pytest.mark.parametrize("g,alphas", [
    (1, (0, 0, 0, 1)), (2, (0, 0, 0, 1)), (2, (4, 1, Fraction(-2, 3), -1)),
])
def test_degree_bound_agrees_with_ansatz(g, alphas):
    l4 = make_L4(FamilySpec(CUBIC, g, alphas=alphas))
    order = 4 * g + 2
    top = max(c.degree_in("x") for c in find_commuting_operator(l4, order).coeffs)
    outcomes = []
    for d in (0, top - 1, top):
        expected = _ansatz_partner(l4, order, d)
        try:
            m = find_commuting_operator(l4, order, degree_bound=d)
        except CommutingOperatorNotFound as exc:
            assert exc.bounded
            m = None
        assert m == expected
        outcomes.append(m is not None)
    assert outcomes[0] is False and outcomes[-1] is True


@pytest.mark.parametrize("order", [5, 7])
def test_absent_order_is_proven_absent(x3_l4, order):
    with pytest.raises(CommutingOperatorNotFound) as info:
        find_commuting_operator(x3_l4, order)
    assert not info.value.bounded
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
    assert gauge_normalize(space[2], x3_l4, 1) == x3_m


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
    assert _in_span(DiffOp.identity(XRING), space)
    assert _in_span(l4, space)
    for op in _ansatz_null_operators(l4, order, 2):
        assert _in_span(op, space)


# -- formal kernel series --------------------------------------------------------


def test_kernel_basis_of_pure_d4():
    basis = series_kernel_basis(DiffOp.d(XRING, 4), 8)
    zring = basis[0].ring
    z = zring.var("z")
    psi0 = basis[0]
    assert psi0.coeffs[0] == zring.one
    assert psi0.coeffs[4] == z * Fraction(1, 24)
    assert psi0.coeffs[8] == z * z * Fraction(1, 40320)
    for j, psi in enumerate(basis):
        lead = [c for c in psi.coeffs[:4]]
        expected = [zring.zero] * 4
        expected[j] = zring.const(Fraction(1, factorial(j)))
        assert lead == expected


def test_kernel_basis_satisfies_the_equation(x3_l4):
    trunc = 16
    basis = series_kernel_basis(x3_l4, trunc)
    zring = basis[0].ring
    z = zring.var("z")
    split = multipoly_x_split(zring)
    for psi in basis:
        image = x3_l4.apply_to_series(psi, split)
        for k in range(trunc - 4):
            assert image.coeffs[k] == z * psi.coeffs[k]


def test_kernel_basis_truncation_floor(x3_l4):
    with pytest.raises(TruncationError):
        series_kernel_basis(x3_l4, 7)


# -- action matrices and curves ---------------------------------------------------


def test_identity_acts_as_identity(x3_l4):
    basis = series_kernel_basis(x3_l4, 16)
    mat = action_matrix(DiffOp.identity(XRING), basis)
    for i in range(4):
        for j in range(4):
            assert mat[i][j] == ([Fraction(1)] if i == j else [])


def test_l4_acts_as_z(x3_l4):
    basis = series_kernel_basis(x3_l4, 16)
    mat = action_matrix(x3_l4, basis)
    for i in range(4):
        for j in range(4):
            assert mat[i][j] == ([Fraction(0), Fraction(1)] if i == j else [])


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
