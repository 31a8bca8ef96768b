import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs.centralizer import find_commuting_operator
from spectral_pairs.errors import DegenerateSampleError, NotCoveredError, SpectralPairsError
from spectral_pairs.families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    char_poly_z,
    make_L4,
    make_schrodinger,
    multiplier_p,
    quartic_constraint_value,
)
from spectral_pairs.operators import DiffOp
from spectral_pairs.rings import (
    CharPoly,
    FractionFieldRing,
    PolyRing,
    QuotientField,
    QuotientRing,
    RationalField,
)
from spectral_pairs.rings.quotient import QuotientExt
from spectral_pairs.verify import (
    DEFAULT_SEED,
    _branches,
    _cleared_commutator,
    _lift_op,
    _sf,
    sample_spec,
    verify_commutation,
    verify_corollary,
    verify_eigen_identity,
)

from conftest import cleared_commutator_oracle, leibniz_compose

XRING = PolyRing(("x",))


# -- symbolic identities ------------------------------------------------------------

SYMBOLIC_SPECS = [
    FamilySpec(CUBIC, 2),
    FamilySpec(CUBIC, 4),
    FamilySpec(QUARTIC, 1),
    FamilySpec(QUARTIC, 2),
    FamilySpec(EXPONENTIAL, 1, eps=0),
    FamilySpec(EXPONENTIAL, 2, eps=1),
    FamilySpec(EXPONENTIAL, 5, eps=0),
]


@pytest.mark.parametrize("spec", SYMBOLIC_SPECS, ids=lambda s: s.identity_id())
def test_symbolic_identity_holds(spec):
    report = verify_eigen_identity(spec)
    assert report.mode == "symbolic"
    assert report.remainder_is_zero
    assert report.remainder is None
    assert report.identity_id == f"eigen-{spec.identity_id()}"
    # the witness is the exact quotient of an order-4 by an order-2 operator
    assert report.witness_order == 2


# -- specialized mode agrees with symbolic mode under substitution ------------------


def _subs_values(spec):
    names = ("a0", "a1", "a2", "a3", "a4")
    values = dict(zip(names, spec.alphas))
    if spec.family == QUARTIC:
        values.pop("a1")  # eliminated by the constraint in the symbolic ring
    elif spec.family == CUBIC:
        values.pop("a4")
    else:
        values = {"a0": spec.alphas[0], "a1": spec.alphas[1]}
    return values


def _assert_coeff_specializes(sym, spc, values):
    if isinstance(sym, QuotientExt):
        assert len(sym.coords) == len(spc.coords)
        for cs, cd in zip(sym.coords, spc.coords):
            assert cs.subs(values, target=XRING) == cd
    else:
        assert sym.subs(values, target=spc.ring) == spc


def _assert_op_specializes(sym_op, spc_op, values):
    assert sym_op.order == spc_op.order
    for cs, cd in zip(sym_op.coeffs, spc_op.coeffs):
        _assert_coeff_specializes(cs, cd, values)


AGREEMENT_CASES = [
    (CUBIC, 2, 0),
    (CUBIC, 4, 0),
    (QUARTIC, 1, 0),
    (QUARTIC, 2, 0),
    (EXPONENTIAL, 2, 0),
    (EXPONENTIAL, 3, 1),
]


@pytest.mark.parametrize("family,g,eps", AGREEMENT_CASES)
def test_specialized_agrees_with_symbolic(family, g, eps):
    symbolic = verify_eigen_identity(FamilySpec(family, g, eps=eps))
    assert symbolic.remainder_is_zero
    rng = random.Random(7 * g + len(family))
    for _ in range(25):
        spec = sample_spec(family, g, rng, eps=eps)
        report = verify_eigen_identity(spec)
        assert report.mode == "specialized"
        assert report.remainder_is_zero
        _assert_op_specializes(symbolic.witness, report.witness, _subs_values(spec))


# -- commutation --------------------------------------------------------------------


def test_commutation_square_with_itself():
    l2 = make_schrodinger(FamilySpec(CUBIC, 2, alphas=(1, 2, 3, 4)))
    report = verify_commutation(l2 * l2, l2)
    assert report.remainder_is_zero


def test_commutation_d_with_x_fails():
    x = XRING.var("x")
    report = verify_commutation(DiffOp.d(XRING), DiffOp.mult(x))
    assert not report.remainder_is_zero
    assert report.remainder == DiffOp.identity(XRING)


# -- conjugated commutator factors through the order-2 operator ---------------------


def test_corollary_trivial_when_cubic_term_vanishes():
    # a3 = 0 collapses the order-4 operator to the square of the order-2 one
    report = verify_corollary(FamilySpec(CUBIC, 2, alphas=(2, 1, 1, 0)))
    assert report.remainder_is_zero
    assert report.witness.is_zero()
    assert report.witness_order is None


def test_corollary_pure_cubic_instance():
    report = verify_corollary(FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)))
    assert report.remainder_is_zero
    assert not report.witness.is_zero()
    assert report.witness_order <= 3


def test_corollary_irrational_eigenvalues():
    # chi = z^2 + 12 has no rational roots: runs inside the quotient field
    spec = FamilySpec(CUBIC, 2, alphas=(0, 1, 0, 1))
    assert char_poly_z(spec).rational_coeffs() == [12, 0, 1]
    report = verify_corollary(spec)
    assert report.remainder_is_zero
    assert not report.witness.is_zero()


def test_corollary_g4():
    report = verify_corollary(FamilySpec(CUBIC, 4, alphas=(0, 0, 0, 1)))
    assert report.remainder_is_zero
    assert not report.witness.is_zero()


def test_corollary_random_samples():
    rng = random.Random(31)
    for _ in range(5):
        spec = sample_spec(CUBIC, 2, rng, require_squarefree_chi=True)
        report = verify_corollary(spec)
        assert report.remainder_is_zero


def test_corollary_degenerate_multiplier_rejected():
    # a2 = a3 = 0: chi = z^2 and the multiplier vanishes at the only root
    with pytest.raises(DegenerateSampleError):
        verify_corollary(FamilySpec(CUBIC, 2, alphas=(1, 1, 0, 0)))


# -- the cleared corollary against the fraction-field formula ------------------------


def _frac_coeff(coeff, frac, z):
    """A Q[x] or K[x] coefficient as an element of Frac(K[x]), K = Q or Q[z]/(f)."""
    acc = frac.zero
    if isinstance(coeff, QuotientExt):
        for c in reversed(coeff.coords):  # Horner in z
            acc = acc * z + _frac_coeff(c, frac, z)
        return acc
    x = frac.gen()
    for k in range(max((e[0] for e in coeff.terms), default=0), -1, -1):
        acc = acc * x + frac.const(coeff.terms.get((k,), 0))
    return acc


def _oracle_field(branch):
    """Frac(K[x]) for a branch of chi, and z in it (None for a rational root)."""
    if not isinstance(branch, QuotientRing):
        return FractionFieldRing(RationalField()), None
    chi = CharPoly(PolyRing(()), branch.chi.rational_coeffs())
    fld = QuotientField(QuotientRing(PolyRing(()), chi))
    frac = FractionFieldRing(fld)
    return frac, frac.const(fld.gen)


def _fraction_field_corollary(spec, l):
    """Per branch of chi: p, and [p^-1 L p, L2] right-divided by L2 inside Frac(K[x])."""
    out = []
    for branch in _branches(char_poly_z(spec)):
        frac, zf = _oracle_field(branch)
        p_k = multiplier_p(spec, branch.gen if isinstance(branch, QuotientRing) else branch)
        p = _frac_coeff(p_k, frac, zf)
        if p.is_zero():
            continue

        def lift(op):
            return DiffOp(frac, [_frac_coeff(c, frac, zf) for c in op.coeffs])

        l2 = lift(make_schrodinger(spec))
        conj = lift(l).conjugate_by_unit(p)
        comm = leibniz_compose(conj, l2) - leibniz_compose(l2, conj)
        b, r = comm.right_divmod(l2)
        assert b * l2 + r == comm
        out.append((branch, p_k, b, r))
    return out


def _assert_cleared(cleared, branch, p_k, want):
    """cleared = p^-3 op is the oracle's operator, coefficient by coefficient."""
    frac, zf = _oracle_field(branch)
    assert cleared.p == p_k
    assert cleared.order == want.order
    p = _frac_coeff(p_k, frac, zf)
    op = [_frac_coeff(c, frac, zf) for c in cleared.op.coeffs]
    assert op == [p * p * p * c for c in want.coeffs]


def _assert_matches_fraction_field(spec, which, partner=None):
    l = make_L4(spec) if which == "l4" else partner
    branches = _fraction_field_corollary(spec, l)
    report = verify_corollary(spec, which, partner=partner)
    remainders = [(br, p, r) for br, p, _, r in branches if not r.is_zero()]
    branch, p_k, witness, _ = branches[0]
    _assert_cleared(report.witness, branch, p_k, witness)
    assert report.remainder_is_zero == (not remainders)
    if remainders:
        _assert_cleared(report.remainder, *remainders[0])
    else:
        assert report.remainder is None
    return report


_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def _k_elem(ring, coeffs):
    """The element of K[x] with x-coefficients ``coeffs``, each a z-coordinate list."""
    by_z = [XRING.from_terms({(e,): c[i] for e, c in enumerate(coeffs)})
            for i in range(len(coeffs[0]) if coeffs else 1)]
    return ring.from_z_coeffs(by_z) if isinstance(ring, QuotientRing) else by_z[0]


# -- the cleared commutator's closed form against the composition chain --------------


@st.composite
def _cleared_case(draw):
    """K[x] for K = Q or Q[z]/(f), f a random monic quadratic or cubic, and a
    random L (order 0-10), L2 = D^2 + V (V of x-degree 0-4) and p (x-degree 0-2)."""
    d = draw(st.sampled_from([1, 2, 3]))
    ring = XRING
    if d > 1:
        f = draw(st.lists(_small, min_size=d, max_size=d)) + [Fraction(1)]
        ring = QuotientRing(XRING, CharPoly(PolyRing(()), f))

    def elem(lo, hi):
        coords = st.lists(_small, min_size=d, max_size=d)
        return _k_elem(ring, draw(st.lists(coords, min_size=lo + 1, max_size=hi + 1)))

    l = DiffOp(ring, [elem(0, 2) for _ in range(draw(st.integers(1, 11)))])
    l2 = DiffOp(ring, [elem(0, 4), ring.zero, ring.one])
    return l, l2, elem(0, 2)


@settings(max_examples=60, deadline=None)
@given(_cleared_case())
def test_cleared_commutator_matches_composition_chain(case):
    l, l2, p = case
    got, want = _cleared_commutator(l, l2, p), cleared_commutator_oracle(l, l2, p)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("l2_coeffs", [
    [XRING.var("x"), XRING.one],
    [XRING.var("x"), XRING.zero, XRING.zero, XRING.one],
    [XRING.var("x"), XRING.zero, XRING.const(2)],
    [XRING.var("x"), XRING.zero, XRING.var("x")],
    [XRING.var("x"), XRING.one, XRING.one],
], ids=["order-1", "order-3", "lead-2", "lead-x", "d-term"])
def test_cleared_commutator_rejects_other_l2(l2_coeffs):
    l = DiffOp(XRING, [XRING.var("x", 2), XRING.one, XRING.zero, XRING.one])
    with pytest.raises(SpectralPairsError):
        _cleared_commutator(l, DiffOp(XRING, l2_coeffs), XRING.var("x") + XRING.one)


def test_cleared_commutator_rejects_l2_over_another_ring():
    other = PolyRing(("x", "a0"))
    l = DiffOp(XRING, [XRING.var("x", 2), XRING.one])
    l2 = DiffOp(other, [other.var("a0"), other.zero, other.one])
    with pytest.raises(SpectralPairsError):
        _cleared_commutator(l, l2, XRING.var("x") + XRING.one)


def _criterion5_samples():
    """Criterion 5's first two g=2/g=4 pairs: both branch kinds at each genus."""
    rng = random.Random(DEFAULT_SEED)
    return [sample_spec(CUBIC, g, rng, require_squarefree_chi=True)
            for _ in range(2) for g in (2, 4)]


@lru_cache(maxsize=None)
def _criterion5_partner(index):
    spec = _criterion5_samples()[index]
    return find_commuting_operator(make_L4(spec), 4 * spec.g + 2)


def _has_quotient_branch(spec):
    return any(isinstance(branch, QuotientRing) for branch in _branches(char_poly_z(spec)))


def test_corollary_samples_cover_both_branch_kinds():
    for g in (2, 4):
        kinds = {_has_quotient_branch(s) for s in _criterion5_samples() if s.g == g}
        assert kinds == {True, False}


@pytest.mark.parametrize("index", range(4))
def test_corollary_l4_matches_fraction_field(index):
    spec = _criterion5_samples()[index]
    report = _assert_matches_fraction_field(spec, "l4")
    assert report.remainder_is_zero
    # p divides B~ once at the g = 4 sample (0, 0, 2, 2); the witness stays p^-3 B~
    assert report.witness.k == 3
    assert (index == 1) == (spec.alphas[:4] == (0, 0, 2, 2))


@pytest.mark.parametrize("index", range(4))
def test_corollary_witness_is_the_division_quotient(index):
    # the reported witness is B~ itself, as the first branch's division leaves it
    spec = _criterion5_samples()[index]
    branch = _branches(char_poly_z(spec))[0]
    quotient = isinstance(branch, QuotientRing)
    l, l2 = make_L4(spec), make_schrodinger(spec)
    if quotient:
        l, l2 = _lift_op(l, branch), _lift_op(l2, branch)
    p = multiplier_p(spec, branch.gen if quotient else branch)
    report = verify_corollary(spec, "l4")
    assert report.witness.op == _cleared_commutator(l, l2, p).right_divmod(l2)[0]
    assert report.witness.p == p


@pytest.mark.parametrize("index", [0, 2])
def test_corollary_l4g2_matches_fraction_field(index):
    spec = _criterion5_samples()[index]
    report = _assert_matches_fraction_field(spec, "l4g2", _criterion5_partner(index))
    assert report.remainder_is_zero


@pytest.mark.parametrize("index", [0, 2])
def test_corollary_perturbed_partner_matches_fraction_field(index):
    # x^2 D^3 added to the partner breaks the corollary: the remainder is
    # nonzero and must be the fraction-field one, coefficient for coefficient
    spec = _criterion5_samples()[index]
    partner = _criterion5_partner(index)
    ring = partner.ring
    perturbed = partner + DiffOp(
        ring, [ring.zero] * 3 + [ring.var("x") ** 2 * Fraction(3, 2)]
    )
    report = _assert_matches_fraction_field(spec, "l4g2", perturbed)
    assert not report.remainder_is_zero
    assert report.remainder is not None and not report.remainder.is_zero()


def test_corollary_rejects_symbolic_and_uncovered():
    with pytest.raises(NotCoveredError):
        verify_corollary(FamilySpec(CUBIC, 2))
    with pytest.raises(NotCoveredError):
        verify_corollary(FamilySpec(QUARTIC, 2, alphas=(0, 0, 0, 0, 1)))
    with pytest.raises(ValueError):
        verify_corollary(FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)), which="l6")


# -- seeded sampling ----------------------------------------------------------------


def test_sample_spec_deterministic():
    a = sample_spec(CUBIC, 2, random.Random(5))
    b = sample_spec(CUBIC, 2, random.Random(5))
    assert a == b


def test_sample_spec_respects_constraints():
    rng = random.Random(13)
    for _ in range(20):
        spec = sample_spec(QUARTIC, 2, rng)
        assert spec.alphas[4] != 0
        assert quartic_constraint_value(*spec.alphas[1:5]) == 0


def test_sample_spec_squarefree_filter():
    rng = random.Random(17)
    for _ in range(20):
        spec = sample_spec(CUBIC, 2, rng, require_squarefree_chi=True)
        coeffs = char_poly_z(spec).rational_coeffs()
        # squarefree quadratic: nonzero discriminant
        c0, c1, c2 = coeffs
        assert c1 * c1 - 4 * c0 * c2 != 0


_small_q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _monic_quadratic_or_cubic(draw):
    """Monic coefficients (low to high), random or with a repeated root."""
    if draw(st.booleans()):
        return draw(st.lists(_small_q, min_size=2, max_size=3)) + [Fraction(1)]
    r = draw(_small_q)
    double = [r * r, -2 * r, Fraction(1)]  # (z - r)^2
    if draw(st.booleans()):
        return double
    s = draw(_small_q)  # times (z - s); s = r gives a triple root
    return [-s * double[0], double[0] - s * double[1], double[1] - s, Fraction(1)]


@settings(max_examples=200, deadline=None)
@given(_monic_quadratic_or_cubic())
def test_squarefree_check_matches_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * z ** k
               for k, c in enumerate(coeffs))
    chi = CharPoly(PolyRing(()), coeffs)
    assert _sf(chi) == sympy.Poly(expr, z, domain=sympy.QQ).is_sqf


@pytest.mark.parametrize("index", [1, 3])
def test_corollary_order_18_partner_at_g4(index):
    # the order-18 partner at g = 4 passes; x^2 D^3 added to it leaves an order-1 remainder
    spec = _criterion5_samples()[index]
    assert spec.g == 4
    partner = _criterion5_partner(index)
    report = verify_corollary(spec, "l4g2", partner=partner)
    assert report.remainder_is_zero
    assert report.witness_order == 16
    ring = partner.ring
    perturbed = partner + DiffOp(
        ring, [ring.zero] * 3 + [ring.var("x") ** 2 * Fraction(3, 2)]
    )
    broken = verify_corollary(spec, "l4g2", partner=perturbed)
    assert not broken.remainder_is_zero
    assert broken.remainder.order == 1
