import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs.centralizer import find_commuting_operator
from spectral_pairs.errors import DegenerateSampleError, NotCoveredError
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
    QuotientRing,
    RationalField,
    UniPoly,
)
from spectral_pairs.rings.fraction_field import FractionElem
from spectral_pairs.rings.quotient import QuotientExt
from spectral_pairs.verify import (
    DEFAULT_SEED,
    _branches,
    _over_p_cubed,
    _sf,
    sample_spec,
    verify_commutation,
    verify_corollary,
    verify_eigen_identity,
)

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


def _fraction_field_corollary(spec, l):
    """Per branch of chi: [p^-1 L p, L2] right-divided by L2 inside Frac(K[x])."""
    out = []
    for fld, z in _branches(char_poly_z(spec)):
        frac = FractionFieldRing(fld)
        if isinstance(fld, RationalField):
            p_k = multiplier_p(spec, z)
            zf = frac.one
        else:
            p_k = multiplier_p(spec, QuotientRing(XRING, fld.qring.chi).gen)
            zf = frac.const(fld.gen)
        p = _frac_coeff(p_k, frac, zf)
        if p.is_zero():
            continue

        def lift(op):
            return DiffOp(frac, [_frac_coeff(c, frac, zf) for c in op.coeffs])

        l2 = lift(make_schrodinger(spec))
        comm = lift(l).conjugate_by_unit(p).commutator(l2)
        b, r = comm.right_divmod(l2)
        assert b * l2 + r == comm
        out.append((b, r))
    return out


def _stored(op):
    """Numerator and denominator of each coefficient, as stored (lowest terms)."""
    return None if op is None else [(c.num, c.den) for c in op.coeffs]


def _assert_matches_fraction_field(spec, which, partner=None):
    l = make_L4(spec) if which == "l4" else partner
    branches = _fraction_field_corollary(spec, l)
    report = verify_corollary(spec, which, partner=partner)
    remainders = [r for _, r in branches if not r.is_zero()]
    first_remainder = remainders[0] if remainders else None
    assert report.witness == branches[0][0]
    assert report.remainder_is_zero == (not remainders)
    assert report.remainder == first_remainder
    # FractionElem equality cross-multiplies; the stored forms must match too
    assert _stored(report.witness) == _stored(branches[0][0])
    assert _stored(report.remainder) == _stored(first_remainder)
    return report


_QQ = RationalField()
_root = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(_root, max_size=3), st.lists(_root, max_size=4),
       st.lists(st.integers(-9, 9), max_size=4), st.integers(1, 5))
def test_over_p_cubed_matches_fraction_reduction(p_roots, num_roots, rest, lead):
    # p and num share roots, with multiplicity, so every partial power of p occurs
    def poly(roots, cofactor):
        out = UniPoly(_QQ, [Fraction(c) for c in cofactor])
        for r in roots:
            out = out * UniPoly(_QQ, [Fraction(-r), Fraction(1)])
        return out

    p = poly(p_roots, [lead])
    num = poly(num_roots, rest)
    got = _over_p_cubed(num, p)
    want = FractionElem(num, p ** 3)
    assert (got.num, got.den) == (want.num, want.den)


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
    return any(not isinstance(fld, RationalField)
               for fld, _ in _branches(char_poly_z(spec)))


def test_corollary_samples_cover_both_branch_kinds():
    for g in (2, 4):
        kinds = {_has_quotient_branch(s) for s in _criterion5_samples() if s.g == g}
        assert kinds == {True, False}


@pytest.mark.parametrize("index", range(4))
def test_corollary_l4_matches_fraction_field(index):
    spec = _criterion5_samples()[index]
    report = _assert_matches_fraction_field(spec, "l4")
    assert report.remainder_is_zero


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
