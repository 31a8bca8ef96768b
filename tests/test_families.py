import random
from fractions import Fraction

import pytest

from spectral_pairs import centralizer
from spectral_pairs.errors import ConstraintError, NotCoveredError
from spectral_pairs.families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    _alpha,
    char_poly_z,
    coefficient_ring,
    make_L4,
    make_schrodinger,
    multiplier_p,
    parameter_ring,
    quartic_constraint_value,
    solve_quartic_constraint,
)
from spectral_pairs.operators import DiffOp
from spectral_pairs.rings import CharPoly, PolyRing, QuotientRing
from spectral_pairs.verify import sample_spec

from conftest import random_rational


def test_cubic_symbolic_potential():
    spec = FamilySpec(CUBIC, 2)
    l2 = make_schrodinger(spec)
    ring = l2.ring
    x = ring.var("x")
    v = (
        ring.var("a3") * x ** 3
        + ring.var("a2") * x ** 2
        + ring.var("a1") * x
        + ring.var("a0")
    )
    assert l2 == DiffOp(ring, [v, ring.zero, ring.one])


def test_exponential_shifted_potential():
    spec = FamilySpec(EXPONENTIAL, 1, eps=0)
    l2 = make_schrodinger(spec, shifted=True)
    ring = l2.ring
    a0, a1 = ring.var("a0"), ring.var("a1")
    v = a1 * ring.var("t", 2) + a0 + Fraction(1, 4)
    assert l2 == DiffOp(ring, [v, ring.zero, ring.one])


def test_zero_potential_is_plain_d2():
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 0))
    l2 = make_schrodinger(spec)
    assert l2 == DiffOp.d(l2.ring, 2)


def test_l4_pure_cubic_instance():
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 1))
    l4 = make_L4(spec)
    ring = l4.ring
    x = ring.var("x")
    expected = DiffOp(
        ring,
        [x ** 6 + 8 * x, 6 * x ** 2, 2 * x ** 3, ring.zero, ring.one],
    )
    assert l4 == expected


def test_l4_reduces_to_square_when_cubic_term_vanishes():
    spec = FamilySpec(CUBIC, 3, alphas=(2, -1, Fraction(1, 2), 0))
    l2 = make_schrodinger(spec)
    assert make_L4(spec) == l2 * l2


def test_l4_exponential_correction():
    spec = FamilySpec(EXPONENTIAL, 2)
    l2 = make_schrodinger(spec)
    l4 = make_L4(spec)
    ring = l4.ring
    a1 = ring.var("a1")
    assert l4 - l2 * l2 == DiffOp(ring, [6 * a1 * ring.var("t", 2)])


# -- L4 in closed form against the composed square ----------------------------------

_CLOSED_FORM_CASES = (
    [(CUBIC, g, 0) for g in range(1, 7)]
    + [(QUARTIC, g, 0) for g in range(1, 4)]
    + [(EXPONENTIAL, g, eps) for g in range(1, 7) for eps in (0, 1)]
)


def _specs_at(family, g, eps):
    """The symbolic spec and three seeded specializations.  The parameters
    are drawn at g = 2, where every family has its closed forms, so cubic
    g = 3 and quartic g = 3 get samples too."""
    rng = random.Random(100 * g + eps)
    samples = [sample_spec(family, 2, rng, eps=eps).alphas for _ in range(3)]
    return [FamilySpec(family, g, eps=eps)] + [
        FamilySpec(family, g, eps=eps, alphas=a) for a in samples
    ]


def _paper_l2(spec):
    """d^2 + V with V summed term by term as the paper writes it."""
    ring = coefficient_ring(spec)
    if spec.family == EXPONENTIAL:
        v = _alpha(spec, ring, 1) * ring.var("t", 2) + _alpha(spec, ring, 0)
    else:
        x = ring.var("x")
        v = ring.zero
        for i in range(5 if spec.family == QUARTIC else 4):
            v = v + _alpha(spec, ring, i) * x ** i
    return DiffOp(ring, [v, ring.zero, ring.one])


def _paper_w(spec, ring):
    """The paper's order-zero term W of L4 = L2^2 + W."""
    gg1 = spec.g * (spec.g + 1)
    if spec.family == CUBIC:
        return _alpha(spec, ring, 3) * gg1 * ring.var("x")
    if spec.family == QUARTIC:
        x = ring.var("x")
        return 2 * gg1 * x * (_alpha(spec, ring, 3) + 2 * _alpha(spec, ring, 4) * x)
    return _alpha(spec, ring, 1) * gg1 * ring.var("t", 2)  # a1 g(g+1) e^x


@pytest.mark.parametrize("family, g, eps", _CLOSED_FORM_CASES)
def test_l4_closed_form_equals_the_composed_square(family, g, eps):
    for spec in _specs_at(family, g, eps):
        l2 = _paper_l2(spec)
        ring = l2.ring
        assert make_schrodinger(spec) == l2
        assert make_L4(spec) == l2 * l2 + DiffOp(ring, [_paper_w(spec, ring)])
        shift = Fraction((g + eps) ** 2, 4) if family == EXPONENTIAL else 0
        assert make_schrodinger(spec, shifted=True) == l2 + DiffOp(ring, [ring.const(shift)])


@pytest.mark.parametrize("family, g", [(CUBIC, g) for g in range(1, 7)]
                         + [(QUARTIC, g) for g in range(1, 4)])
def test_schrodinger_square_reads_back_the_v_and_w_of_make_l4(family, g):
    for spec in _specs_at(family, g, 0)[1:]:  # over Q[x]: specialized only
        v, w = centralizer._schrodinger_square(make_L4(spec))
        assert v == make_schrodinger(spec).coeff(0)
        assert w == _paper_w(spec, v.ring)


def test_char_poly_cubic_g2():
    chi = char_poly_z(FamilySpec(CUBIC, 2))
    ring = chi.ring
    a1, a2, a3 = (ring.var(v) for v in ("a1", "a2", "a3"))
    assert chi.coeffs == (12 * a1 * a3, 4 * a2, ring.one)


def test_char_poly_cubic_g4():
    chi = char_poly_z(FamilySpec(CUBIC, 4))
    ring = chi.ring
    a0, a1, a2, a3 = (ring.var(v) for v in ("a0", "a1", "a2", "a3"))
    assert chi.coeffs == (
        320 * a3 * (7 * a0 * a3 + 2 * a1 * a2),
        16 * (4 * a2 ** 2 + 13 * a1 * a3),
        20 * a2,
        ring.one,
    )


def test_char_poly_exponential_root():
    chi = char_poly_z(FamilySpec(EXPONENTIAL, 1, eps=0))
    ring = chi.ring
    a0 = ring.var("a0")
    # root: z = -(1/4)(4 a0 + 1)
    assert chi.coeffs == (Fraction(1, 4) * (4 * a0 + 1), ring.one)


def test_char_poly_root_annihilates_itself():
    for spec in (
        FamilySpec(CUBIC, 2),
        FamilySpec(CUBIC, 4),
        FamilySpec(QUARTIC, 2),
        FamilySpec(EXPONENTIAL, 3, eps=1),
    ):
        chi = char_poly_z(spec)
        z = QuotientRing(chi.ring, chi).gen
        value = z * 0
        for c in reversed(chi.coeffs):  # Horner: chi(z) in the quotient ring
            value = value * z + c
        assert value.is_zero()


def test_uncovered_pairs_rejected():
    with pytest.raises(NotCoveredError):
        char_poly_z(FamilySpec(CUBIC, 3))
    with pytest.raises(NotCoveredError):
        char_poly_z(FamilySpec(QUARTIC, 5, alphas=(0, 0, 0, 0, 1)))
    with pytest.raises(NotCoveredError):
        multiplier_p(FamilySpec(CUBIC, 7), None)


def _multiplier_closed_form(spec, z):
    """The multiplier as the closed forms write it, each z-free term lifted
    into z's ring by z * 0 + term."""
    ring = coefficient_ring(spec)
    x = ring.var("x")

    def a(i):
        return _alpha(spec, ring, i)

    def lift(elem):
        return z * 0 + elem

    if (spec.family, spec.g) == (CUBIC, 2):
        return lift(6 * a(3) * x) + z + lift(4 * a(2))
    if (spec.family, spec.g) == (CUBIC, 4):
        return (lift(280 * a(3) ** 2 * x ** 2) + (z + lift(16 * a(2))) * lift(20 * a(3) * x)
                + z * z + z * lift(20 * a(2)) + lift(64 * a(2) ** 2 + 168 * a(1) * a(3)))
    if spec.g == 1:
        return lift(4 * a(4) * x + a(3))
    return (lift(24 * a(4) ** 2 * x ** 2 + 12 * a(3) * a(4) * x - 3 * a(3) ** 2)
            + (z + lift(16 * a(2))) * lift(a(4)))


def _z_of_kind(spec, kind):
    ring, params = coefficient_ring(spec), parameter_ring(spec)
    if kind == "quotient":
        chi = char_poly_z(spec)
        if chi.degree < 2:
            chi = CharPoly(params, [params.const(2), params.const(-1), params.one])
        return QuotientRing(ring, chi).gen
    if kind == "quotient-deg1":
        return QuotientRing(ring, CharPoly(params, [params.const(Fraction(-7, 3)), params.one])).gen
    if kind == "rational":
        return Fraction(-5, 7)
    return ring.var("x") * 3 + Fraction(1, 2)


@pytest.mark.parametrize("kind", ["quotient", "quotient-deg1", "rational", "base"])
@pytest.mark.parametrize("family, g", [(CUBIC, 2), (CUBIC, 4), (QUARTIC, 1), (QUARTIC, 2)])
def test_multiplier_cubic_g2(family, g, kind):
    # p is Horner on its z-coefficients: the closed form's value, in z's ring
    for spec in (FamilySpec(family, g), sample_spec(family, g, random.Random(g))):
        z = _z_of_kind(spec, kind)
        p, want = multiplier_p(spec, z), _multiplier_closed_form(spec, z)
        assert p == want
        assert type(p) is type(want)
        assert p.ring == (coefficient_ring(spec) if kind == "rational" else z.ring)


def test_multiplier_exponential_branches():
    p0 = multiplier_p(FamilySpec(EXPONENTIAL, 3, eps=0), None)
    p1 = multiplier_p(FamilySpec(EXPONENTIAL, 3, eps=1), None)
    ring = p0.ring
    assert p0 == ring.var("t", 3)
    assert p1 == ring.var("t", -4)


# -- quartic constraint ------------------------------------------------------------


def test_constraint_solution_zero_cubic_coefficient():
    assert solve_quartic_constraint(5, 0, 3) == 0


def test_constraint_solution_example():
    assert solve_quartic_constraint(2, 2, 1) == 1


def test_constraint_random_rationals(rng):
    for _ in range(50):
        a2, a3 = random_rational(rng), random_rational(rng)
        a4 = random_rational(rng)
        if a4 == 0:
            continue
        a1 = solve_quartic_constraint(a2, a3, a4)
        assert quartic_constraint_value(a1, a2, a3, a4) == 0


def test_quartic_requires_constraint():
    with pytest.raises(ConstraintError):
        FamilySpec(QUARTIC, 1, alphas=(0, 1, 0, 0, 1))
    with pytest.raises(ConstraintError):
        FamilySpec(QUARTIC, 1, alphas=(0, 0, 0, 1, 0))


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("quintic", 1)
    with pytest.raises(ValueError):
        FamilySpec(CUBIC, 0)
    with pytest.raises(ValueError):
        FamilySpec(EXPONENTIAL, 1, eps=2)


@pytest.mark.parametrize("family, alphas, bad", [
    (CUBIC, (0, 0, 0, 1), (0, 0, 0, 1, 5)),
    (EXPONENTIAL, (1, 2), (1, 2, 0, 3)),
    (QUARTIC, (0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0)),
])
def test_spec_rejects_parameters_the_family_does_not_use(family, alphas, bad):
    spec = FamilySpec(family, 1, alphas=alphas)
    assert len(spec.alphas) == 5  # padded with zeros, which stay legal
    assert FamilySpec(family, 1, alphas=spec.alphas) == spec
    with pytest.raises(ConstraintError):
        FamilySpec(family, 1, alphas=bad)


@pytest.mark.parametrize("family", [CUBIC, QUARTIC])
def test_eps_is_rejected_outside_the_exponential_family(family):
    with pytest.raises(ConstraintError):
        FamilySpec(family, 2, eps=1)
    assert FamilySpec(family, 2, eps=0).eps == 0


@pytest.mark.parametrize("spec, ring", [
    (FamilySpec(EXPONENTIAL, 2), PolyRing(("a0", "a1"))),
    (FamilySpec(EXPONENTIAL, 2, eps=1, alphas=(1, 2)), PolyRing(())),
    (FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)), PolyRing(())),
    (FamilySpec(QUARTIC, 1, alphas=(0, 0, 0, 0, 1)), PolyRing(())),
    (FamilySpec(CUBIC, 2), PolyRing(("a0", "a1", "a2", "a3"))),
    (FamilySpec(QUARTIC, 2), PolyRing(("a0", "a2", "a3", "a4"), laurent=("a4",))),
], ids=["exponential-symbolic", "exponential", "cubic", "quartic",
        "cubic-symbolic", "quartic-symbolic"])
def test_parameter_ring_is_the_coefficient_ring_without_x_and_t(spec, ring):
    assert parameter_ring(spec) == ring


def test_symbolic_quartic_ring_inverts_a4():
    ring = coefficient_ring(FamilySpec(QUARTIC, 1))
    inv = ring.var("a4", -1)
    assert inv * ring.var("a4") == ring.one
