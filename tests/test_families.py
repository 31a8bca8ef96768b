import random
from fractions import Fraction

import pytest

from spectral_pairs.errors import ConstraintError, NotCoveredError
from spectral_pairs.families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    char_poly_z,
    coefficient_ring,
    make_L4,
    make_schrodinger,
    multiplier_p,
    quartic_constraint_value,
    solve_quartic_constraint,
)
from spectral_pairs.operators import DiffOp
from spectral_pairs.rings import PolyRing, QuotientRing

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
        q = QuotientRing(chi.ring, chi)
        assert chi.eval_at(q.gen).is_zero()


def test_uncovered_pairs_rejected():
    with pytest.raises(NotCoveredError):
        char_poly_z(FamilySpec(CUBIC, 3))
    with pytest.raises(NotCoveredError):
        char_poly_z(FamilySpec(QUARTIC, 5, alphas=(0, 0, 0, 0, 1)))
    with pytest.raises(NotCoveredError):
        multiplier_p(FamilySpec(CUBIC, 7), None)


def test_multiplier_cubic_g2():
    spec = FamilySpec(CUBIC, 2)
    chi = char_poly_z(spec)
    q = QuotientRing(coefficient_ring(spec), chi)
    p = multiplier_p(spec, q.gen)
    ring = coefficient_ring(spec)
    x, a2, a3 = ring.var("x"), ring.var("a2"), ring.var("a3")
    assert p == q.from_base(6 * a3 * x + 4 * a2) + q.gen


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


def test_symbolic_quartic_ring_inverts_a4():
    ring = coefficient_ring(FamilySpec(QUARTIC, 1))
    inv = ring.var("a4", -1)
    assert inv * ring.var("a4") == ring.one
