import random
from fractions import Fraction

import pytest

from spectral_pairs.errors import NonMonicError, RingMismatchError, TruncationError
from spectral_pairs.operators import (
    DiffOp,
    PowerSeries,
    multipoly_x_split,
)
from spectral_pairs.rings import (
    FractionFieldRing,
    PolyRing,
    RationalField,
    UniPoly,
)

from conftest import random_poly


def _random_op(ring, rng, max_order=3, max_deg=3):
    order = rng.randint(0, max_order)
    return DiffOp(
        ring,
        [random_poly(ring, rng, max_deg=max_deg, n_terms=2) for _ in range(order + 1)],
    )


# -- composition ------------------------------------------------------------------


def test_d_after_x(xring):
    x = xring.var("x")
    d = DiffOp.d(xring)
    assert d * DiffOp.mult(x) == DiffOp(xring, [xring.one, x])


def test_identity_neutral(xring, rng):
    l = _random_op(xring, rng)
    assert l * DiffOp.identity(xring) == l
    assert DiffOp.identity(xring) * l == l


def test_schrodinger_square(xring):
    x = xring.var("x")
    l2 = DiffOp(xring, [x ** 3, xring.zero, xring.one])
    sq = l2 * l2
    expected = DiffOp(
        xring,
        [x ** 6 + 6 * x, 6 * x ** 2, 2 * x ** 3, xring.zero, xring.one],
    )
    assert sq == expected
    # independent oracle: act on monomials x^k and compare
    for k in range(9):
        f = x ** k
        assert sq.apply_to_poly(f) == l2.apply_to_poly(l2.apply_to_poly(f))


def test_order_additivity(xring, rng):
    for _ in range(50):
        a, b = _random_op(xring, rng), _random_op(xring, rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).order == a.order + b.order


def test_compose_associativity_bulk(xring):
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (_random_op(xring, rng, max_order=2, max_deg=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_ring_mismatch_rejected(xring):
    other = PolyRing(("x", "a0"))
    with pytest.raises(RingMismatchError):
        DiffOp.d(xring) * DiffOp.d(other)


# -- commutators ------------------------------------------------------------------


def test_commutator_d_x(xring):
    x = xring.var("x")
    assert DiffOp.d(xring).commutator(DiffOp.mult(x)) == DiffOp.identity(xring)


def test_commutator_d2_x(xring):
    x = xring.var("x")
    d2 = DiffOp.d(xring, 2)
    assert d2.commutator(DiffOp.mult(x)) == DiffOp.d(xring).scale(xring.const(2))


def test_self_commutator_zero(xring, rng):
    for _ in range(20):
        l = _random_op(xring, rng)
        assert l.commutator(l).is_zero()


def test_commutator_antisymmetry(xring, rng):
    for _ in range(50):
        a, b = _random_op(xring, rng), _random_op(xring, rng)
        assert a.commutator(b) == -(b.commutator(a))


def test_jacobi_identity_bulk(xring):
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (_random_op(xring, rng, max_order=3, max_deg=3) for _ in range(3))
        total = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        assert total.is_zero()


# -- right division ---------------------------------------------------------------


def test_divide_by_self(xring):
    x = xring.var("x")
    l2 = DiffOp(xring, [x, xring.zero, xring.one])
    q, r = l2.right_divmod(l2)
    assert q == DiffOp.identity(xring) and r.is_zero()


def test_divide_small_order(xring):
    x = xring.var("x")
    n = DiffOp(xring, [x, xring.one])  # d + x
    d = DiffOp(xring, [x ** 2, xring.zero, xring.one])
    q, r = n.right_divmod(d)
    assert q.is_zero() and r == n


def test_divide_d3_by_d2_plus_x(xring):
    x = xring.var("x")
    n = DiffOp.d(xring, 3)
    d = DiffOp(xring, [x, xring.zero, xring.one])
    q, r = n.right_divmod(d)
    assert q == DiffOp.d(xring)
    assert r == DiffOp(xring, [-xring.one, -x])
    assert q * d + r == n


def test_non_monic_divisor_rejected(xring):
    x = xring.var("x")
    n = DiffOp.d(xring, 2)
    d = DiffOp(xring, [xring.zero, x])
    with pytest.raises(NonMonicError):
        n.right_divmod(d)


def test_division_reconstruction_bulk(xring):
    rng = random.Random(23)
    for _ in range(500):
        n = _random_op(xring, rng, max_order=5, max_deg=2)
        d_order = rng.randint(1, 3)
        d = DiffOp(
            xring,
            [random_poly(xring, rng, max_deg=2, n_terms=2) for _ in range(d_order)]
            + [xring.one],
        )
        q, r = n.right_divmod(d)
        assert q * d + r == n
        assert r.is_zero() or r.order < d.order


# -- conjugation ------------------------------------------------------------------


def test_conjugate_by_one(tring, rng):
    l = DiffOp(tring, [tring.var("t", 2), tring.zero, tring.one])
    assert l.conjugate_by_unit(tring.one) == l


def test_conjugate_d_by_x_over_fractions():
    ring = FractionFieldRing(RationalField())
    x = ring.gen()
    d = DiffOp.d(ring)
    conj = d.conjugate_by_unit(x)
    assert conj == DiffOp(ring, [x.inverse(), ring.one])
    # oracle: x * (p^-1 d p) == d * x as operators
    assert DiffOp.mult(x) * conj == d * DiffOp.mult(x)


def test_conjugate_d2_by_t(tring):
    d2 = DiffOp.d(tring, 2)
    t = tring.var("t")
    conj = d2.conjugate_by_unit(t)
    expected = DiffOp(tring, [tring.const(Fraction(1, 4)), tring.one, tring.one])
    assert conj == expected
    assert DiffOp.mult(t) * conj == d2 * DiffOp.mult(t)


def test_conjugation_by_zero_rejected(tring):
    with pytest.raises(ZeroDivisionError):
        DiffOp.d(tring).conjugate_by_unit(tring.zero)


# -- series action ----------------------------------------------------------------


def _series(zring, coeffs):
    return PowerSeries(zring, [zring.const(c) for c in coeffs])


def test_d_fixes_exponential_series():
    zring = PolyRing(("z",))
    xring = PolyRing(("x",))
    from math import factorial

    exp = _series(zring, [Fraction(1, factorial(k)) for k in range(8)])
    split = multipoly_x_split(zring)
    image = DiffOp.d(xring).apply_to_series(exp, split)
    assert image.coeffs == exp.coeffs[:-1]


def test_operator_on_constant_series(xring):
    zring = PolyRing(("z",))
    x = xring.var("x")
    op = DiffOp(xring, [x ** 3, xring.zero, xring.one])
    one = _series(zring, [1, 0, 0, 0, 0, 0])
    image = op.apply_to_series(one, multipoly_x_split(zring))
    assert image.coeffs == _series(zring, [0, 0, 0, 1]).coeffs


def test_series_action_matches_termwise_oracle(xring):
    zring = PolyRing(("z",))
    x = xring.var("x")
    op = DiffOp(xring, [x ** 6 + 8 * x, 6 * x ** 2, 2 * x ** 3, xring.zero, xring.one])
    f = xring.var("x") ** 3 * Fraction(1, 6)
    # oracle in the x-ring itself: repeated derivation
    expected = op.apply_to_poly(f)
    series = _series(zring, [0, 0, 0, Fraction(1, 6)] + [0] * 6)
    image = op.apply_to_series(series, multipoly_x_split(zring))
    buckets = expected.coefficients_in("x") if not expected.is_zero() else {}
    for k, coeff in enumerate(image.coeffs):
        want = buckets.get(k)
        got = coeff.as_fraction()
        assert got == (want.as_fraction() if want is not None else Fraction(0))


def test_insufficient_truncation_rejected(xring):
    zring = PolyRing(("z",))
    f = _series(zring, [1, 2])
    with pytest.raises(TruncationError):
        DiffOp.d(xring, 3).apply_to_series(f, multipoly_x_split(zring))
