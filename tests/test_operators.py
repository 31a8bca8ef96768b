import random
from fractions import Fraction

import pytest

from spectral_pairs.errors import NonMonicError, RingMismatchError
from spectral_pairs.families import CUBIC, FamilySpec, make_L4
from spectral_pairs.operators import DiffOp, _derivatives
from spectral_pairs.rings import (
    FractionFieldRing,
    MultiPoly,
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


def test_composition_derives_the_right_operand_only_to_its_degrees(monkeypatch):
    """A*L4 derives each coefficient of L4 only until it vanishes, however
    long A is: on the g = 20 generic cubic L4's coefficients have degree
    <= 6 and 15 nonzero derivatives in all, against 80 derivative orders
    an order-80 A could reach."""
    l4 = make_L4(FamilySpec(CUBIC, 20, alphas=(4, 1, Fraction(-2, 3), -1)))
    ring = l4.ring
    x = ring.var("x")
    nonzero = sum(len(_derivatives(c, 100)) for c in l4.coeffs)
    derive = MultiPoly.derive
    calls = []
    monkeypatch.setattr(MultiPoly, "derive", lambda p: calls.append(p) or derive(p))
    counts = []
    for order in (8, 80):
        a = DiffOp(ring, [x * (i + 1) + 1 for i in range(order + 1)])
        before = len(calls)
        assert (a * l4).order == order + 4
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] <= nonzero == 15


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

