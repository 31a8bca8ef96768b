import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs.errors import (
    NonMonicError,
    RingMismatchError,
    UnsupportedDegreeError,
)
from spectral_pairs.rings import (
    CharPoly,
    FractionFieldRing,
    PolyRing,
    QuotientRing,
    RationalField,
    TwistedLaurentRing,
    UniPoly,
    normalize_fraction,
    rational_roots,
    reduce_mod_char,
)

from conftest import random_poly, random_rational, random_twisted

ALPHAS = PolyRing(("x", "a0", "a1", "a2", "a3"))


# -- basic arithmetic ------------------------------------------------------------


def test_difference_of_squares(xring):
    x = xring.var("x")
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_additive_identity_on_random_elements(rng):
    for _ in range(200):
        a = random_poly(ALPHAS, rng)
        assert a + ALPHAS.zero == a


def test_mixed_ring_operands_rejected(xring):
    other = PolyRing(("x", "a0"))
    with pytest.raises(RingMismatchError):
        xring.var("x") + other.var("a0")


def test_quotient_product_reduces():
    # (z + 4 a2) * z = -12 a1 a3 once z^2 + 4 a2 z + 12 a1 a3 = 0
    pring = PolyRing(("a0", "a1", "a2", "a3"))
    a1, a2, a3 = (pring.var(v) for v in ("a1", "a2", "a3"))
    chi = CharPoly(pring, [12 * a1 * a3, 4 * a2, pring.one])
    q = QuotientRing(pring, chi)
    z = q.gen
    assert (z + q.from_base(4 * a2)) * z == q.from_base(-12 * a1 * a3)


# -- derivation ------------------------------------------------------------------


def test_derive_monomial(xring):
    x = xring.var("x")
    assert (x ** 2).derive() == 2 * x


def test_parameters_are_constants():
    assert ALPHAS.var("a2").derive() == ALPHAS.zero


def test_twisted_derivation(tring):
    t3 = tring.t_power(3)
    assert t3.derive() == tring.t_power(3, Fraction(3, 2))


# -- reduce_mod_char --------------------------------------------------------------


def _quadratic_chi():
    pring = PolyRing(("a1", "a2", "a3"))
    a1, a2 = pring.var("a1"), pring.var("a2")
    a3 = pring.var("a3")
    return pring, CharPoly(pring, [12 * a1 * a3, 4 * a2, pring.one])


def test_reduce_z_squared():
    pring, chi = _quadratic_chi()
    zring = PolyRing(("a1", "a2", "a3", "z"))
    z = zring.var("z")
    red = reduce_mod_char(z * z, chi)
    a1, a2, a3 = (pring.var(v) for v in ("a1", "a2", "a3"))
    assert red.coords == (-12 * a1 * a3, -4 * a2)


def test_reduce_z_is_z():
    _, chi = _quadratic_chi()
    zring = PolyRing(("a1", "a2", "a3", "z"))
    red = reduce_mod_char(zring.var("z"), chi)
    qring = red.ring
    assert red == qring.gen


def test_reduce_modulus_to_zero():
    base = PolyRing(())
    chi = CharPoly(base, [0, 0, 0, base.one])  # z^3
    zring = PolyRing(("z",))
    assert reduce_mod_char(zring.var("z") ** 3, chi).is_zero()


def test_non_monic_modulus_rejected():
    base = PolyRing(())
    with pytest.raises(NonMonicError):
        CharPoly(base, [base.one, base.const(2)])


# -- rational roots ---------------------------------------------------------------


def test_rational_roots_quadratic():
    base = PolyRing(())
    chi = CharPoly(base, [0, 4, base.one])  # z^2 + 4z
    assert rational_roots(chi) == [Fraction(-4), Fraction(0)]


def test_rational_roots_irreducible():
    base = PolyRing(())
    chi = CharPoly(base, [12, 0, base.one])  # z^2 + 12
    assert rational_roots(chi) == []


def test_rational_roots_with_multiplicity():
    base = PolyRing(())
    chi = CharPoly(base, [0, 0, 0, base.one])  # z^3
    assert rational_roots(chi) == [0, 0, 0]


def test_rational_roots_degree_cap():
    base = PolyRing(())
    with pytest.raises(UnsupportedDegreeError):
        rational_roots(CharPoly(base, [0, 0, 0, 0, base.one]))


def test_rational_roots_large_coefficients_are_fast():
    # chi = (z - p/q)(z^2 + c) with 40-digit data: a divisor scan of the
    # constant term could never finish
    base = PolyRing(())
    root = Fraction(10**40 + 7, 3**50)
    c = Fraction(10**41 + 1, 7)
    chi = CharPoly(base, [-root * c, c, -root, base.one])
    assert rational_roots(chi) == [root]


def _poly_product(factors):
    out = [Fraction(1)]
    for fac in factors:
        prod = [Fraction(0)] * (len(out) + len(fac) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(fac):
                prod[i + j] += a * b
        out = prod
    return out


def _sympy_rational_roots(coeffs):
    """Rational roots with multiplicity, from sympy's factorization over Q."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    f = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], z
    )
    roots = []
    for fac, mult in f.factor_list()[1]:
        if fac.degree() == 1:
            a1, a0 = fac.all_coeffs()
            r = -a0 / a1
            roots += [Fraction(int(r.p), int(r.q))] * mult
    return sorted(roots)


big = st.integers(-(10**30), 10**30)
big_nonzero = big.filter(bool)
monic_linear = st.tuples(big, big_nonzero).map(
    lambda t: [Fraction(-t[0], t[1]), Fraction(1)]
)
monic_quadratic = st.tuples(big, big, big_nonzero).map(
    lambda t: [Fraction(t[0], t[2]), Fraction(t[1], t[2]), Fraction(1)]
)
monic_cubic = st.tuples(big, big, big, big_nonzero).map(
    lambda t: [Fraction(t[0], t[3]), Fraction(t[1], t[3]), Fraction(t[2], t[3]),
               Fraction(1)]
)
chi_factors = st.one_of(
    st.lists(monic_linear, min_size=1, max_size=3),
    monic_linear.map(lambda f: [f, f]),
    monic_linear.map(lambda f: [f, f, f]),
    st.tuples(monic_quadratic, monic_linear).map(list),
    monic_quadratic.map(lambda f: [f]),
    monic_cubic.map(lambda f: [f]),
)


@settings(max_examples=150, deadline=None)
@given(chi_factors)
def test_hypothesis_rational_roots_match_sympy(factors):
    coeffs = _poly_product(factors)
    base = PolyRing(())
    assert rational_roots(CharPoly(base, coeffs)) == _sympy_rational_roots(coeffs)


# -- fraction normalization -------------------------------------------------------


def _upoly(coeffs):
    return UniPoly(RationalField(), [Fraction(c) for c in coeffs])


def test_normalize_cancels_common_factor():
    # (x^2 - 1)/(x - 1) -> (x + 1)/1
    f = normalize_fraction(_upoly([-1, 0, 1]), _upoly([-1, 1]))
    assert f.num == _upoly([1, 1])
    assert f.den == _upoly([1])


def test_normalize_zero_numerator():
    f = normalize_fraction(_upoly([]), _upoly([3, 0, 7]))
    assert f.is_zero() and f.den == _upoly([1])


def test_normalize_monic_denominator_convention():
    f = normalize_fraction(_upoly([0, 2]), _upoly([4]))
    assert f.num == _upoly([0, Fraction(1, 2)]) and f.den == _upoly([1])


def test_normalize_invariant_under_common_factor(rng):
    field = RationalField()
    ring = FractionFieldRing(field)
    for _ in range(100):
        a = _upoly([random_rational(rng) for _ in range(3)])
        b = _upoly([random_rational(rng) for _ in range(2)] + [1])
        c = _upoly([random_rational(rng), 1])
        if a.is_zero():
            continue
        assert normalize_fraction(a * c, b * c) == normalize_fraction(a, b)
    assert ring.one == ring.const(1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        normalize_fraction(_upoly([1]), _upoly([]))


# -- bulk randomized properties (counts fixed by the acceptance gate) -------------

RINGS = {
    "x": PolyRing(("x",)),
    "params": ALPHAS,
    "laurent": PolyRing(("x", "a4"), laurent=("a4",)),
    "twisted": TwistedLaurentRing(PolyRing(())),
}


def _sample(ring, rng):
    if isinstance(ring, TwistedLaurentRing):
        return random_twisted(ring, rng)
    return random_poly(ring, rng)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_ring_axioms_bulk(ring_name):
    ring = RINGS[ring_name]
    rng = random.Random(hash(ring_name) & 0xFFFF)
    for _ in range(1000):
        a, b, c = (_sample(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_leibniz_bulk(ring_name):
    ring = RINGS[ring_name]
    rng = random.Random(~hash(ring_name) & 0xFFFF)
    for _ in range(1000):
        a, b = _sample(ring, rng), _sample(ring, rng)
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_quotient_homomorphism_bulk():
    rng = random.Random(97)
    ring = PolyRing(("x", "z"))
    base = PolyRing(("x",))
    x = base.var("x")
    chi = CharPoly(base, [x + 1, -2 * x, base.one])
    for _ in range(500):
        p, q = random_poly(ring, rng), random_poly(ring, rng)
        rp, rq = reduce_mod_char(p, chi), reduce_mod_char(q, chi)
        assert reduce_mod_char(p + q, chi) == rp + rq
        assert reduce_mod_char(p * q, chi) == rp * rq


# -- hypothesis: structural invariants hold on arbitrary small polynomials --------

exponents = st.tuples(st.integers(0, 4), st.integers(0, 3))
coefficients = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
poly_terms = st.dictionaries(exponents, coefficients, max_size=5)

TWO_VARS = PolyRing(("x", "a0"))


@settings(max_examples=200, deadline=None)
@given(poly_terms, poly_terms)
def test_hypothesis_add_commutes(t1, t2):
    a, b = TWO_VARS.from_terms(t1), TWO_VARS.from_terms(t2)
    assert a + b == b + a


@settings(max_examples=200, deadline=None)
@given(poly_terms, poly_terms)
def test_hypothesis_leibniz(t1, t2):
    a, b = TWO_VARS.from_terms(t1), TWO_VARS.from_terms(t2)
    assert (a * b).derive() == a.derive() * b + a * b.derive()


@settings(max_examples=200, deadline=None)
@given(poly_terms)
def test_hypothesis_sub_self_is_zero(t1):
    a = TWO_VARS.from_terms(t1)
    assert (a - a).is_zero()
