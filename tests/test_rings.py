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
    FractionElem,
    FractionFieldRing,
    PolyRing,
    QuotientField,
    QuotientRing,
    RationalField,
    UniPoly,
    rational_roots,
    reduce_mod_char,
)
from spectral_pairs.operators import DiffOp

from conftest import random_poly, random_rational

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


# one element of each type with a ** operator
POWER_BASES = {
    "MultiPoly": lambda: PolyRing(("x",)).var("x") + 1,
    "QuotientExt": lambda: QuotientRing(PolyRing(()), CharPoly(PolyRing(()), [1, 0, 1])).gen,
    "UniPoly": lambda: UniPoly(RationalField(), [Fraction(1), Fraction(1, 2)]),
    "DiffOp": lambda: DiffOp.d(PolyRing(("x",))) + DiffOp.mult(PolyRing(("x",)).var("x")),
}


@pytest.mark.parametrize("exponent", [-1, 2.0])
@pytest.mark.parametrize("kind", sorted(POWER_BASES))
def test_power_rejects_negative_and_non_integer_exponents(kind, exponent):
    with pytest.raises(ValueError):
        POWER_BASES[kind]() ** exponent


# -- derivation ------------------------------------------------------------------


def test_derive_monomial(xring):
    x = xring.var("x")
    assert (x ** 2).derive() == 2 * x


def test_parameters_are_constants():
    assert ALPHAS.var("a2").derive() == ALPHAS.zero


def test_twisted_derivation(tring):
    t3 = tring.var("t", 3)
    assert t3.derive() == t3 * Fraction(3, 2)


def test_unit_inverse(tring):
    u = tring.var("t", -3) * Fraction(-2, 5)
    assert u * u.inverse() == tring.one
    laurent = PolyRing(("x", "a4"), laurent=("a4",))
    for non_unit in (tring.var("t") + 1, tring.zero, laurent.var("x"),
                     laurent.var("a4") * laurent.var("x")):
        with pytest.raises(ZeroDivisionError):
            non_unit.inverse()


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
    f = FractionElem(_upoly([-1, 0, 1]), _upoly([-1, 1]))
    assert f.num == _upoly([1, 1])
    assert f.den == _upoly([1])


def test_normalize_zero_numerator():
    f = FractionElem(_upoly([]), _upoly([3, 0, 7]))
    assert f.is_zero() and f.den == _upoly([1])


def test_normalize_monic_denominator_convention():
    f = FractionElem(_upoly([0, 2]), _upoly([4]))
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
        assert FractionElem(a * c, b * c) == FractionElem(a, b)
    assert ring.one == ring.const(1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        FractionElem(_upoly([1]), _upoly([]))


_small_q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(st.lists(_small_q, min_size=2, max_size=3), st.lists(_small_q, min_size=3, max_size=3))
def test_quotient_field_inverse(chi_low, coords):
    # a * a^-1 = 1 in Q[z]/(chi); a zero divisor (a common root with chi) raises
    qring = QuotientRing(PolyRing(()), CharPoly(PolyRing(()), chi_low + [Fraction(1)]))
    a = qring.from_z_coeffs(coords[:qring.degree])
    field = QuotientField(qring)
    chi = _upoly(chi_low + [1])
    if chi.gcd(_upoly(coords[:qring.degree])).degree == 0:
        assert a * field.inv(a) == qring.one
    else:
        with pytest.raises(ZeroDivisionError):
            field.inv(a)


# -- bulk randomized properties (counts fixed by the acceptance gate) -------------

# ring name -> (ring, fixed seed); the seed replays a failing case exactly
RINGS = {
    "x": (PolyRing(("x",)), 11),
    "params": (ALPHAS, 12),
    "laurent": (PolyRing(("x", "a4"), laurent=("a4",)), 13),
    "twisted": (PolyRing(("x", "t", "a0"), laurent=("t",)), 14),
}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_ring_axioms_bulk(ring_name):
    ring, seed = RINGS[ring_name]
    rng = random.Random(seed)
    for _ in range(1000):
        a, b, c = (random_poly(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_leibniz_bulk(ring_name):
    ring, seed = RINGS[ring_name]
    rng = random.Random(1000 + seed)
    for _ in range(1000):
        a, b = random_poly(ring, rng), random_poly(ring, rng)
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


# -- differential test of the derivation against sympy -----------------------------

# (t power, a0 power) -> coefficient, over Q[t, 1/t, a0]
twisted_terms = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 2)), coefficients, max_size=5
)


@settings(max_examples=100, deadline=None)
@given(twisted_terms)
def test_hypothesis_twisted_derive_matches_sympy(terms):
    # sum c a0^i t^k read as sum c a0^i e^(kx/2), differentiated in x by sympy,
    # and mapped back by x = 2 log t
    sympy = pytest.importorskip("sympy")
    x, a0 = sympy.symbols("x a0")
    t = sympy.Symbol("t", positive=True)

    def expr(poly_terms, t_of_k):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * t_of_k(k) * a0 ** i
             for (k, i), c in poly_terms.items()),
            sympy.Integer(0),
        )

    ring = PolyRing(("t", "a0"), laurent=("t",))
    got = expr(ring.from_terms(terms).derive().terms, lambda k: t ** k)
    f = expr(terms, lambda k: sympy.exp(k * x / 2))
    expected = sympy.diff(f, x).subs(x, 2 * sympy.log(t))
    assert sympy.expand(expected - got) == 0


# -- products by a scalar ----------------------------------------------------------

SCALARS = [0, 1, -1, 10 ** 40 + 7, Fraction(-7, 12)]


@pytest.mark.parametrize("ring", [
    PolyRing(("x",)),
    PolyRing(("x", "t", "a0"), laurent=("t",)),
    PolyRing(("z", "w")),
], ids=["x", "twisted", "zw"])
@pytest.mark.parametrize("c", SCALARS, ids=repr)
def test_scalar_product_matches_constant_product(ring, c):
    rng = random.Random(61)
    for _ in range(50):
        p = random_poly(ring, rng)
        expected = ring.const(c) * p
        for got in (p * c, c * p):
            assert got == expected
            assert got.ring == ring
            assert all(isinstance(v, Fraction) and v for v in got.terms.values())
