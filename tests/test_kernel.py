"""Differential tests of the sum-of-products kernels behind operator composition.

Every composition, commutator and right division is compared with the
per-term Leibniz loop in ``conftest`` (one ring product per term), and every
ring product with the schoolbook loops there, on 30-digit rationals in each
coefficient ring the package uses.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs.operators import DiffOp, _derivatives
from spectral_pairs.rings import (
    CharPoly,
    FractionFieldRing,
    PolyRing,
    QuotientExt,
    QuotientRing,
    RationalField,
    UniPoly,
)

from conftest import (
    leibniz_compose,
    multipoly_product_oracle,
    quotient_product_oracle,
    quotient_sum_products_oracle,
    random_rational,
    right_divmod_oracle,
    ring_product_oracle,
    times_int,
)

BIG = 10 ** 30
big_rational = st.builds(
    Fraction,
    st.integers(-100 * BIG, 100 * BIG),
    st.integers(BIG, 100 * BIG),
)


def _poly(ring, exponent_ranges, max_terms=3):
    exps = st.tuples(*(st.integers(lo, hi) for lo, hi in exponent_ranges))
    return st.dictionaries(exps, big_rational, max_size=max_terms).map(ring.from_terms)


QX = PolyRing(("x",))
QX_PARAMS = PolyRing(("x", "a0", "a1", "a2", "a3"))
QX_LAURENT = PolyRing(("x", "t", "a0"), laurent=("t",))
QX_A0 = PolyRing(("x", "a0"))

_x_poly = _poly(QX, [(0, 4)])


def _quotient_case(base, chi, coord):
    qring = QuotientRing(base, chi)
    elems = st.lists(coord, min_size=qring.degree, max_size=qring.degree).map(
        lambda cs: QuotientExt(qring, cs)
    )
    return qring, elems


_a0 = QX_A0.var("a0")
CASES = {
    "x": (QX, _x_poly),
    "params": (QX_PARAMS, _poly(QX_PARAMS, [(0, 3)] + [(0, 2)] * 4)),
    "laurent": (QX_LAURENT, _poly(QX_LAURENT, [(0, 3), (-3, 3), (0, 2)])),
    "quotient-rational": _quotient_case(
        QX,
        CharPoly(PolyRing(()), [Fraction(7 * BIG + 1, 3 * BIG - 1), Fraction(-BIG, 11), 1]),
        _x_poly,
    ),
    "quotient-parameter": _quotient_case(
        QX_A0,
        CharPoly(QX_A0, [Fraction(5 * BIG + 3, 2 * BIG + 7), 3 * _a0, _a0 * _a0, QX_A0.one]),
        _poly(QX_A0, [(0, 3), (0, 2)], max_terms=2),
    ),
}


def _op(elems, max_order=3):
    return st.lists(elems, max_size=max_order + 1)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compose_and_commutator_match_leibniz_oracle(case, data):
    ring, elems = CASES[case]
    a = DiffOp(ring, data.draw(_op(elems)))
    b = DiffOp(ring, data.draw(_op(elems)))
    ab, ba = leibniz_compose(a, b), leibniz_compose(b, a)
    assert a * b == ab
    assert a.commutator(b) == ab - ba


def _check_commutator(ring, elems, data):
    """[a, b] against the oracle for a of order <= 6 and b free, zero, of
    order 0, or of a's order with a's leading coefficient (so the top order
    of [a, b] cancels; zero when a is), on either side."""
    a = DiffOp(ring, data.draw(_op(elems, max_order=6)))
    kind = data.draw(st.sampled_from(["free", "same-lead", "zero", "order-0"]))
    if kind == "free":
        b = DiffOp(ring, data.draw(_op(elems, max_order=6)))
    elif kind == "same-lead" and not a.is_zero():
        lower = data.draw(st.lists(elems, min_size=len(a.coeffs) - 1, max_size=len(a.coeffs) - 1))
        b = DiffOp(ring, lower + [a.coeffs[-1]])
    elif kind == "order-0":
        b = DiffOp(ring, [data.draw(elems)])
    else:
        b = DiffOp.zero(ring)
    if data.draw(st.booleans()):
        a, b = b, a
    got = a.commutator(b)
    want = leibniz_compose(a, b) - leibniz_compose(b, a)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_commutator_matches_leibniz_oracle(case, data):
    _check_commutator(*CASES[case], data)


_QQ = RationalField()
_FRAC = FractionFieldRing(_QQ)
_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_commutator_over_fraction_field_matches_leibniz_oracle(data):
    # n/d with deg n <= 1 and d in {1, x + 1}: one pole keeps the sums of
    # order-6 derivatives from multiplying out unrelated denominators
    elems = st.builds(
        lambda n, d: _FRAC.from_poly(UniPoly(_QQ, n)) / _FRAC.from_poly(UniPoly(_QQ, d)),
        st.lists(_small, max_size=2),
        st.sampled_from([[1], [1, 1]]),
    )
    _check_commutator(_FRAC, elems, data)


def _check_right_divmod(n, d):
    q, r = n.right_divmod(d)
    assert (q, r) == right_divmod_oracle(n, d)
    assert leibniz_compose(q, d) + r == n
    assert r.is_zero() or r.order < d.order


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_right_divmod_matches_oracle(case, data):
    ring, elems = CASES[case]
    n = DiffOp(ring, data.draw(_op(elems, max_order=5)))
    d = DiffOp(ring, data.draw(st.lists(elems, max_size=2)) + [ring.one])
    _check_right_divmod(n, d)
    # the zero operator, and an operator of lower order than d: q = 0, r = n
    for low in (DiffOp.zero(ring), DiffOp(ring, n.coeffs[:d.order])):
        assert low.right_divmod(d) == (DiffOp.zero(ring), low)
        _check_right_divmod(low, d)


# An order-12 quotient multiplies the divisor's coefficient degrees by up to
# 12, and over the parameter quotient every z^3 brings in a0^2; in several
# variables the divisor's coefficients are one monomial of degree <= 1 (per
# coordinate), which keeps each example to seconds against the per-term oracle
_DIVISOR_ELEMS = {
    "params": _poly(QX_PARAMS, [(0, 1)] * 5, max_terms=1),
    "laurent": _poly(QX_LAURENT, [(0, 1), (-1, 1), (0, 1)], max_terms=1),
    "quotient-parameter": _quotient_case(
        QX_A0, CASES["quotient-parameter"][0].chi, _poly(QX_A0, [(0, 1), (0, 1)], max_terms=1)
    )[1],
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_high_order_right_divmod_matches_oracle(case, data):
    """Order <= 12 by a monic divisor of order <= 4: every quotient step
    reaches back through up to four derivative orders of the divisor."""
    ring, elems = CASES[case]
    n = DiffOp(ring, data.draw(_op(elems, max_order=12)))
    d = DiffOp(ring, data.draw(st.lists(_DIVISOR_ELEMS.get(case, elems), max_size=4))
               + [ring.one])
    _check_right_divmod(n, d)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sum_products_matches_termwise_sum(case, data):
    ring, elems = CASES[case]
    triples = data.draw(st.lists(
        st.tuples(st.integers(-20, 20), elems, elems), max_size=5
    ))
    expected = ring.zero
    for c, a, b in triples:
        expected = expected + times_int(ring_product_oracle(a, b), c)
    assert ring.sum_products(triples) == expected


def test_quotient_sum_products_skips_empty_z_buckets(monkeypatch):
    qring = QuotientRing(QX, CharPoly(PolyRing(()), [0, 0, 0, 1]))  # Q[x][z]/(z^3)
    x = QX.from_terms({(1,): Fraction(1)})
    a = QuotientExt(qring, (x, QX.zero, QX.zero))
    b = QuotientExt(qring, (QX.zero, QX.zero, x + 1))
    expected = qring.zero + times_int(ring_product_oracle(a, b), 3)
    sizes = []
    kernel = PolyRing.sum_products

    def counting(self, triples):
        sizes.append(len(triples))
        return kernel(self, triples)

    monkeypatch.setattr(PolyRing, "sum_products", counting)
    # only the z^2 bucket of the five has a product in it
    assert qring.sum_products([(3, a, b)]) == expected
    assert sizes == [1]


_Q = PolyRing(())
_a0_coord = _poly(QX_A0, [(0, 3), (0, 2)], max_terms=2)
# chi of degree 1, 2 and 3 over Q, and over Q[a0] with a0 in its coefficients
_CHIS = {
    "rational-1": (QX, CharPoly(_Q, [Fraction(-7 * BIG - 1, 3 * BIG + 1), 1]), _x_poly),
    "rational-2": (QX, CharPoly(_Q, [Fraction(7 * BIG + 1, 3 * BIG - 1), Fraction(-BIG, 11), 1]),
                   _x_poly),
    "rational-3": (QX, CharPoly(_Q, [Fraction(BIG + 1, 5), 0, Fraction(-2, BIG + 3), 1]),
                   _x_poly),
    "parameter-1": (QX_A0, CharPoly(QX_A0, [2 * _a0 - Fraction(1, 3), QX_A0.one]), _a0_coord),
    "parameter-2": (QX_A0, CharPoly(QX_A0, [_a0 * _a0, Fraction(-BIG, 7) * _a0, QX_A0.one]),
                    _a0_coord),
    "parameter-3": (QX_A0, CharPoly(QX_A0, [Fraction(5 * BIG + 3, 2 * BIG + 7), 3 * _a0,
                                            _a0 * _a0, QX_A0.one]), _a0_coord),
}


@pytest.mark.parametrize("case", sorted(_CHIS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quotient_sum_products_matches_bucket_oracle(case, data):
    """The reduction inside the kernel sum against bucket sums reduced once by
    ``from_z_coeffs``, with zero coordinates, empty lists and cancelling sums."""
    base, chi, coord = _CHIS[case]
    qring = QuotientRing(base, chi)
    coords = st.lists(st.one_of(st.just(base.zero), coord),
                      min_size=qring.degree, max_size=qring.degree)
    elems = coords.map(lambda cs: QuotientExt(qring, cs))
    triples = data.draw(st.lists(st.tuples(st.integers(-20, 20), elems, elems), max_size=5))
    got = qring.sum_products(triples)
    assert got == quotient_sum_products_oracle(qring, triples)
    assert got == quotient_sum_products_oracle(qring, list(reversed(triples)))
    cancelled = qring.sum_products(triples + [(-c, a, b) for c, a, b in triples])
    assert cancelled == qring.zero and cancelled.is_zero()
    assert qring.sum_products([]) == qring.zero == quotient_sum_products_oracle(qring, [])


@pytest.mark.parametrize("case", ["x", "params", "laurent"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multipoly_product_matches_schoolbook_loop(case, data):
    ring, elems = CASES[case]
    p, q = data.draw(elems), data.draw(elems)
    got, expected = p * q, multipoly_product_oracle(p, q)
    assert got == expected
    # term order is part of the result: float evaluations sum in this order,
    # ascending exponents in one variable (terms built from the integer
    # pair) and the schoolbook order of the sparse loop otherwise
    if case == "x":
        assert list(got.terms) == sorted(expected.terms)
    else:
        assert list(got.terms) == list(expected.terms)
    assert all(isinstance(c, Fraction) for c in got.terms.values())


@pytest.mark.parametrize("case", ["quotient-rational", "quotient-parameter"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_product_matches_schoolbook_loop(case, data):
    ring, elems = CASES[case]
    a, b = data.draw(elems), data.draw(elems)
    assert a * b == quotient_product_oracle(a, b)


QZ = PolyRing(("z",))


# exponent ranges per variable; negative powers of the Laurent variable t
_EXPONENTS = {
    QX: [(0, 6)],
    QZ: [(0, 6)],
    QX_PARAMS: [(0, 3)] + [(0, 2)] * 4,
    QX_LAURENT: [(0, 3), (-3, 3), (0, 2)],
}


def _wide_poly(ring, bits):
    """Up to five terms, numerators and denominators of ``bits`` bits."""
    coeff = st.builds(Fraction, st.integers(-(2 ** bits), 2 ** bits), st.integers(1, 2 ** bits))
    exps = st.tuples(*(st.integers(lo, hi) for lo, hi in _EXPONENTS[ring]))
    return st.dictionaries(exps, coeff, max_size=5).map(ring.from_terms)


def _termwise_product(p, q) -> dict:
    """{exponent: Fraction} of p*q, one Fraction product per term pair."""
    acc: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _termwise_derivative(p) -> dict:
    """{exponent: Fraction} of D p, D x^a t^b = a x^(a-1) t^b + (b/2) x^a t^b."""
    names = p.ring.variables
    acc: dict = {}
    for e, c in p.terms.items():
        for i, name in enumerate(names):
            if name == "x" and e[i]:
                f = e[:i] + (e[i] - 1,) + e[i + 1:]
                acc[f] = acc.get(f, 0) + c * e[i]
            if name == "t" and e[i]:
                acc[e] = acc.get(e, 0) + c * Fraction(e[i], 2)
    return {e: c for e, c in acc.items() if c}


_ONE_VARIABLE = pytest.mark.parametrize("ring", [QX, QZ], ids=["x", "z"])
_SEVERAL_VARIABLES = pytest.mark.parametrize("ring", [QX_PARAMS, QX_LAURENT],
                                             ids=["params", "laurent"])
_EVERY_RING = pytest.mark.parametrize("ring", [QX, QZ, QX_PARAMS, QX_LAURENT],
                                      ids=["x", "z", "params", "laurent"])
_BITS = pytest.mark.parametrize("bits", [90, 1000])


@_ONE_VARIABLE
@_BITS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_variable_kernel_matches_per_term_oracles(ring, bits, data):
    elems = _wide_poly(ring, bits)
    p, q = data.draw(elems), data.draw(elems)
    got, want = p * q, multipoly_product_oracle(p, q)
    assert got == want and got.terms == want.terms
    triples = data.draw(st.lists(st.tuples(st.integers(-20, 20), elems, elems), max_size=4))
    acc: dict = {}
    for c, a, b in triples:
        for e, v in ring_product_oracle(a, b).terms.items():
            acc[e] = acc.get(e, 0) + c * v
    assert ring.sum_products(triples).terms == {e: v for e, v in acc.items() if v}
    chi = CharPoly(PolyRing(()), [Fraction(2 ** bits + 1, 3), Fraction(-5, 2 ** bits), 1])
    qring = QuotientRing(QX, chi)
    a, b = (QuotientExt(qring, data.draw(st.lists(_wide_poly(QX, bits), min_size=2,
                                                  max_size=2))) for _ in range(2))
    assert a * b == ring_product_oracle(a, b)


def _check_derive(ring, bits, data):
    """D p against the termwise derivative: equal terms, ``==``, hash and repr."""
    p = data.draw(_wide_poly(ring, bits))
    want = _termwise_derivative(p)
    got = p.derive()
    assert got.terms == want
    same = ring.from_terms(want)
    assert got == same and hash(got) == hash(same) and repr(got) == repr(same)
    # the derivative list stops before the first zero derivative, or at p^(6)
    chain = [p]
    while len(chain) < 7 and not chain[-1].is_zero():
        chain.append(chain[-1].derive())
    derivs = _derivatives(p, 6)
    assert derivs == [q for q in chain if not q.is_zero()]
    if ring is QX:  # deg p + 1 derivatives are nonzero, none for p = 0
        assert len(derivs) == min(p.degree_in("x") + 1, 7)


@_ONE_VARIABLE
@_BITS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_variable_derive_matches_termwise_derivative(ring, bits, data):
    # D differentiates x; z is a constant of the derivation
    _check_derive(ring, bits, data)


@_SEVERAL_VARIABLES
@_BITS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_derive_in_several_variables_matches_termwise_derivative(ring, bits, data):
    _check_derive(ring, bits, data)


@_EVERY_RING
@_BITS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_element_is_the_from_terms_element(ring, bits, data):
    """A product's terms, built from its integer pair on first read, are
    those of the element ``from_terms`` builds from the same rationals: equal
    hash, ``==``, repr and terms.  In one variable they are in ascending
    order, otherwise in the order of the schoolbook loop."""
    elems = _wide_poly(ring, bits)
    p, q = data.draw(elems), data.draw(elems)
    terms = _termwise_product(p, q)
    got, want = p * q, ring.from_terms(terms)
    assert hash(got) == hash(want)
    assert got == want
    assert repr(got) == repr(want)
    assert got.terms == terms
    if ring in (QX, QZ):
        assert list(got.terms) == sorted(terms)
    else:
        assert list(got.terms) == list(multipoly_product_oracle(p, q).terms)


@_EVERY_RING
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equality_and_hash_of_kernel_outputs_build_no_terms(ring, data):
    elems = _wide_poly(ring, 90)
    p, q = data.draw(elems), data.draw(elems)
    pairs = [
        (p * q, q * p),
        (ring.sum_products([(3, p, q), (-2, q, q)]), ring.sum_products([(-2, q, q), (3, q, p)])),
        (p * Fraction(-5, 7), Fraction(-5, 7) * p),
        (p - q, -(q - p)),
        (p.derive(), p.derive()),
    ]
    # products and kernel sums come out as a normal-form pair alone
    assert all(a._terms is None and b._terms is None for a, b in pairs[:2])
    for a, b in pairs:
        # a sum with a zero operand or the zero derivative may be a term-built
        # element; either way == and hash leave the terms as they were
        before = (a._terms, b._terms)
        assert a == b and hash(a) == hash(b)
        assert (a == ring.zero) == a.is_zero()
        assert a._terms is before[0] and b._terms is before[1]


def test_z_derive_stays_zero():
    # z is a constant of the derivation, in Q[z] as in Q[x][z]/(chi)
    z = QZ.var("z")
    for p in [QZ.zero, QZ.one, z, z ** 5 * Fraction(3, 7) + z - 2]:
        d = p.derive()
        assert d.is_zero() and d == QZ.zero and d.terms == {}
        assert d.derive().is_zero()
        assert _derivatives(p, 3) == ([] if p.is_zero() else [p])


@pytest.mark.parametrize("k", [-7, -3, -2, -1, 0, 1, 4])
def test_laurent_derive_halves_negative_powers(k):
    # t stands for exp(x/2), so D(t^k) = (k/2) t^k for every integer k
    for ring in (QX_LAURENT, PolyRing(("t",), laurent=("t",))):
        t_k = ring.var("t", k) * Fraction(5, 3)
        want = t_k * Fraction(k, 2)
        assert t_k.derive() == want
        assert t_k.derive().terms == want.terms
        if k:
            (e, c), = t_k.derive().terms.items()
            assert c == Fraction(5 * k, 6) and e[ring.variables.index("t")] == k
        # a power of t never derives to zero, so its derivative list runs to n
        assert _derivatives(t_k, 5) == ([t_k * Fraction(k, 2) ** i for i in range(6)]
                                        if k else [t_k])


def test_compose_over_fraction_field_matches_oracle():
    qq = RationalField()
    ring = FractionFieldRing(qq)
    rng = random.Random(23)

    def elem():
        num = UniPoly(qq, [random_rational(rng) for _ in range(3)])
        den = UniPoly(qq, [random_rational(rng), 1])
        return ring.from_poly(num) / ring.from_poly(den)

    for _ in range(10):
        a = DiffOp(ring, [elem() for _ in range(rng.randint(1, 3))])
        b = DiffOp(ring, [elem() for _ in range(rng.randint(1, 3))])
        assert a * b == leibniz_compose(a, b)


def _sympy_apply(op, f, x, sympy):
    """op acting on the sympy expression f in x."""
    out = sympy.Integer(0)
    for i, coeff in enumerate(op.coeffs):
        poly = sum(
            (sympy.Rational(c.numerator, c.denominator) * x ** e[0]
             for e, c in coeff.terms.items()),
            sympy.Integer(0),
        )
        out += poly * sympy.diff(f, x, i)
    return out


@settings(max_examples=25, deadline=None)
@given(_op(_x_poly), _op(_x_poly))
def test_compose_acts_as_composition_in_sympy(a_coeffs, b_coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = sympy.Function("f")(x)
    a, b = DiffOp(QX, a_coeffs), DiffOp(QX, b_coeffs)
    lhs = _sympy_apply(a * b, f, x, sympy)
    rhs = _sympy_apply(a, _sympy_apply(b, f, x, sympy), x, sympy)
    assert sympy.expand(lhs - rhs) == 0
