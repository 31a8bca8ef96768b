from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_pairs import curves
from spectral_pairs.centralizer import find_commuting_operator, hyperelliptic_pair
from spectral_pairs.curves import SpectralCurve, charpoly_w, squarefree_normalize
from spectral_pairs.errors import NonMonicError, RingMismatchError
from spectral_pairs.families import CUBIC, FamilySpec, make_L4
from spectral_pairs.operators import DiffOp
from spectral_pairs.rings import PolyRing

from conftest import sympy_squarefree_curve

XRING = PolyRing(("x",))
ZRING = PolyRing(("z",))


def _qz(coeffs):
    """The Q[z] entry with these coefficients, lowest power first."""
    return ZRING.from_terms({(k,): c for k, c in enumerate(coeffs)})


def test_charpoly_of_diagonal_matrix():
    # diag(z, z, 1, 1): det(wI - A) = (w - z)^2 (w - 1)^2
    mat = [[ZRING.zero for _ in range(4)] for _ in range(4)]
    mat[0][0] = ZRING.var("z")
    mat[1][1] = ZRING.var("z")
    mat[2][2] = ZRING.one
    mat[3][3] = ZRING.one
    det = charpoly_w(mat)
    w_minus_z = SpectralCurve({(0, 1): 1, (1, 0): -1})
    w_minus_1 = SpectralCurve({(0, 1): 1, (0, 0): -1})
    assert det == w_minus_z * w_minus_z * w_minus_1 * w_minus_1
    sqf = squarefree_normalize(det)
    assert sqf == w_minus_z * w_minus_1


def test_charpoly_of_nilpotent_block():
    # A = [[0, 1], [0, 0]] (2x2): det(wI - A) = w^2
    mat = [[ZRING.zero, ZRING.one], [ZRING.zero, ZRING.zero]]
    assert charpoly_w(mat) == SpectralCurve({(0, 2): 1})


@pytest.mark.parametrize("terms", [
    {(0, 2): 4, (1, 0): -4},  # 4 w^2 - 4 z
    {(1, 1): Fraction(2, 3), (0, 1): Fraction(2, 3), (0, 0): Fraction(1, 2)},
    {(1, 2): 1, (0, 0): 1},  # z w^2 + 1
    {},  # zero
])
def test_squarefree_normalize_rejects_input_not_monic_in_w(terms):
    with pytest.raises(NonMonicError):
        squarefree_normalize(SpectralCurve(terms))


def test_squarefree_normalize_rejects_other_rings():
    with pytest.raises(RingMismatchError):
        squarefree_normalize(XRING.var("x"))


_W = SpectralCurve({(0, 1): 1})
_Z = SpectralCurve({(1, 0): 1})


@pytest.mark.parametrize("root, power", [
    (_W, 4),
    (_W - 1, 4),
    (_W * _W - _Z ** 3, 2),
    (_W * _W - _Z ** 3, 1),
    (_W ** 4 - _Z, 1),
    (_W * _W - _Z, 3),
    (_W - _Z ** 2, 3),
])
def test_squarefree_normalize_reads_off_the_monic_root(root, power):
    assert squarefree_normalize(root ** power) == SpectralCurve(root.terms)


@pytest.mark.parametrize("curve", [
    (_W - _Z) ** 2 * (_W - 1),  # n = 3: a repeated factor, but no cube
    (_W - _Z) ** 2 * (_W * _W - 1),  # n = 4: neither a fourth power nor a square
])
def test_squarefree_normalize_returns_a_non_power_unchanged(curve):
    assert squarefree_normalize(curve) == SpectralCurve(curve.terms)


def test_squarefree_normalize_strips_repeated_factor():
    w2_minus_z = SpectralCurve({(0, 2): 1, (1, 0): -1})
    squared = w2_minus_z * w2_minus_z
    assert squarefree_normalize(squared) == w2_minus_z


def test_w_slice_and_degrees():
    curve = SpectralCurve({(0, 2): 1, (3, 0): -1, (1, 1): 5})
    assert curve.w_degree() == 2
    assert curve.z_degree() == 3
    assert curve.w_slice(2) == [Fraction(1)]
    assert curve.w_slice(1) == [Fraction(0), Fraction(5)]
    assert curve.w_slice(0) == [0, 0, 0, Fraction(-1)]


def test_zero_terms_are_dropped():
    assert SpectralCurve({(0, 1): 0, (2, 0): 3}).terms == {(2, 0): Fraction(3)}
    assert SpectralCurve({(1, 1): 0}).is_zero()


def test_arithmetic():
    a = SpectralCurve({(0, 1): 1})
    b = SpectralCurve({(1, 0): 1})
    assert a * b == SpectralCurve({(1, 1): 1})
    assert (a - a).is_zero()
    assert (a * a - b) == SpectralCurve({(0, 2): 1, (1, 0): -1})


def test_eval_at_operators_commuting_pair(monkeypatch):
    # order-2 a: no kernel basis of order 4, so R(a, b) is formed by Horner
    def refuse(*args):
        raise AssertionError("the zero test needs a of order 4")

    monkeypatch.setattr(curves, "series_kernel_basis", refuse)
    # z -> d^2, w -> d^3 on the curve w^2 - z^3: exact operator zero
    curve = SpectralCurve({(0, 2): 1, (3, 0): -1})
    d2, d3 = DiffOp.d(XRING, 2), DiffOp.d(XRING, 3)
    assert curve.eval_at_operators(d2, d3).is_zero()
    # and a curve that does not annihilate the pair reports a nonzero witness
    wrong = SpectralCurve({(0, 2): 1, (2, 0): -1})
    assert wrong.eval_at_operators(d2, d3) == DiffOp.d(XRING, 6) - DiffOp.d(XRING, 4)


def _check_kernel_sums(monkeypatch, curve, a, b):
    """(R(a, b), the Q[z] kernel sums eval_at_operators spends outside the
    kernel basis and the action matrix)."""
    calls, inside = [0], [False]
    kernel = curves._Z.sum_products

    def counted(triples):
        calls[0] += not inside[0]
        return kernel(triples)

    def uncounted(fn):
        def wrapped(*args):
            inside[0] = True
            try:
                return fn(*args)
            finally:
                inside[0] = False
        return wrapped

    monkeypatch.setattr(curves._Z, "sum_products", counted)
    monkeypatch.setattr(curves, "_kernel_action", uncounted(curves._kernel_action))
    return curve.eval_at_operators(a, b), calls[0]


def test_check_decides_on_powers_of_the_action_matrix(monkeypatch):
    # w^2 - F on the 4x4 action matrix A: 16 sums form A^2, and each entry of
    # F(z) I - A^2 is one more sum, 32 in all
    l4 = make_L4(FamilySpec(CUBIC, 2, alphas=(4, 1, Fraction(-2, 3), -1)))
    m, curve = hyperelliptic_pair(l4, find_commuting_operator(l4, 10))
    result, sums = _check_kernel_sums(monkeypatch, curve, l4, m)
    assert result.is_zero()
    assert sums == 32
    # R + 1 gives R(z I, A) + I = I: A^2 and the first entry, then the
    # operator R(L4, M') + 1 by Horner
    terms = dict(curve.terms)
    terms[(0, 0)] += 1
    result, sums = _check_kernel_sums(monkeypatch, SpectralCurve(terms), l4, m)
    assert result == DiffOp.identity(l4.ring)
    assert sums == 17


# -- differential tests against sympy --------------------------------------------------

_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# numerators and denominators of up to 30 digits
_large_q = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
_z_poly = st.lists(st.one_of(_small_q, _large_q), max_size=3)
_z_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_z_poly, min_size=n, max_size=n), min_size=n, max_size=n)
)


def _sympy_zw():
    sympy = pytest.importorskip("sympy")
    return sympy, sympy.Symbol("z"), sympy.Symbol("w")


def _rat(sympy, c):
    return sympy.Rational(c.numerator, c.denominator)


@settings(max_examples=40, deadline=None)
@given(_z_matrix)
def test_hypothesis_charpoly_matches_sympy(matrix):
    sympy, z, w = _sympy_zw()
    m = sympy.Matrix([
        [sum((_rat(sympy, c) * z ** k for k, c in enumerate(e)), sympy.Integer(0))
         for e in row]
        for row in matrix
    ])
    expected = sympy.Poly(m.charpoly(w).as_expr(), z, w)
    assert charpoly_w([[_qz(e) for e in row] for row in matrix]).terms == {
        k: Fraction(int(c.p), int(c.q)) for k, c in expected.terms()
    }


# G = w^d + sum_(j<d) g_j(z) w^j: w-degree 1-3, z-degree <= 3
_monic_in_w = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.one_of(_small_q, _large_q), max_size=4), min_size=d, max_size=d))


@settings(max_examples=40, deadline=None)
@given(_monic_in_w, st.integers(1, 4))
def test_hypothesis_squarefree_normalize_inverts_a_power(lower, power):
    pytest.importorskip("sympy")
    root = SpectralCurve({(0, len(lower)): 1} | {
        (i, j): c for j, g in enumerate(lower) for i, c in enumerate(g)})
    assume(sympy_squarefree_curve(root) == root)
    p = root ** power
    assert squarefree_normalize(p) == root == sympy_squarefree_curve(p)
