from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs.curves import SpectralCurve, charpoly_w, squarefree_normalize
from spectral_pairs.operators import DiffOp
from spectral_pairs.rings import PolyRing

XRING = PolyRing(("x",))


def _zero_row(entries):
    return [list(map(Fraction, e)) for e in entries]


def test_charpoly_of_diagonal_matrix():
    # diag(z, z, 1, 1): det(wI - A) = (w - z)^2 (w - 1)^2
    mat = [[[] for _ in range(4)] for _ in range(4)]
    mat[0][0] = [Fraction(0), Fraction(1)]
    mat[1][1] = [Fraction(0), Fraction(1)]
    mat[2][2] = [Fraction(1)]
    mat[3][3] = [Fraction(1)]
    det = charpoly_w(mat)
    w_minus_z = SpectralCurve({(0, 1): 1, (1, 0): -1})
    w_minus_1 = SpectralCurve({(0, 1): 1, (0, 0): -1})
    assert det == w_minus_z * w_minus_z * w_minus_1 * w_minus_1
    sqf = squarefree_normalize(det)
    assert sqf == w_minus_z * w_minus_1


def test_charpoly_of_nilpotent_block():
    # A = [[0, 1], [0, 0]] (2x2): det(wI - A) = w^2
    mat = [[[], [Fraction(1)]], [[], []]]
    assert charpoly_w(mat) == SpectralCurve({(0, 2): 1})


def test_squarefree_normalize_clears_denominators_and_content():
    # 4 w^2 - 4 z -> w^2 - z after normalization
    curve = SpectralCurve({(0, 2): 4, (1, 0): -4})
    assert squarefree_normalize(curve) == SpectralCurve({(0, 2): 1, (1, 0): -1})


def test_squarefree_normalize_divides_by_the_top_slice_leading_rational():
    # 2/3 z w + 2/3 w + 1/2: no denominator polynomial to clear, and the
    # coefficients stay rational after division by 2/3 (no integral content)
    curve = SpectralCurve({(1, 1): Fraction(2, 3), (0, 1): Fraction(2, 3),
                           (0, 0): Fraction(1, 2)})
    assert squarefree_normalize(curve) == SpectralCurve(
        {(1, 1): 1, (0, 1): 1, (0, 0): Fraction(3, 4)}
    )


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


def test_eval_at_operators_commuting_pair():
    # z -> d^2, w -> d^3 on the curve w^2 - z^3: exact operator zero
    curve = SpectralCurve({(0, 2): 1, (3, 0): -1})
    d2, d3 = DiffOp.d(XRING, 2), DiffOp.d(XRING, 3)
    assert curve.eval_at_operators(d2, d3).is_zero()
    # and a curve that does not annihilate the pair reports a nonzero witness
    wrong = SpectralCurve({(0, 2): 1, (2, 0): -1})
    assert wrong.eval_at_operators(d2, d3) == DiffOp.d(XRING, 6) - DiffOp.d(XRING, 4)


# -- differential tests against sympy --------------------------------------------------

_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_z_poly = st.lists(_small_q, max_size=3)
_z_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_z_poly, min_size=n, max_size=n), min_size=n, max_size=n)
)
# (z power, w power) -> nonzero coefficient
_zw_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    _small_q.filter(lambda c: c != 0),
    min_size=1,
    max_size=3,
)


def _sympy_zw():
    sympy = pytest.importorskip("sympy")
    return sympy, sympy.Symbol("z"), sympy.Symbol("w")


def _rat(sympy, c):
    return sympy.Rational(c.numerator, c.denominator)


def _curve_expr(curve):
    sympy, z, w = _sympy_zw()
    return sum(
        (_rat(sympy, c) * z ** i * w ** j for (i, j), c in curve.terms.items()),
        sympy.Integer(0),
    )


def _canonical(expr):
    """Integral in z, unit content over Q[z], top coefficient 1."""
    sympy, z, w = _sympy_zw()
    num, _ = sympy.fraction(sympy.together(expr))
    content = reduce(sympy.gcd, sympy.Poly(num, w).all_coeffs())
    return sympy.Poly(sympy.cancel(num / content), w, z, domain="QQ").monic()


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
    assert charpoly_w(matrix).terms == {
        k: Fraction(int(c.p), int(c.q)) for k, c in expected.terms()
    }


@settings(max_examples=40, deadline=None)
@given(_zw_terms, _zw_terms)
def test_hypothesis_squarefree_normalize_matches_sympy(a_terms, b_terms):
    sympy, z, w = _sympy_zw()
    a, b = SpectralCurve(a_terms), SpectralCurve(b_terms)
    curve = a * a * b
    expected = sympy.Poly(
        _curve_expr(curve), w, domain=sympy.QQ.frac_field(z)
    ).sqf_part()
    got = squarefree_normalize(curve)
    assert _canonical(_curve_expr(got)) == _canonical(expected.as_expr())
