import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from spectral_pairs.errors import (
    DegenerateSampleError,
    NotCoveredError,
    SpectralPairsError,
    UnsupportedDegreeError,
)
from spectral_pairs.families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    char_poly_z,
    multiplier_p,
)
from spectral_pairs.numeric import (
    MAX_RHS_EVALUATIONS,
    OVERFLOW_LIMIT,
    _multiplier_values,
    bessel_change_check,
    eigen_residual,
    fd_derivative,
    fd_weights,
    integrate_kernel,
    ls_derivative,
    ls_weights,
    numeric_roots,
    residual_profile,
)
from spectral_pairs.rings import CharPoly, PolyRing, rational_roots
from spectral_pairs.verify import sample_spec

from conftest import fd_derivative_oracle, ls_derivative_oracle, multiplier_values_oracle

EMPTY = PolyRing(())


# -- integration ---------------------------------------------------------------------


def test_zero_potential_integrates_to_linear():
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 0))
    grid = integrate_kernel(spec, shifted=False, init=(0.0, 1.0), n_points=201)
    assert np.max(np.abs(grid.phi - grid.x)) < 1e-12
    assert np.max(np.abs(grid.dphi - 1.0)) < 1e-12


def test_constant_potential_integrates_to_sine():
    spec = FamilySpec(CUBIC, 1, alphas=(1, 0, 0, 0))
    grid = integrate_kernel(
        spec, shifted=False, init=(0.0, 1.0), interval=(0.0, math.pi / 2),
        n_points=101,
    )
    assert abs(grid.phi[-1] - 1.0) < 1e-9
    assert np.max(np.abs(grid.phi - np.sin(grid.x))) < 1e-9


def _taylor_oracle(xs, n_terms=60):
    # phi'' = -x^3 phi, phi(0) = 1, phi'(0) = 0, solved exactly term by term
    c = [Fraction(0)] * n_terms
    c[0] = Fraction(1)
    for k in range(n_terms - 2):
        if k >= 3:
            c[k + 2] = -c[k - 3] / ((k + 2) * (k + 1))
    vals = []
    for x in xs:
        total = Fraction(0)
        xf = Fraction(x).limit_denominator(10 ** 12)
        for coeff in reversed(c):
            total = total * xf + coeff
        vals.append(float(total))
    return np.array(vals)


def test_cubic_potential_matches_taylor_series():
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 1))
    grid = integrate_kernel(spec, shifted=False, init=(1.0, 0.0), n_points=101)
    oracle = _taylor_oracle(np.round(grid.x, 12))
    assert np.max(np.abs(grid.phi - oracle)) < 1e-9


def test_blow_up_truncates_with_diagnostic():
    spec = FamilySpec(CUBIC, 2, alphas=(-10000, 0, 0, 1))
    grid = integrate_kernel(spec, shifted=False, interval=(0.0, 4.0), n_points=101)
    assert "diagnostic" in grid.meta
    assert grid.x[-1] < 4.0
    assert np.all(np.isfinite(grid.phi))


def test_integration_input_validation():
    spec = FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1))
    with pytest.raises(ValueError):
        integrate_kernel(spec, shifted=False, tol=0.0)
    with pytest.raises(SpectralPairsError):
        integrate_kernel(FamilySpec(CUBIC, 2), shifted=False)


# -- finite-difference stencils -------------------------------------------------------


def test_classic_central_weights():
    assert np.allclose(fd_weights(1, [-1, 0, 1]), [-0.5, 0.0, 0.5])
    assert np.allclose(fd_weights(2, [-1, 0, 1]), [1.0, -2.0, 1.0])
    assert np.allclose(fd_weights(4, [-2, -1, 0, 1, 2]), [1.0, -4.0, 6.0, -4.0, 1.0])


def test_fd_weights_need_enough_points():
    with pytest.raises(ValueError):
        fd_weights(3, [-1, 0, 1])


def test_fd_derivative_exact_on_polynomials():
    xs = np.linspace(0.0, 1.0, 21)
    h = xs[1] - xs[0]
    vals = (xs ** 6).astype(complex)
    d4 = fd_derivative(vals, h, 4)
    core = ~np.isnan(d4.real)
    assert np.max(np.abs(d4[core] - 360.0 * xs[core] ** 2)) < 1e-8
    assert np.all(np.isnan(d4[:5].real)) and np.all(np.isnan(d4[-5:].real))


@pytest.mark.parametrize("half_width,degree", [(6, 12), (20, 12), (100, 14)])
def test_ls_weights_reproduce_polynomial_derivatives(half_width, degree):
    h = 0.01
    w = ls_weights(4, half_width, degree, h)
    j = (np.arange(-half_width, half_width + 1) * h)
    for k in range(degree + 1):
        moment = float(np.sum(w * j ** k))
        expected = math.factorial(4) if k == 4 else 0.0
        scale = max(1.0, abs(np.sum(np.abs(w * j ** k))))
        assert abs(moment - expected) < 1e-6 * scale


def test_ls_weights_validation():
    with pytest.raises(ValueError):
        ls_weights(4, 10, 3, 0.01)  # degree below the derivative order
    with pytest.raises(ValueError):
        ls_weights(2, 2, 6, 0.01)  # window too narrow for the degree


def test_ls_derivative_exact_on_polynomials():
    xs = np.linspace(-1.0, 1.0, 401)
    h = xs[1] - xs[0]
    vals = (xs ** 8 - 3 * xs ** 5).astype(complex)
    d2 = ls_derivative(vals, h, 2, half_width=60, degree=12)
    core = ~np.isnan(d2.real)
    oracle = 56 * xs ** 6 - 60 * xs ** 3
    assert np.max(np.abs(d2[core] - oracle[core])) < 1e-6


def _random_complex(seed: int, n: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


def _assert_matches_oracle(got, want, w, values):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    core = ~np.isnan(want)
    # summation order is the only difference: bound it by the sum of |w * values|
    scale = np.correlate(np.abs(values), np.abs(w), "valid")
    assert np.all(np.abs(got[core] - want[core]) <= 1e-12 * scale)


@pytest.mark.parametrize("m, half_width", [(1, 2), (2, 3), (4, 5), (3, 8)])
def test_fd_derivative_matches_per_offset_loop(m, half_width):
    values, h = _random_complex(m * 100 + half_width, 301), 0.01
    w = fd_weights(m, np.arange(-half_width, half_width + 1)) / h ** m
    _assert_matches_oracle(fd_derivative(values, h, m, half_width=half_width),
                           fd_derivative_oracle(values, h, m, half_width), w, values)


@pytest.mark.parametrize("m, half_width, degree", [(1, 20, 12), (2, 60, 12), (4, 150, 14)])
def test_ls_derivative_matches_per_offset_loop(m, half_width, degree):
    values, h = _random_complex(m * 1000 + half_width, 401), 0.005
    w = ls_weights(m, half_width, degree, h)
    _assert_matches_oracle(ls_derivative(values, h, m, half_width, degree),
                           ls_derivative_oracle(values, h, m, half_width, degree), w, values)


def test_stencils_need_as_many_samples_as_points():
    values = _random_complex(7, 11)
    with pytest.raises(ValueError, match="fewer samples"):
        fd_derivative(values[:10], 0.1, 2, half_width=5)
    with pytest.raises(ValueError, match="fewer samples"):
        ls_derivative(values[:3], 0.1, 2, half_width=5, degree=6)
    # exactly one full stencil: one derivative value, in the middle
    d = fd_derivative(values, 0.1, 2, half_width=5)
    assert np.flatnonzero(~np.isnan(d)).tolist() == [5]


# -- the multiplier p(x) as floats ------------------------------------------------------


def _exact_value(poly, values: dict) -> Fraction:
    return sum(poly.subs(values).terms.values(), Fraction(0))


_MULTIPLIER_CASES = [(CUBIC, 2), (CUBIC, 4), (QUARTIC, 1), (QUARTIC, 2)]


@pytest.mark.parametrize("family, g", _MULTIPLIER_CASES)
def test_multiplier_values_match_exact_evaluation(family, g):
    rng = random.Random(31 * g + len(family))
    spec = sample_spec(family, g, rng)
    xs = [Fraction(k, 7) for k in range(-10, 11, 3)]
    for z in (Fraction(0), Fraction(-5, 3), Fraction(11, 4)):
        # a rational z gives p over Q[x] exactly, without the formal z of the code
        p = multiplier_p(spec, z)
        got = _multiplier_values(spec, float(z), np.array([float(x) for x in xs]))
        want = np.array([float(_exact_value(p, {"x": x})) for x in xs])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("g, eps", [(1, 0), (2, 1)])
def test_exponential_multiplier_values_match_exact_evaluation(g, eps):
    spec = FamilySpec(EXPONENTIAL, g, eps=eps, alphas=(0, 1))
    p = multiplier_p(spec, None)
    # p is a power of t = e^(x/2): exact at rational t, so sample x = 2 ln t
    ts = [Fraction(k, 5) for k in range(1, 16, 2)]
    got = _multiplier_values(spec, 0.5, np.array([2 * math.log(t) for t in ts]))
    want = np.array([float(_exact_value(p, {"t": t})) for t in ts])
    assert np.allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("family, g", _MULTIPLIER_CASES)
def test_multiplier_values_match_pointwise_oracle(family, g):
    spec = sample_spec(family, g, random.Random(5 * g))
    xs = np.linspace(-1.0, 2.0, 31)
    for z in numeric_roots(char_poly_z(spec)):
        want = multiplier_values_oracle(spec, z, xs)
        got = _multiplier_values(spec, z, xs)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


# -- eigenvalue roots -----------------------------------------------------------------


def test_numeric_roots_match_rational_roots():
    chi = CharPoly(EMPTY, [0, 4, EMPTY.one])  # z^2 + 4z
    got = numeric_roots(chi)
    want = rational_roots(chi)
    assert len(got) == len(want)
    for g_root, w_root in zip(got, sorted(want)):
        assert abs(g_root - complex(w_root)) < 1e-10


def test_numeric_roots_complex_pair():
    chi = CharPoly(EMPTY, [12, 0, EMPTY.one])  # z^2 + 12
    got = numeric_roots(chi)
    want = [-2j * math.sqrt(3), 2j * math.sqrt(3)]
    for g_root, w_root in zip(got, want):
        assert abs(g_root - w_root) < 1e-10


def test_numeric_roots_degree_cap():
    with pytest.raises(UnsupportedDegreeError):
        numeric_roots(CharPoly(EMPTY, [1, 0, 0, 0, EMPTY.one]))


def test_numeric_roots_of_family_chi():
    spec = FamilySpec(CUBIC, 2, alphas=(0, 1, 1, 1))
    chi = char_poly_z(spec)
    for root in numeric_roots(chi):
        coeffs = [float(c) for c in chi.rational_coeffs()]
        value = sum(c * root ** k for k, c in enumerate(coeffs))
        assert abs(value) < 1e-9


# -- discretized eigen-identity --------------------------------------------------------


@pytest.fixture(scope="module")
def x3_grid():
    spec = FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1))
    return spec, integrate_kernel(spec, shifted=False, init=(1.0, 0.3), n_points=1001)


def test_eigen_residual_small_for_true_identity(x3_grid):
    spec, grid = x3_grid
    assert eigen_residual(spec, 0.0, grid) < 1e-6


def test_eigen_residual_detects_wrong_eigenvalue(x3_grid):
    spec, grid = x3_grid
    assert eigen_residual(spec, 5.0, grid) > 1e-2


def test_residual_profile_shape(x3_grid):
    spec, grid = x3_grid
    psi, profile = residual_profile(spec, 0.0, grid)
    assert len(psi) == len(grid.x) and len(profile) == len(grid.x)
    assert np.isnan(profile[0]) and np.isnan(profile[-1])
    # pointwise minimum of the stencil profiles: small wherever defined
    assert np.nanmax(profile) < 1e-6


def test_degenerate_multiplier_detected():
    spec = FamilySpec(CUBIC, 2, alphas=(1, 1, 0, 0))
    grid = integrate_kernel(spec, shifted=False, n_points=1001)
    with pytest.raises(DegenerateSampleError):
        eigen_residual(spec, 0.0, grid)  # p(x) = 0 at this root


# -- the change of variables to Bessel form --------------------------------------------


def test_bessel_form_residual_default():
    assert bessel_change_check(0, 1) < 1e-5


def test_bessel_form_blow_up_is_not_covered():
    # a0 = -10^6 makes phi grow like e^(1000 x): it passes the overflow limit
    with pytest.raises(NotCoveredError, match=re.escape(f"exceeded {OVERFLOW_LIMIT:g}")):
        bessel_change_check(-1000000, 1)


def test_bessel_form_over_a_huge_interval_is_not_covered():
    with pytest.raises(NotCoveredError, match=f"MAX_RHS_EVALUATIONS = {MAX_RHS_EVALUATIONS}"):
        bessel_change_check(0, 1, y_interval=(1.0, 1e9))


def test_bessel_form_input_validation():
    with pytest.raises(ValueError):
        bessel_change_check(0, 0)
    with pytest.raises(ValueError):
        bessel_change_check(0, 1, y_interval=(-1.0, 5.0))
