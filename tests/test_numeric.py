import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from spectral_pairs import numeric
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
    RK45_RTOL_FLOOR,
    _apply_stencil,
    _multiplier_values,
    bessel_change_check,
    eigen_residual,
    integrate_kernel,
    ls_weight_table,
    numeric_roots,
    residual_profile,
)
from spectral_pairs.rings import CharPoly, PolyRing, rational_roots
from spectral_pairs.verify import sample_spec

from conftest import (
    apply_stencil_oracle,
    central_weights_oracle,
    ls_weights_oracle,
    multiplier_values_oracle,
)

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


def test_blow_up_is_not_covered():
    # V = x^3 - 10^4 makes phi grow like e^(100 x): it passes the overflow
    # limit well before x = 4, and no partial grid is returned
    spec = FamilySpec(CUBIC, 2, alphas=(-10000, 0, 0, 1))
    with pytest.raises(NotCoveredError, match=re.escape(f"exceeded {OVERFLOW_LIMIT:g}")):
        integrate_kernel(spec, shifted=False, interval=(0.0, 4.0), n_points=101)


def test_integration_input_validation():
    spec = FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1))
    with pytest.raises(ValueError):
        integrate_kernel(spec, shifted=False, tol=0.0)
    with pytest.raises(SpectralPairsError):
        integrate_kernel(FamilySpec(CUBIC, 2), shifted=False)


# -- finite-difference stencils -------------------------------------------------------


def test_classic_central_weights():
    assert np.allclose(ls_weight_table(1, 1, 2, 1.0)[:, 1], [-0.5, 0.0, 0.5])
    assert np.allclose(ls_weight_table(2, 1, 2, 1.0)[:, 2], [1.0, -2.0, 1.0])
    assert np.allclose(ls_weight_table(4, 2, 4, 1.0)[:, 4], [1.0, -4.0, 6.0, -4.0, 1.0])


def test_fd_weights_need_enough_points():
    # a third derivative needs four points: three allow degree 2 at most
    with pytest.raises(ValueError, match="too narrow"):
        ls_weight_table(3, 1, 3, 1.0)
    with pytest.raises(ValueError, match="at least the derivative order"):
        ls_weight_table(3, 1, 2, 1.0)


@pytest.mark.parametrize("half_width", [1, 2, 3, 4, 5])
def test_square_weight_table_is_exact_central_weights(half_width):
    # degree 2*half_width leaves one solution: the classic central stencil.
    # The solve's error grows with the width: at most 1.8e-13 relative up to
    # half_width 4, but 3.5e-12 at half_width 5 (m = 3)
    rel = 1e-12 if half_width <= 4 else 1e-11
    max_order = min(4, 2 * half_width)
    table = ls_weight_table(max_order, half_width, 2 * half_width, 1.0)
    for m in range(max_order + 1):
        want = np.array([float(w) for w in central_weights_oracle(m, half_width)])
        assert np.max(np.abs(table[:, m] - want)) <= rel * np.max(np.abs(want))


def test_fd_derivative_exact_on_polynomials():
    xs = np.linspace(0.0, 1.0, 21)
    h = xs[1] - xs[0]
    vals = (xs ** 6).astype(complex)
    d4 = _apply_stencil(vals, ls_weight_table(4, 5, 10, h)[:, 4])
    core = ~np.isnan(d4.real)
    assert np.max(np.abs(d4[core] - 360.0 * xs[core] ** 2)) < 1e-8
    assert np.all(np.isnan(d4[:5].real)) and np.all(np.isnan(d4[-5:].real))


@pytest.mark.parametrize("half_width,degree", [(6, 12), (20, 12), (100, 14)])
def test_ls_weights_reproduce_polynomial_derivatives(half_width, degree):
    h = 0.01
    w = ls_weight_table(4, half_width, degree, h)[:, 4]
    j = (np.arange(-half_width, half_width + 1) * h)
    for k in range(degree + 1):
        moment = float(np.sum(w * j ** k))
        expected = math.factorial(4) if k == 4 else 0.0
        scale = max(1.0, abs(np.sum(np.abs(w * j ** k))))
        assert abs(moment - expected) < 1e-6 * scale


def test_ls_weights_validation():
    with pytest.raises(ValueError):
        ls_weight_table(4, 10, 3, 0.01)  # degree below the derivative order
    with pytest.raises(ValueError):
        ls_weight_table(2, 2, 6, 0.01)  # window too narrow for the degree


@pytest.mark.parametrize("half_width,degree,h", [
    (450, 12, 1e-3), (480, 14, 1e-3), (550, 14, 1e-3), (60, 12, 0.01),
])
def test_ls_weight_table_matches_one_solve_per_order(half_width, degree, h):
    table = ls_weight_table(4, half_width, degree, h)
    assert table.shape == (2 * half_width + 1, 5)
    for m in range(5):
        want = ls_weights_oracle(m, half_width, degree, h)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(table[:, m] - want)) <= 1e-10 * scale


def test_ls_derivative_exact_on_polynomials():
    xs = np.linspace(-1.0, 1.0, 401)
    h = xs[1] - xs[0]
    vals = (xs ** 8 - 3 * xs ** 5).astype(complex)
    d2 = _apply_stencil(vals, ls_weight_table(2, 60, 12, h)[:, 2])
    core = ~np.isnan(d2.real)
    oracle = 56 * xs ** 6 - 60 * xs ** 3
    assert np.max(np.abs(d2[core] - oracle[core])) < 1e-6


def _random_complex(seed: int, n: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


def _assert_matches_oracle(values, w):
    got, want = _apply_stencil(values, w), apply_stencil_oracle(values, w)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    core = ~np.isnan(want)
    # summation order is the only difference: bound it by the sum of |w * values|
    scale = np.correlate(np.abs(values), np.abs(w), "valid")
    assert np.all(np.abs(got[core] - want[core]) <= 1e-12 * scale)


@pytest.mark.parametrize("m, half_width", [(1, 2), (2, 3), (4, 5), (3, 8)])
def test_fd_derivative_matches_per_offset_loop(m, half_width):
    values, h = _random_complex(m * 100 + half_width, 301), 0.01
    w = ls_weight_table(m, half_width, 2 * half_width, 1.0)[:, m] / h ** m
    _assert_matches_oracle(values, w)


@pytest.mark.parametrize("m, half_width, degree", [(1, 20, 12), (2, 60, 12), (4, 150, 14)])
def test_ls_derivative_matches_per_offset_loop(m, half_width, degree):
    values, h = _random_complex(m * 1000 + half_width, 401), 0.005
    _assert_matches_oracle(values, ls_weight_table(m, half_width, degree, h)[:, m])


def test_stencils_need_as_many_samples_as_points():
    values = _random_complex(7, 11)
    w = ls_weight_table(2, 5, 10, 0.1)[:, 2]
    with pytest.raises(ValueError, match="fewer samples"):
        _apply_stencil(values[:10], w)
    with pytest.raises(ValueError, match="fewer samples"):
        _apply_stencil(values[:3], ls_weight_table(2, 5, 6, 0.1)[:, 2])
    # exactly one full stencil: one derivative value, in the middle
    d = _apply_stencil(values, w)
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
    # one stencil's profile, small wherever that stencil fits
    assert np.nanmax(profile) < 1e-6


@pytest.mark.parametrize("check", [eigen_residual, residual_profile])
def test_residual_of_a_symbolic_spec_is_refused(check):
    """L4 of a symbolic spec has parameter terms; they are not read as 1."""
    spec = FamilySpec(EXPONENTIAL, 1, alphas=(0, 1))
    grid = integrate_kernel(spec, shifted=True, init=(1.0, 0.3), interval=(0.0, 2.0),
                            n_points=201)
    with pytest.raises(SpectralPairsError, match="^numeric integration needs rational "
                                                 "parameters$"):
        check(FamilySpec(EXPONENTIAL, 1), -0.25, grid)


_CRITERION_8 = [
    (FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)), False, 1001, [0.0]),
    (FamilySpec(CUBIC, 2, alphas=(0, 1, 0, 1)), False, 1001, None),
    (FamilySpec(EXPONENTIAL, 1, alphas=(0, 1)), True, 2001, [-0.25]),
]


@pytest.mark.parametrize("spec, shifted, n_points, roots", _CRITERION_8,
                         ids=["cubic-0001", "cubic-0101", "exponential-01"])
def test_residual_profile_maximum_is_eigen_residual(monkeypatch, spec, shifted, n_points,
                                                    roots):
    interval = (0.0, 2.0) if shifted else (0.0, 1.0)
    grid = integrate_kernel(spec, shifted, init=(1.0, 0.3), interval=interval,
                            n_points=n_points)
    for z in roots or numeric_roots(char_poly_z(spec)):
        _, profile = residual_profile(spec, z, grid)
        residual = eigen_residual(spec, z, grid)
        assert float(np.nanmax(profile)) == residual
        # the profile is the stencil whose maximum is smaller, whole: its
        # maximum is the smaller of the two stencils' own maxima
        per_stencil = []
        for stencil in numeric._RESIDUAL_STENCILS:
            with monkeypatch.context() as m:
                m.setattr(numeric, "_RESIDUAL_STENCILS", (stencil,))
                per_stencil.append(eigen_residual(spec, z, grid))
        assert residual == min(per_stencil)


@pytest.mark.parametrize("check", [eigen_residual, residual_profile])
def test_one_least_squares_solve_per_stencil(x3_grid, check, monkeypatch):
    spec, grid = x3_grid
    calls = {"lstsq": 0, "make_L4": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(numeric, "make_L4", counting("make_L4", numeric.make_L4))
    check(spec, 0.0, grid)
    # both stencils fit the 1001-point grid; every derivative order of a
    # stencil comes from its one solve
    assert calls == {"lstsq": len(numeric._RESIDUAL_STENCILS), "make_L4": 1}


def test_degenerate_multiplier_detected():
    spec = FamilySpec(CUBIC, 2, alphas=(1, 1, 0, 0))
    grid = integrate_kernel(spec, shifted=False, n_points=1001)
    with pytest.raises(DegenerateSampleError):
        eigen_residual(spec, 0.0, grid)  # p(x) = 0 at this root


# -- the change of variables to Bessel form --------------------------------------------


def test_bessel_form_residual_default():
    assert bessel_change_check(0, 1) < 1e-5


def test_bessel_form_blow_up_is_not_covered():
    # a0 = -10^6 makes phi grow like e^(1000 x): it passes the overflow limit,
    # reported at y = 2 sqrt(a1) e^(x/2), the variable of the y interval
    with pytest.raises(NotCoveredError, match=re.escape(f"exceeded {OVERFLOW_LIMIT:g} at y = ")):
        bessel_change_check(-1000000, 1)


def test_bessel_form_over_a_huge_interval_is_not_covered():
    with pytest.raises(NotCoveredError, match=f"MAX_RHS_EVALUATIONS = {MAX_RHS_EVALUATIONS}"):
        bessel_change_check(0, 1, y_interval=(1.0, 1e9))


def test_tolerance_below_the_rk45_floor_is_not_covered():
    # scipy's RK45 would raise rtol to 100 eps and only warn; the floor is
    # computed without numpy, and a tol at the floor still integrates
    assert RK45_RTOL_FLOOR == 100 * np.finfo(float).eps
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 1))
    for tol in (1e-300, RK45_RTOL_FLOOR / 2):
        with pytest.raises(NotCoveredError, match="relative tolerance floor"):
            integrate_kernel(spec, False, tol=tol, n_points=11)
        with pytest.raises(NotCoveredError, match="relative tolerance floor"):
            bessel_change_check(0, 1, tol=tol)
    assert len(integrate_kernel(spec, False, tol=RK45_RTOL_FLOOR, n_points=11).x) == 11


def test_bessel_form_input_validation():
    with pytest.raises(ValueError):
        bessel_change_check(0, 0)
    with pytest.raises(ValueError):
        bessel_change_check(0, 1, y_interval=(-1.0, 5.0))


@pytest.mark.parametrize("half_width", [2, 3])
def test_bessel_form_takes_both_stencils_from_one_square_unit_table(monkeypatch, half_width):
    calls = []

    def counting(max_order, hw, degree, h):
        calls.append((max_order, hw, degree, h))
        return ls_weight_table(max_order, hw, degree, h)

    monkeypatch.setattr(numeric, "ls_weight_table", counting)
    bessel_change_check(0, 1, half_width=half_width)
    assert calls == [(2, half_width, 2 * half_width, 1.0)]
