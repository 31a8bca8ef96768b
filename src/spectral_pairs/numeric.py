"""Floating-point cross-validation, independent of the symbolic engine.

The kernel ODE phi'' = -V phi is integrated with an adaptive embedded
Runge-Kutta pair (5th order, 4th-order error estimate) and resampled on a
uniform grid by dense interpolation.  The eigen-identity residual and the
Bessel-form check share that one integration path, with its cap on
right-hand-side evaluations and its stop at blow-up.  The fourth-order
operator is then applied by central finite differences only; reusing the
symbolic reduction here would prove nothing, so the discretization is the
whole point.

Finite-difference weights come from Fornberg's recurrence.  Differencing
interpolated data amplifies the interpolation error like 1/h^m, so the
residual check uses wide least-squares stencils: minimum-norm weights exact on
polynomials through a fixed degree (>= 12, hence at least 8th-order accurate)
spread over hundreds of grid points, which averages the dense-output noise
down while the polynomial-exactness constraints keep the truncation bias
small.  Narrow Fornberg stencils remain available for convergence studies
where truncation should dominate.  Both kinds of weights are applied by the
same sliding correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import (
    DegenerateSampleError,
    NotCoveredError,
    SpectralPairsError,
    UnsupportedDegreeError,
)
from .families import (
    EXPONENTIAL,
    FamilySpec,
    coefficient_ring,
    make_L4,
    make_schrodinger,
    multiplier_p,
)
from .rings import CharPoly, PolyRing, QuotientRing

OVERFLOW_LIMIT = 1e150
# right-hand-side evaluations one kernel integration may spend; the default
# intervals take a few hundred, and without a cap a long interval with no
# blow-up (V = x^3 on [0, 1e9]) runs without bound
MAX_RHS_EVALUATIONS = 100_000
DEFAULT_INTERVALS = {"cubic": (0.0, 1.0), "quartic": (0.0, 1.0), EXPONENTIAL: (0.0, 2.0)}


@dataclass
class GridFunction:
    """phi and phi' sampled on a uniform grid, with provenance metadata."""

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])


def fd_weights(m: int, offsets) -> np.ndarray:
    """Fornberg weights for the m-th derivative at 0 on integer offsets."""
    x = np.asarray(offsets, dtype=float)
    n = len(x)
    if m >= n:
        raise ValueError("need more stencil points than the derivative order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _apply_stencil(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Centred stencil ``w`` slid along ``values``; NaN where it does not fit."""
    if len(values) < len(w):
        raise ValueError("fewer samples than stencil points")
    half = len(w) // 2
    out = np.full(len(values), np.nan, dtype=complex)
    out[half:len(values) - half] = np.correlate(values, w, "valid")
    return out


def fd_derivative(values: np.ndarray, h: float, m: int,
                  half_width: int = 5) -> np.ndarray:
    """m-th derivative on interior points via a central Fornberg stencil.

    The stencil spans ``2*half_width + 1`` consecutive samples; half_width = 5
    gives 8th-order accuracy up to m = 4.  Entries without a full stencil are
    NaN.
    """
    offsets = np.arange(-half_width, half_width + 1)
    return _apply_stencil(values, fd_weights(m, offsets) / h ** m)


def ls_weights(m: int, half_width: int, degree: int, h: float) -> np.ndarray:
    """Minimum-norm weights for the m-th derivative, exact through ``degree``.

    The weights live on offsets -half_width..half_width at spacing ``h`` and
    reproduce the m-th derivative of every polynomial of degree <= ``degree``
    exactly; among all such stencils the Euclidean-smallest one is returned,
    which minimizes the amplification of uncorrelated sample noise.
    """
    if degree < m:
        raise ValueError("degree must be at least the derivative order")
    if 2 * half_width < degree:
        raise ValueError("stencil too narrow for the requested degree")
    j = np.arange(-half_width, half_width + 1)
    vander = np.vander(j * h, degree + 1, increasing=True).T
    rhs = np.zeros(degree + 1)
    rhs[m] = float(factorial(m))
    w, *_ = np.linalg.lstsq(vander, rhs, rcond=None)
    return w


def ls_derivative(values: np.ndarray, h: float, m: int, half_width: int,
                  degree: int) -> np.ndarray:
    """m-th derivative on interior points via the least-squares stencil.

    Entries without a full window are NaN, as in :func:`fd_derivative`.
    """
    return _apply_stencil(values, ls_weights(m, half_width, degree, h))


def _potential_callable(spec: FamilySpec, shifted: bool):
    """V(x) as a float callable, from the exact operator construction."""
    l2 = make_schrodinger(spec, shifted=shifted)
    return _coeff_callable(l2.coeffs[0])


def _coeff_callable(coeff):
    """Sum of c x^i e^(kx/2) over the terms c x^i t^k of ``coeff``."""
    terms = []
    for e, c in coeff.terms.items():
        powers = dict(zip(coeff.ring.variables, e))
        terms.append((float(c), powers.get("x", 0), powers.get("t", 0)))

    def f(x):
        x = np.asarray(x, dtype=float)
        total = 0
        for c, i, k in terms:
            term = c
            if i or not k:  # x ** 0 gives a constant term the shape of x
                term = term * x ** i
            if k:
                term = term * np.exp(0.5 * k * x)
            total = total + term
        return total

    return f


def _integrate(v, interval, init, tol: float):
    """Dense RK45 solution of phi'' = -v(x) phi, and where it ends.

    The solution stops early, at the returned end, where |phi| or |phi'|
    passes :data:`OVERFLOW_LIMIT`.  An integration that needs more than
    :data:`MAX_RHS_EVALUATIONS` right-hand-side evaluations raises
    :class:`NotCoveredError`.
    """
    a, b = interval
    evaluations = 0

    def rhs(x, y):
        nonlocal evaluations
        evaluations += 1
        if evaluations > MAX_RHS_EVALUATIONS:
            raise NotCoveredError(
                f"integrating over x in [{a:g}, {b:g}] needs more than "
                f"MAX_RHS_EVALUATIONS = {MAX_RHS_EVALUATIONS} right-hand-side "
                "evaluations; choose a shorter interval"
            )
        return [y[1], -v(x) * y[0]]

    def blow_up(x, y):
        return max(abs(y[0]), abs(y[1])) - OVERFLOW_LIMIT

    blow_up.terminal = True
    # imported here: scipy is most of the package's import time, and only
    # the numeric commands use it
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (a, b),
        [float(init[0]), float(init[1])],
        method="RK45",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=blow_up,
    )
    end = float(sol.t_events[0][0]) if sol.t_events[0].size else b
    return sol.sol, end


def integrate_kernel(
    spec: FamilySpec,
    shifted: bool,
    init=(1.0, 0.0),
    interval=None,
    tol: float = 1e-10,
    n_points: int = 1001,
) -> GridFunction:
    """Integrate phi'' = -V(x) phi and resample on a uniform grid.

    Blow-up past the overflow limit truncates the interval; the partial grid
    is returned with a diagnostic in ``meta``.  An integration that needs
    more than :data:`MAX_RHS_EVALUATIONS` right-hand-side evaluations raises
    :class:`NotCoveredError`.
    """
    if spec.symbolic:
        raise SpectralPairsError("numeric integration needs rational parameters")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = interval if interval is not None else DEFAULT_INTERVALS[spec.family]
    sol, end = _integrate(_potential_callable(spec, shifted), (a, b), init, tol)
    meta = {
        "family": spec.family,
        "g": spec.g,
        "params": spec.params_dict(),
        "tol": tol,
    }
    if end != b:
        meta["diagnostic"] = f"solution exceeded {OVERFLOW_LIMIT:g} at x={end:g}"
    xs = np.linspace(a, end, n_points)
    ys = sol(xs)
    return GridFunction(x=xs, phi=ys[0], dphi=ys[1], meta=meta)


# (window cap in grid points, polynomial exactness degree); the residual is
# taken as the best of a narrower low-degree and a wider high-degree stencil,
# both at least 8th-order accurate
_RESIDUAL_STENCILS = ((450, 12), (550, 14))
# grid size at which the narrowest stencil first fits (see _stencil_profiles)
RESIDUAL_MIN_POINTS = 41 + min(degree for _, degree in _RESIDUAL_STENCILS)


def _defect_profile(spec: FamilySpec, z_root, psi, grid, half_width, degree):
    """|L4 psi - z psi| pointwise, NaN where the stencil does not fit."""
    l4 = make_L4(spec)
    n = len(grid.x)
    core = slice(half_width, n - half_width)
    acc = np.zeros(core.stop - core.start, dtype=complex)
    for m, coeff in enumerate(l4.coeffs):
        fn = _coeff_callable(coeff)
        if m == 0:
            acc += fn(grid.x[core]) * psi[core]
        else:
            d = ls_derivative(psi, grid.h, m, half_width, degree)
            acc += fn(grid.x[core]) * d[core]
    acc -= z_root * psi[core]
    out = np.full(n, np.nan)
    out[core] = np.abs(acc)
    return out


def _stencil_profiles(spec: FamilySpec, z_root, grid: GridFunction):
    psi = _multiplier_values(spec, z_root, grid.x) * grid.phi
    scale = np.max(np.abs(psi))
    if scale < 1e-280:
        raise DegenerateSampleError("psi is numerically zero on this grid")
    n = len(grid.x)
    profiles = []
    for cap, degree in _RESIDUAL_STENCILS:
        half_width = min(cap, (n - 41) // 2)
        if 2 * half_width < degree:
            continue
        profiles.append(
            _defect_profile(spec, z_root, psi, grid, half_width, degree) / scale
        )
    if not profiles:
        raise ValueError("grid too small for the residual stencils")
    return psi, profiles


def eigen_residual(spec: FamilySpec, z_root: complex, grid: GridFunction) -> float:
    """max |L4 psi - z psi| / max |psi| with psi = p(x) phi, by differences.

    Each term of L4 is applied with a wide least-squares stencil (module
    docstring); two bias/noise trade-offs are evaluated and the smaller
    residual is reported, since either one upper-bounds the defect of the
    exact identity up to its own discretization error.
    """
    _, profiles = _stencil_profiles(spec, z_root, grid)
    return min(float(np.nanmax(p)) for p in profiles)


def residual_profile(spec: FamilySpec, z_root: complex, grid: GridFunction):
    """(psi, pointwise relative residual) on the grid, NaN at the margins."""
    psi, profiles = _stencil_profiles(spec, z_root, grid)
    stacked = np.stack(profiles)
    merged = np.full(len(grid.x), np.nan)
    valid = ~np.all(np.isnan(stacked), axis=0)
    merged[valid] = np.nanmin(stacked[:, valid], axis=0)
    return psi, merged


def _multiplier_values(spec: FamilySpec, z: complex, x: np.ndarray) -> np.ndarray:
    """p(x) at a numeric eigenvalue z (complex allowed)."""
    if spec.family == EXPONENTIAL:
        # p = e^(kx/2), free of z
        return _coeff_callable(multiplier_p(spec, None))(x)
    # evaluate the exact multiplier with z adjoined formally, then substitute;
    # z^3 = 0 never triggers since no multiplier exceeds degree 2 in z
    dummy = CharPoly(PolyRing(()), [0, 0, 0, Fraction(1)])
    p = multiplier_p(spec, QuotientRing(coefficient_ring(spec), dummy).gen)
    total = np.zeros(len(x), dtype=complex)
    for zi, coord in enumerate(p.coords):
        total += _coeff_callable(coord)(x) * z ** zi
    return total


# the default 5-point stencil of bessel_change_check needs this many points,
# and then leaves the middle one inside the evaluation window
BESSEL_MIN_POINTS = 5


def bessel_change_check(
    a0, a1, y_interval=(1.0, 5.0), tol: float = 1e-10, n_points: int = 101,
    half_width: int = 2,
) -> float:
    """Residual of the Bessel-form operator after x = ln(y^2 / (4 a1)).

    Integrates (d_x^2 + a1 e^x + a0) phi = 0, transplants phi to the y grid,
    and applies y^2 d_y^2 + y d_y + (y^2 + 4 a0) by central differences in y
    (2*half_width + 1 points; the default is 4th-order accurate).  With the
    default grid the stencil truncation dominates, so halving h shows the
    expected convergence order until the integrator's tolerance floor.
    """
    a0, a1 = Fraction(a0), Fraction(a1)
    if a1 <= 0:
        raise ValueError("a1 must be positive for the substitution")
    y0, y1 = y_interval
    if y0 <= 0:
        raise ValueError("y interval must stay away from 0")
    spec = FamilySpec(EXPONENTIAL, 1, alphas=(a0, a1))
    x0 = float(np.log(y0 ** 2 / (4 * float(a1))))
    x1 = float(np.log(y1 ** 2 / (4 * float(a1))))
    sol, end = _integrate(_potential_callable(spec, shifted=False), (x0, x1),
                          (1.0, 0.4), tol)
    if end != x1:
        raise NotCoveredError(
            f"the solution exceeded {OVERFLOW_LIMIT:g} at x={end:g}, "
            f"y={2 * np.sqrt(float(a1)) * np.exp(end / 2):g}; choose a shorter "
            "y interval"
        )
    ys = np.linspace(y0, y1, n_points)
    hy = ys[1] - ys[0]
    xs = np.log(ys ** 2 / (4 * float(a1)))
    phi = sol(xs)[0]
    d1 = fd_derivative(phi.astype(complex), hy, 1, half_width=half_width)
    d2 = fd_derivative(phi.astype(complex), hy, 2, half_width=half_width)
    # fixed interior window: the evaluation set must not depend on n_points,
    # or refinement ratios are polluted by newly exposed near-boundary points
    inset = 0.1 * (y1 - y0)
    core = ~np.isnan(d1.real) & (ys >= y0 + inset) & (ys <= y1 - inset)
    res = (
        ys[core] ** 2 * d2[core]
        + ys[core] * d1[core]
        + (ys[core] ** 2 + 4 * float(a0)) * phi[core]
    )
    return float(np.max(np.abs(res)) / np.max(np.abs(phi)))


def numeric_roots(chi: CharPoly) -> list:
    """All complex roots of a rational chi (degree <= 3), Newton-polished."""
    if chi.degree > 3:
        raise UnsupportedDegreeError(f"degree {chi.degree} > 3")
    coeffs = [float(c) for c in chi.rational_coeffs()]
    scale = max(abs(c) for c in coeffs)
    roots = np.roots(list(reversed(coeffs)))

    def val_and_der(zv):
        p, dp = 0j, 0j
        for c in reversed(coeffs):
            dp = dp * zv + p
            p = p * zv + c
        return p, dp

    polished = []
    for r in roots:
        zv = complex(r)
        for _ in range(50):
            p, dp = val_and_der(zv)
            if abs(p) < 1e-12 * scale or dp == 0:
                break
            zv -= p / dp
        polished.append(zv)
    return sorted(polished, key=lambda w: (w.real, w.imag))
