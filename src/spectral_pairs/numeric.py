"""Floating-point cross-validation, independent of the symbolic engine.

The kernel ODE phi'' = -V phi is integrated with an adaptive embedded
Runge-Kutta pair (5th order, 4th-order error estimate) and resampled on a
uniform grid by dense interpolation.  The eigen-identity residual and the
Bessel-form check share that one integration path, with its cap on
right-hand-side evaluations and its refusal of a solution that blows up.
The fourth-order operator is then applied by central finite differences
only; reusing the symbolic reduction here would prove nothing, so the
discretization is the whole point.  The multiplier p(x) at a float z sums
the z-coefficient list that :func:`rings.multipoly.horner` evaluates exactly.

Finite-difference weights have one generator, :func:`ls_weight_table`: the
minimum-norm weights on a centred stencil that reproduce the derivatives of
every polynomial through a fixed degree, all orders from one least-squares
solve, exact while that solve keeps full rank.  At degree 2*half_width the
stencil is the classic central one, which the Bessel check uses where
truncation should dominate.  Differencing interpolated data amplifies the
interpolation error like 1/h^m, so the residual check uses wide stencils:
degree >= 12 (hence at least 8th-order accurate) over hundreds of grid
points, which averages the dense-output noise down while the exactness
constraints keep the truncation bias small.  :func:`_apply_stencil` applies
every stencil by one sliding correlation.

numpy and scipy are imported inside the functions that use them, never at
module level: importing the package, and every exact command, loads
neither, and only numeric code (``residual``, ``bessel-check``, the suite's
numeric criteria) pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, isfinite, sqrt
from sys import float_info
from typing import TYPE_CHECKING

from .errors import (
    DegenerateSampleError,
    NotCoveredError,
    SpectralPairsError,
    UnsupportedDegreeError,
)
from .families import (
    EXPONENTIAL,
    FamilySpec,
    _multiplier_z_coeffs,
    make_L4,
    make_schrodinger,
    multiplier_p,
)
from .rings import CharPoly

if TYPE_CHECKING:
    import numpy as np

OVERFLOW_LIMIT = 1e150
# right-hand-side evaluations one kernel integration may spend; the default
# intervals take a few hundred, and without a cap a long interval with no
# blow-up (V = x^3 on [0, 1e9]) runs without bound
MAX_RHS_EVALUATIONS = 100_000
# scipy's RK45 raises a smaller rtol to this floor, warning only on stderr
RK45_RTOL_FLOOR = 100 * float_info.epsilon
DEFAULT_INTERVALS = {"cubic": (0.0, 1.0), "quartic": (0.0, 1.0), EXPONENTIAL: (0.0, 2.0)}
_SYMBOLIC = "numeric integration needs rational parameters"


@dataclass
class GridFunction:
    """phi and phi' sampled on a uniform grid."""

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])


def _apply_stencil(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Centred stencil ``w`` slid along ``values``; NaN where it does not fit."""
    import numpy as np
    if len(values) < len(w):
        raise ValueError("fewer samples than stencil points")
    half = len(w) // 2
    out = np.full(len(values), np.nan, dtype=complex)
    out[half:len(values) - half] = np.correlate(values, w, "valid")
    return out


def ls_weight_table(max_order: int, half_width: int, degree: int,
                    h: float) -> np.ndarray:
    """Least-squares stencil weights for derivative orders 0..``max_order``.

    Column m holds the weights on offsets -half_width..half_width at spacing
    ``h`` that reproduce the m-th derivative at 0 of every polynomial of
    degree <= ``degree`` exactly; among all such stencils it is the
    Euclidean-smallest one, which minimizes the amplification of
    uncorrelated sample noise.  All orders share one Vandermonde matrix, so
    the table is one least-squares solve with a right-hand side per order.
    At degree 2*half_width the one solution is the classic central stencil.
    Exactness holds only at full rank: lstsq's rcond cut-off drops small
    singular values of wide stencils on fine spacings (the residual's
    (450, 12) stencil on [0, 1] has rank 13 of 13 at 1001 points, 5 at 100001).
    """
    import numpy as np
    if degree < max_order:
        raise ValueError("degree must be at least the derivative order")
    if 2 * half_width < degree:
        raise ValueError("stencil too narrow for the requested degree")
    j = np.arange(-half_width, half_width + 1)
    vander = np.vander(j * h, degree + 1, increasing=True).T
    rhs = np.zeros((degree + 1, max_order + 1))
    for m in range(max_order + 1):
        rhs[m, m] = float(factorial(m))
    table, *_ = np.linalg.lstsq(vander, rhs, rcond=None)
    return table


def _potential_callable(spec: FamilySpec, shifted: bool):
    """V(x) as a float callable, from the exact operator construction."""
    l2 = make_schrodinger(spec, shifted=shifted)
    return _coeff_callable(l2.coeffs[0], "V")


def _float(value: Fraction, what: str) -> float:
    """``value`` as a float, or NotCoveredError naming it if beyond float range."""
    try:
        return float(value)
    except OverflowError:
        bits = abs(value.numerator).bit_length() - value.denominator.bit_length()
        raise NotCoveredError(
            f"{what} is about {'-' if value < 0 else ''}10^{round(bits * 0.30103)}, "
            "beyond float range"
        ) from None


def _coeff_callable(coeff, what: str):
    """Sum of c x^i e^(kx/2) over the terms c x^i t^k of ``coeff``.

    The coefficients become floats here, once; one beyond float range
    raises :class:`NotCoveredError` naming ``what``, and a term in any other
    variable (a symbolic parameter) raises :class:`SpectralPairsError`.
    """
    import numpy as np
    terms = []
    for e, c in coeff.terms.items():
        powers = dict(zip(coeff.ring.variables, e))
        if any(k for v, k in powers.items() if v not in ("x", "t")):
            raise SpectralPairsError(_SYMBOLIC)
        terms.append((_float(c, f"a coefficient of {what}"),
                      powers.get("x", 0), powers.get("t", 0)))

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


def _integrate(v, interval, init, tol: float,
               user_variable=("x", lambda x: x, "choose a shorter interval")):
    """Dense RK45 solution of phi'' = -v(x) phi over the whole interval.

    A ``tol`` below :data:`RK45_RTOL_FLOOR`, a solution whose |phi| or
    |phi'| passes :data:`OVERFLOW_LIMIT`, an integration that needs more
    than :data:`MAX_RHS_EVALUATIONS` right-hand-side evaluations, and one
    that meets an x where V(x) overflows a float all raise
    :class:`NotCoveredError`.  ``user_variable`` is (name, f, advice): the
    blow-up and evaluation-cap messages give points as name = f(x) and end
    with the advice, so a caller that integrates in a substituted variable
    names the points, the interval and the option its user chose.
    """
    if tol < RK45_RTOL_FLOOR:
        raise NotCoveredError(f"tol = {tol:g} is below RK45's relative tolerance floor "
                              f"100 eps = {RK45_RTOL_FLOOR:.6g}; choose --tol >= that floor")
    import numpy as np
    a, b = interval
    name, to_user, advice = user_variable
    evaluations = 0

    def rhs(x, y):
        nonlocal evaluations
        evaluations += 1
        if evaluations > MAX_RHS_EVALUATIONS:
            raise NotCoveredError(
                f"integrating over {name} in [{to_user(a):g}, {to_user(b):g}] needs more "
                f"than MAX_RHS_EVALUATIONS = {MAX_RHS_EVALUATIONS} right-hand-side "
                f"evaluations; {advice}"
            )
        vx = v(x)
        if not isfinite(vx):
            raise NotCoveredError(
                f"V(x) overflows a float at x = {x:g}; choose an interval "
                "where it stays finite"
            )
        return [y[1], -vx * y[0]]

    def blow_up(x, y):
        return max(abs(y[0]), abs(y[1])) - OVERFLOW_LIMIT

    blow_up.terminal = True
    from scipy.integrate import solve_ivp

    # an overflowing V is reported by rhs, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
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
    if sol.t_events[0].size:
        raise NotCoveredError(
            f"the solution exceeded {OVERFLOW_LIMIT:g} at "
            f"{name} = {to_user(sol.t_events[0][0]):g}; {advice}"
        )
    return sol.sol


def integrate_kernel(
    spec: FamilySpec,
    shifted: bool,
    init=(1.0, 0.0),
    interval=None,
    tol: float = 1e-10,
    n_points: int = 1001,
) -> GridFunction:
    """Integrate phi'' = -V(x) phi and resample on a uniform grid.

    ``interval`` defaults to the family's entry in :data:`DEFAULT_INTERVALS`.
    The grid always spans the whole interval: a solution that passes the
    overflow limit, an integration that needs more than
    :data:`MAX_RHS_EVALUATIONS` right-hand-side evaluations, one where V(x)
    overflows a float and a ``tol`` below :data:`RK45_RTOL_FLOOR` raise
    :class:`NotCoveredError` (:func:`_integrate`).
    """
    import numpy as np
    if spec.symbolic:
        raise SpectralPairsError(_SYMBOLIC)
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = interval if interval is not None else DEFAULT_INTERVALS[spec.family]
    sol = _integrate(_potential_callable(spec, shifted), (a, b), init, tol)
    xs = np.linspace(a, b, n_points)
    phi, dphi = sol(xs)
    return GridFunction(x=xs, phi=phi, dphi=dphi)


# (window cap in grid points, polynomial exactness degree); the residual is
# taken from the better of a narrower low-degree and a wider high-degree
# stencil, both at least 8th-order accurate
_RESIDUAL_STENCILS = ((450, 12), (550, 14))
# grid size at which the narrowest stencil first fits (see residual_profile)
RESIDUAL_MIN_POINTS = 41 + min(degree for _, degree in _RESIDUAL_STENCILS)


def _defect_profile(l4_values, z_root, psi, h, half_width, degree):
    """|L4 psi - z psi| pointwise, NaN where the stencil does not fit.

    ``l4_values[m]`` is L4's coefficient of D^m on the grid, or None where it
    is zero.
    """
    import numpy as np
    weights = ls_weight_table(len(l4_values) - 1, half_width, degree, h)
    n = len(psi)
    core = slice(half_width, n - half_width)
    acc = np.zeros(core.stop - core.start, dtype=complex)
    for m, values in enumerate(l4_values):
        if values is None:
            continue
        d = psi if m == 0 else _apply_stencil(psi, weights[:, m])
        acc += values[core] * d[core]
    acc -= z_root * psi[core]
    out = np.full(n, np.nan)
    out[core] = np.abs(acc)
    return out


def residual_profile(spec: FamilySpec, z_root: complex, grid: GridFunction):
    """(psi, |L4 psi - z psi| / max |psi|) on the grid, with psi = p(x) phi.

    Each term of L4 is applied with a wide least-squares stencil (module
    docstring).  Two bias/noise trade-offs are evaluated, and the profile of
    the one with the smaller maximum is returned whole, NaN at the margins
    where its stencil does not fit: either upper-bounds the defect of the
    exact identity up to its own discretization error.
    """
    import numpy as np
    psi = _multiplier_values(spec, z_root, grid.x) * grid.phi
    scale = np.max(np.abs(psi))
    if scale < 1e-280:
        raise DegenerateSampleError("psi is numerically zero on this grid")
    n = len(grid.x)
    stencils = []
    for cap, degree in _RESIDUAL_STENCILS:
        half_width = min(cap, (n - 41) // 2)
        if 2 * half_width >= degree:
            stencils.append((half_width, degree))
    if not stencils:
        raise ValueError("grid too small for the residual stencils")
    l4_values = [
        None if coeff.is_zero() else _coeff_callable(coeff, "L4")(grid.x)
        for coeff in make_L4(spec).coeffs
    ]
    profiles = [
        _defect_profile(l4_values, z_root, psi, grid.h, half_width, degree) / scale
        for half_width, degree in stencils
    ]
    return psi, min(profiles, key=np.nanmax)


def eigen_residual(spec: FamilySpec, z_root: complex, grid: GridFunction) -> float:
    """max |L4 psi - z psi| / max |psi|: the maximum of :func:`residual_profile`."""
    import numpy as np
    return float(np.nanmax(residual_profile(spec, z_root, grid)[1]))


def _multiplier_values(spec: FamilySpec, z: complex, x: np.ndarray) -> np.ndarray:
    """p(x) at a numeric eigenvalue z (complex allowed): sum_i p_i(x) z^i
    over the exact z-coefficients p_i of :func:`families._multiplier_z_coeffs`."""
    import numpy as np
    if spec.family == EXPONENTIAL:
        # p = e^(kx/2), free of z
        return _coeff_callable(multiplier_p(spec, None), "p")(x)
    total = np.zeros(len(x), dtype=complex)
    for zi, coeff in enumerate(_multiplier_z_coeffs(spec)):
        total += _coeff_callable(coeff, "p")(x) * z ** zi
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
    (:func:`ls_weight_table` at degree 2*half_width on 2*half_width + 1
    points; the default is 4th-order accurate).  With the default grid the
    stencil truncation dominates, so halving h shows the expected
    convergence order until the integrator's tolerance floor.  A solution
    that blows up, and a y interval over the evaluation cap, raise
    :class:`NotCoveredError` naming y and ``--y-interval``.
    """
    import numpy as np
    a0, a1 = Fraction(a0), Fraction(a1)
    if a1 <= 0:
        raise ValueError("a1 must be positive for the substitution")
    y0, y1 = y_interval
    if y0 <= 0:
        raise ValueError("y interval must stay away from 0")
    spec = FamilySpec(EXPONENTIAL, 1, alphas=(a0, a1))
    a0_f, a1_f = _float(a0, "a0"), _float(a1, "a1")
    if a1_f == 0:
        raise NotCoveredError("a1 is positive but rounds to 0 as a float")
    # an a1 near either end of float range sends y^2 / (4 a1) to 0 or inf
    with np.errstate(divide="ignore"):
        x0, x1 = (float(np.log(y ** 2 / (4 * a1_f))) for y in (y0, y1))
    if not (isfinite(x0) and isfinite(x1)):
        raise NotCoveredError(f"a1 = {a1_f:.3g} sends x = ln(y^2 / (4 a1)) to "
                              f"[{x0:g}, {x1:g}], beyond float range")
    sol = _integrate(
        _potential_callable(spec, shifted=False), (x0, x1), (1.0, 0.4), tol,
        user_variable=("y", lambda x: 2 * sqrt(a1_f) * exp(x / 2),
                       "choose a shorter y interval (--y-interval)"),
    )
    ys = np.linspace(y0, y1, n_points)
    hy = ys[1] - ys[0]
    xs = np.log(ys ** 2 / (4 * a1_f))
    phi = sol(xs)[0]
    # unit offsets, scaled by hy^-m: on offsets j*hy lstsq's rcond cuts rank
    weights = ls_weight_table(2, half_width, 2 * half_width, 1.0)
    d1 = _apply_stencil(phi.astype(complex), weights[:, 1] / hy)
    d2 = _apply_stencil(phi.astype(complex), weights[:, 2] / hy ** 2)
    # fixed interior window: the evaluation set must not depend on n_points,
    # or refinement ratios are polluted by newly exposed near-boundary points
    inset = 0.1 * (y1 - y0)
    core = ~np.isnan(d1.real) & (ys >= y0 + inset) & (ys <= y1 - inset)
    res = (
        ys[core] ** 2 * d2[core]
        + ys[core] * d1[core]
        + (ys[core] ** 2 + 4 * a0_f) * phi[core]
    )
    return float(np.max(np.abs(res)) / np.max(np.abs(phi)))


def numeric_roots(chi: CharPoly) -> list:
    """All complex roots of a rational chi (degree <= 3), Newton-polished."""
    import numpy as np
    if chi.degree > 3:
        raise UnsupportedDegreeError(f"degree {chi.degree} > 3")
    coeffs = [_float(c, "a coefficient of chi(z)") for c in chi.rational_coeffs()]
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
