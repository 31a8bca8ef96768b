#!/usr/bin/env python3
"""Scan the finite-difference eigen-residual across grid resolutions.

Integrates the order-2 kernel once per resolution and reports the relative
residual max |L4 psi - z psi| / max |psi| at every eigenvalue of the
characteristic polynomial, for one family instance.
"""

from spectral_pairs.cli import (
    MAX_GRID_POINTS,
    ArgumentParser,
    _fraction,
    _int_at_least,
    _positive_float,
    _positive_int,
)
from spectral_pairs.errors import ConstraintError, DegenerateSampleError
from spectral_pairs.families import CUBIC, EXPONENTIAL, QUARTIC, FamilySpec, char_poly_z
from spectral_pairs.numeric import (
    DEFAULT_INTERVALS,
    RESIDUAL_MIN_POINTS,
    eigen_residual,
    integrate_kernel,
    numeric_roots,
)


def main() -> None:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=(CUBIC, QUARTIC, EXPONENTIAL), default=CUBIC)
    parser.add_argument("--g", type=_positive_int, default=2)
    parser.add_argument(
        "--alpha", type=_fraction, nargs="+", required=True,
        help='parameter values as exact rationals, e.g. "0 0 0 1" or "1/2 -3"',
    )
    parser.add_argument("--tol", type=_positive_float, default=1e-10)
    parser.add_argument(
        "--points", type=_int_at_least(RESIDUAL_MIN_POINTS, MAX_GRID_POINTS), nargs="+",
        default=(251, 501, 1001, 2001),
    )
    args = parser.parse_args()

    try:
        spec = FamilySpec(args.family, args.g, alphas=tuple(args.alpha))
    except ConstraintError as exc:
        parser.error(f"invalid parameters: {exc}")
    roots = numeric_roots(char_poly_z(spec))
    shifted = spec.family == EXPONENTIAL
    interval = DEFAULT_INTERVALS[spec.family]
    print(f"eigenvalues: {', '.join(f'{z:.6g}' for z in roots)}")
    for n in args.points:
        grid = integrate_kernel(
            spec, shifted, init=(1.0, 0.3), interval=interval,
            tol=args.tol, n_points=n,
        )
        try:
            residuals = [eigen_residual(spec, z, grid) for z in roots]
        except DegenerateSampleError as exc:
            parser.exit(2, f"degenerate parameters, nothing checked: {exc}\n")
        joined = ", ".join(f"{r:.3e}" for r in residuals)
        print(f"n = {n:5d}  h = {grid.h:.2e}  residuals: {joined}")


if __name__ == "__main__":
    main()
