"""Command-line entry point.

Exit codes: 0 every requested check passed, 1 a verification failed or no
commuting partner of the requested order exists, 2 usage or coverage errors
(parameters outside a family, counts, grid sizes, tolerances and intervals
out of range, a grid above MAX_GRID_POINTS, a partner order above
MAX_PARTNER_ORDER, an exact command's --alpha with more than
MAX_PARAMETER_DIGITS digits in a numerator or denominator, --samples above
MAX_SAMPLES or other than 1 with --alpha, parameters beyond float range in
a numeric command, a numeric solution that passes the overflow limit, a
spectral curve that is not of rank two, parameters so degenerate that no
check could run, an --out path that cannot be written, and any other
ValueError, such as a result with more digits than Python's int-to-str
limit), 3 an internal error (a failed exact self-check of the package,
such as right division's reconstruction, reached no verdict).  The numeric
commands decide against the fixed gates RESIDUAL_BOUND and BESSEL_BOUND, as
the suite does.  Exact rationals cross
the boundary as "num/den" strings, and negative ones such as -2/3 are read
as values, not options; JSON reports are deterministic for a fixed seed
(elapsed_ms aside).
"""

from __future__ import annotations

import argparse
import math
import random
import re
import sys
from fractions import Fraction

from .centralizer import find_commuting_operator, hyperelliptic_pair
from .errors import (
    CommutingOperatorNotFound,
    ConstraintError,
    DegenerateSampleError,
    NotCoveredError,
    SpectralPairsError,
)
from .families import CUBIC, EXPONENTIAL, QUARTIC, FamilySpec, char_poly_z, make_L4
from .numeric import (
    BESSEL_MIN_POINTS,
    RESIDUAL_MIN_POINTS,
    bessel_change_check,
    integrate_kernel,
    numeric_roots,
    residual_profile,
)
from .reports import curve_dict, emit_report, grid_csv
from .rings import CharPoly, rational_roots
from .rings.quotient import _deflate
from .suite import BESSEL_BOUND, RESIDUAL_BOUND, run_suite
from .verify import DEFAULT_SEED, sample_spec, verify_corollary, verify_eigen_identity

import json

# At 42 (g = 10), `spectral-curve` on the generic cubic 4 1 -2/3 -1 takes
# about 0.36 s as a whole command on a shared 2-core machine (median of 5):
# 0.04 s for the partner by the chain, 0.05 s for its curve and 0.03 s for
# the exact check R(L4, M) = 0 on the kernel action (medians of 7).  An
# order other than 4g + 2 runs the partner search, which takes 0.26 s for
# the same L4 at order 42.  The cap was sized when that check composed M
# with itself (about 3 s) and has not been re-derived from the new cost.
MAX_PARTNER_ORDER = 42
# Digits of each numerator and denominator of an exact command's --alpha,
# in lowest terms.  With four random 12-digit fractions the slowest exact
# command, `spectral-curve --order 42` at g = 1 (the partner search), takes
# about 4 s on that machine (15 digits: 5.6 s; 30: 12 s); `spectral-curve
# --g 10` takes 1.3 s, `verify-corollary --g 4` and `verify-theorem` under 1 s.
MAX_PARAMETER_DIGITS = 12
# `verify-corollary --g 4 --which both` takes about 50 ms per sample after
# 0.1 s of start-up on a shared 2-core Xeon, so 100 samples take about 5.4 s
# (--g 2: 1.2 s).
MAX_SAMPLES = 100
# Grid time and memory are linear: at this size `residual` (cubic g = 2) takes
# about 3 s and 90 MB on a shared 2-core machine.
MAX_GRID_POINTS = 100_001


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _exact_parameter(text: str) -> Fraction:
    """An exact rational with at most MAX_PARAMETER_DIGITS digits in its
    numerator and in its denominator, in lowest terms."""
    value = _fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_PARAMETER_DIGITS:
        shown = text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"
        raise argparse.ArgumentTypeError(
            f"more than MAX_PARAMETER_DIGITS = {MAX_PARAMETER_DIGITS} digits "
            f"in a numerator or denominator: {shown!r}"
        )
    return value


def _int_at_least(low: int, high: int | None = None):
    """Argument type for an integer in [low, high], or at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            need = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"not an integer {need}: {text!r}")
        return value

    parse.__name__ = "integer"
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")
    return value


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a positive rational: {text!r}")
    return value


class _Interval(argparse.Action):
    """Two endpoints of nonzero width; in increasing order if ``increasing``."""

    def __init__(self, *args, increasing=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.increasing = increasing

    def __call__(self, parser, namespace, values, option_string=None):
        a, b = values
        if a == b or (self.increasing and a > b):
            need = "a < b" if self.increasing else "a != b"
            parser.error(f"argument {option_string}: endpoints a b must satisfy {need}")
        setattr(namespace, self.dest, values)


class ArgumentParser(argparse.ArgumentParser):
    """Reads "-p/q" and "-1e-3" as values, as argparse already does for "-3"
    and "-0.5"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-\d+/\d+$"
        )


def _add_family_args(p, require_alpha=False, alpha_type=_exact_parameter):
    p.add_argument("--family", choices=(CUBIC, QUARTIC, EXPONENTIAL), required=True)
    p.add_argument("--g", type=_positive_int, required=True)
    p.add_argument("--eps", type=int, default=0, choices=(0, 1))
    p.add_argument(
        "--alpha", type=alpha_type, nargs="+", default=None, required=require_alpha,
        help='parameter values as exact rationals, e.g. "0 0 0 1" or "1/2 -3"',
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="spectral-pairs",
        description="exact and numeric checks for commuting operator families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-theorem", help="eigenfunction identity by exact division")
    _add_family_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-corollary", help="conjugated commutators divisible by L2")
    p.add_argument("--g", type=int, choices=(2, 4), required=True)
    p.add_argument("--alpha", type=_exact_parameter, nargs="+", default=None)
    p.add_argument("--which", choices=("l4", "l4g2", "both"), default="l4")
    p.add_argument("--samples", type=_int_at_least(1, MAX_SAMPLES), default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)

    p = sub.add_parser("centralizer", help="commuting partner by exact back-substitution")
    _add_family_args(p, require_alpha=True)
    p.add_argument("--order", type=_nonnegative_int, default=None)

    p = sub.add_parser("spectral-curve", help="curve R(z, w) of the commuting pair")
    _add_family_args(p, require_alpha=True)
    p.add_argument("--order", type=_nonnegative_int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("residual", help="numeric eigen-residual on a grid")
    # numeric: parameters beyond float range are refused when V is built
    _add_family_args(p, require_alpha=True, alpha_type=_fraction)
    p.add_argument("--interval", type=_finite_float, nargs=2, action=_Interval, default=None)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--n-points", type=_int_at_least(RESIDUAL_MIN_POINTS, MAX_GRID_POINTS),
                   default=1001)
    p.add_argument("--out", default=None, help="CSV grid output path")

    p = sub.add_parser("bessel-check", help="second-order form change of variables")
    p.add_argument("--a0", type=_fraction, default=Fraction(0))
    p.add_argument("--a1", type=_positive_fraction, default=Fraction(1))
    p.add_argument(
        "--y-interval", type=_positive_float, nargs=2, action=_Interval,
        increasing=True, default=(1.0, 5.0),
    )
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--n-points", type=_int_at_least(BESSEL_MIN_POINTS, MAX_GRID_POINTS),
                   default=101)

    sub.add_parser("suite", help="run every acceptance check")
    return parser


def _write(payload: bytes, out_path):
    if out_path is None:
        sys.stdout.write(payload.decode())
    else:
        with open(out_path, "wb") as fh:
            fh.write(payload)


def _spec_from_args(args) -> FamilySpec:
    alphas = tuple(args.alpha) if args.alpha is not None else None
    return FamilySpec(args.family, args.g, eps=args.eps, alphas=alphas)


def _partner_args(args):
    """(spec, order) of a partner search; order is --order or 4g + 2."""
    spec = _spec_from_args(args)
    if spec.family == EXPONENTIAL:
        raise NotCoveredError("the partner search covers polynomial potentials only")
    order = args.order if args.order is not None else 4 * spec.g + 2
    if order > MAX_PARTNER_ORDER:
        raise NotCoveredError(
            f"partner order {order} is above {MAX_PARTNER_ORDER} "
            f"(the default order 4g + 2 allows g <= 10)"
        )
    return spec, order


def _cmd_verify_theorem(args) -> int:
    report = verify_eigen_identity(_spec_from_args(args))
    _write(emit_report(report), args.out)
    return 0 if report.remainder_is_zero else 1


def _cmd_verify_corollary(args) -> int:
    if args.alpha is not None and args.samples != 1:
        print("--samples draws parameters; it takes no --alpha values", file=sys.stderr)
        return 2
    which = ("l4", "l4g2") if args.which == "both" else (args.which,)
    rng = random.Random(args.seed)
    ok = True
    reports = []
    for _ in range(args.samples):
        if args.alpha is None:
            spec = sample_spec(CUBIC, args.g, rng, require_squarefree_chi=True)
        else:
            spec = FamilySpec(CUBIC, args.g, alphas=tuple(args.alpha))
        for target in which:
            report = verify_corollary(spec, target)
            ok &= report.remainder_is_zero
            reports.append(emit_report(report, seed=args.seed).decode())
    payload = "".join(reports).encode()
    _write(payload, args.out)
    return 0 if ok else 1


def _cmd_centralizer(args) -> int:
    spec, order = _partner_args(args)
    l4 = make_L4(spec)
    m = find_commuting_operator(l4, order)
    print(m)
    # find_commuting_operator raises unless [L4, M] = 0 holds exactly
    print("commutator zero: True")
    return 0


def _cmd_spectral_curve(args) -> int:
    spec, order = _partner_args(args)
    l4 = make_L4(spec)
    m = find_commuting_operator(l4, order)
    m, curve = hyperelliptic_pair(l4, m)
    identity_zero = curve.eval_at_operators(l4, m).is_zero()
    payload = json.dumps(
        {"curve": curve_dict(curve), "operator_identity_zero": identity_zero},
        sort_keys=True, indent=2,
    ) + "\n"
    _write(payload.encode(), args.out)
    return 0 if identity_zero else 1


def _distinct_roots(chi: CharPoly) -> list:
    """The complex roots of chi, each distinct root once.

    A repeated root of a rational chi of degree <= 3 is rational, so
    :func:`rational_roots` finds it exactly, with its multiplicity; it is
    divided out until it is simple, and the roots are those of the rest.
    """
    roots = rational_roots(chi)
    coeffs = chi.rational_coeffs()
    for r in set(roots):
        for _ in range(roots.count(r) - 1):
            coeffs, _ = _deflate(coeffs, r)
    return numeric_roots(CharPoly(chi.ring, coeffs))


def _cmd_residual(args) -> int:
    spec = _spec_from_args(args)
    chi = char_poly_z(spec)  # an uncovered family or genus exits before integrating
    grid = integrate_kernel(
        spec, shifted=spec.family == EXPONENTIAL, init=(1.0, 0.3),
        interval=args.interval, tol=args.tol, n_points=args.n_points,
    )
    import numpy as np
    roots = _distinct_roots(chi)
    # (psi, profile) per root; each residual is its profile's maximum, as in
    # eigen_residual, and the CSV takes the first root's
    profiles = [residual_profile(spec, z, grid) for z in roots]
    residuals = [float(np.nanmax(profile)) for _, profile in profiles]
    worst = max(residuals)
    if args.out:
        psi, profile = profiles[0]
        _write(grid_csv(grid, psi=psi, residual=profile), args.out)
    print(f"max residual over {len(roots)} root(s): {worst:.3e}")
    for z, r in zip(roots, residuals):
        print(f"z = {z:.6g}: {r:.3e}")
    return 0 if worst < RESIDUAL_BOUND else 1


def _cmd_bessel_check(args) -> int:
    res = bessel_change_check(
        args.a0, args.a1, y_interval=tuple(args.y_interval),
        tol=args.tol, n_points=args.n_points,
    )
    print(f"residual: {res:.3e}")
    return 0 if res < BESSEL_BOUND else 1


_DISPATCH = {
    "verify-theorem": _cmd_verify_theorem,
    "verify-corollary": _cmd_verify_corollary,
    "centralizer": _cmd_centralizer,
    "spectral-curve": _cmd_spectral_curve,
    "residual": _cmd_residual,
    "bessel-check": _cmd_bessel_check,
    "suite": lambda args: 0 if run_suite(out=sys.stdout) else 1,
}


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except NotCoveredError as exc:
        print(f"not covered: {exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except DegenerateSampleError as exc:
        print(f"degenerate parameters, nothing checked: {exc}", file=sys.stderr)
        return 2
    except CommutingOperatorNotFound as exc:
        print(f"no partner: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write the output: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # not a verdict: an input or result the command cannot handle, such as
        # a number above Python's int-to-str digit limit
        print(f"not covered: {exc}", file=sys.stderr)
        return 2
    except SpectralPairsError as exc:
        # a failed self-check or a broken internal precondition, not a verdict
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
