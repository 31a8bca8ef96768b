"""Command-line entry point.

Exit codes: 0 every requested check passed, 1 a verification failed or no
commuting partner of the requested order exists, 2 usage or coverage errors
(parameters outside a family, counts, grid sizes, tolerances, thresholds
and intervals out of range, a grid above MAX_GRID_POINTS, a partner order
above MAX_PARTNER_ORDER, --samples other than 1 with --alpha, a spectral
curve that is not of rank two, and parameters so degenerate that no check
could run).  Exact rationals cross the boundary as "num/den" strings, and
negative ones such as -2/3 are read as values, not options; JSON reports
are deterministic for a fixed seed (elapsed_ms aside).
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
    DEFAULT_INTERVALS,
    RESIDUAL_MIN_POINTS,
    bessel_change_check,
    eigen_residual,
    integrate_kernel,
    numeric_roots,
    residual_profile,
)
from .reports import curve_dict, emit_report, grid_csv
from .suite import BESSEL_BOUND, RESIDUAL_BOUND, run_suite
from .verify import DEFAULT_SEED, sample_spec, verify_corollary, verify_eigen_identity

import json

# The partner search takes about order^3 time: at 42 (g = 10), 5-8 s for the
# generic cubic 4 1 -2/3 -1 on a shared 2-core machine, and 1-2 s more for
# its curve.
MAX_PARTNER_ORDER = 42
# Grid time and memory are linear: at this size `residual` (cubic g = 2) takes
# about 3 s and 90 MB on a shared 2-core machine.
MAX_GRID_POINTS = 100_001


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


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
    and "-0.5".

    The scripts in ``scripts/`` build their parsers from it too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-\d+/\d+$"
        )


def _add_family_args(p, require_alpha=False):
    p.add_argument("--family", choices=(CUBIC, QUARTIC, EXPONENTIAL), required=True)
    p.add_argument("--g", type=_positive_int, required=True)
    p.add_argument("--eps", type=int, default=0, choices=(0, 1))
    p.add_argument(
        "--alpha", type=_fraction, nargs="+", default=None, required=require_alpha,
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
    p.add_argument("--mode", choices=("symbolic", "specialized"), default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-corollary", help="conjugated commutators divisible by L2")
    p.add_argument("--g", type=int, choices=(2, 4), required=True)
    p.add_argument("--alpha", type=_fraction, nargs="+", default=None)
    p.add_argument("--which", choices=("l4", "l4g2", "both"), default="l4")
    p.add_argument("--samples", type=_positive_int, default=1)
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
    _add_family_args(p, require_alpha=True)
    p.add_argument("--interval", type=_finite_float, nargs=2, action=_Interval, default=None)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--n-points", type=_int_at_least(RESIDUAL_MIN_POINTS, MAX_GRID_POINTS),
                   default=1001)
    p.add_argument("--threshold", type=_positive_float, default=RESIDUAL_BOUND)
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
    p.add_argument("--threshold", type=_positive_float, default=BESSEL_BOUND)

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
    mode = args.mode or ("specialized" if args.alpha else "symbolic")
    if mode == "symbolic" and args.alpha:
        print("symbolic mode takes no --alpha values", file=sys.stderr)
        return 2
    if mode == "specialized" and not args.alpha:
        print("specialized mode requires --alpha", file=sys.stderr)
        return 2
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
            partner = None
            if target == "l4g2":
                partner = find_commuting_operator(make_L4(spec), 4 * spec.g + 2)
            report = verify_corollary(spec, target, partner=partner)
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
    comm_zero = l4.commutator(m).is_zero()
    print(f"commutator zero: {comm_zero}")
    return 0 if comm_zero else 1


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


def _cmd_residual(args) -> int:
    spec = _spec_from_args(args)
    interval = tuple(args.interval) if args.interval else DEFAULT_INTERVALS[spec.family]
    shifted = spec.family == EXPONENTIAL
    grid = integrate_kernel(
        spec, shifted, init=(1.0, 0.3), interval=interval,
        tol=args.tol, n_points=args.n_points,
    )
    roots = numeric_roots(char_poly_z(spec))
    worst = 0.0
    for z in roots:
        worst = max(worst, eigen_residual(spec, z, grid))
    psi, profile = residual_profile(spec, roots[0], grid)
    if args.out:
        _write(grid_csv(grid, psi=psi, residual=profile), args.out)
    print(f"max residual over {len(roots)} root(s): {worst:.3e}")
    return 0 if worst < args.threshold else 1


def _cmd_bessel_check(args) -> int:
    res = bessel_change_check(
        args.a0, args.a1, y_interval=tuple(args.y_interval),
        tol=args.tol, n_points=args.n_points,
    )
    print(f"residual: {res:.3e}")
    return 0 if res < args.threshold else 1


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
    except (SpectralPairsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
