import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from spectral_pairs import cli
from spectral_pairs.cli import run_command
from spectral_pairs.curves import SpectralCurve
from spectral_pairs.errors import CommutingOperatorNotFound
from spectral_pairs.families import CUBIC, FamilySpec
from spectral_pairs.numeric import MAX_RHS_EVALUATIONS, integrate_kernel
from spectral_pairs.reports import (
    CSV_HEADER,
    TOOL_VERSION,
    curve_dict,
    emit_report,
    grid_csv,
    parse_curve,
    report_dict,
)
from spectral_pairs.verify import verify_eigen_identity

REPORT_FIELDS = {
    "identity_id",
    "mode",
    "params",
    "remainder_is_zero",
    "witness_order",
    "elapsed_ms",
    "tool_version",
    "seed",
}


# -- report serialization -------------------------------------------------------------


def test_report_dict_schema():
    report = verify_eigen_identity(FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)))
    data = report_dict(report, seed=7)
    assert set(data) == REPORT_FIELDS
    assert data["identity_id"] == "eigen-cubic-g2"
    assert data["mode"] == "specialized"
    assert data["remainder_is_zero"] is True
    assert data["witness_order"] == 2
    assert isinstance(data["elapsed_ms"], int)
    assert data["tool_version"] == TOOL_VERSION
    assert data["seed"] == 7
    assert data["params"]["a3"] == "1"


def test_curve_dict_frozen_serialization():
    curve = SpectralCurve({(0, 2): 1, (3, 0): -1})
    assert curve_dict(curve) == {"w^2": "1", "z^3": "-1"}


def test_curve_dict_constant_and_mixed_keys():
    curve = SpectralCurve({(0, 0): Fraction(1, 2), (2, 1): -3})
    assert curve_dict(curve) == {"1": "1/2", "z^2*w^1": "-3"}


def test_curve_round_trip_random():
    rng = random.Random(41)
    for _ in range(100):
        terms = {
            (rng.randint(0, 6), rng.randint(0, 3)): Fraction(
                rng.randint(-20, 20), rng.randint(1, 9)
            )
            for _ in range(rng.randint(0, 6))
        }
        curve = SpectralCurve(terms)
        assert parse_curve(curve_dict(curve)) == curve


def test_parse_curve_rejects_garbage():
    with pytest.raises(ValueError):
        parse_curve({"q^2": "1"})


def test_grid_csv_layout():
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 0))
    grid = integrate_kernel(spec, shifted=False, n_points=11)
    lines = grid_csv(grid).decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        float(fields[0])  # parses
        assert fields[3] == "0" and fields[4] == "0"  # default psi
        assert fields[5] == "nan"  # default residual


def test_emit_report_formats():
    report = verify_eigen_identity(FamilySpec(CUBIC, 2))
    assert json.loads(emit_report(report))["remainder_is_zero"] is True


def _without_elapsed(payload: bytes) -> bytes:
    return b"\n".join(
        line for line in payload.splitlines() if b"elapsed_ms" not in line
    )


def test_reports_byte_identical_up_to_elapsed():
    spec = FamilySpec(CUBIC, 4, alphas=(1, 2, 3, 4))
    a = emit_report(verify_eigen_identity(spec), seed=3)
    b = emit_report(verify_eigen_identity(spec), seed=3)
    assert _without_elapsed(a) == _without_elapsed(b)


# -- command-line interface -----------------------------------------------------------


def test_cli_verify_theorem_symbolic(capsys):
    code = run_command(
        ["verify-theorem", "--family", "cubic", "--g", "2", "--mode", "symbolic"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["remainder_is_zero"] is True
    assert data["mode"] == "symbolic"


def test_cli_verify_theorem_specialized(capsys):
    code = run_command(
        ["verify-theorem", "--family", "cubic", "--g", "2",
         "--alpha", "0", "0", "0", "1"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "specialized"


def test_cli_uncovered_genus_exits_2(capsys):
    code = run_command(["verify-theorem", "--family", "cubic", "--g", "7"])
    assert code == 2
    assert "not covered" in capsys.readouterr().err


def test_cli_mode_alpha_mismatch_exits_2(capsys):
    assert run_command(
        ["verify-theorem", "--family", "cubic", "--g", "2",
         "--mode", "symbolic", "--alpha", "1"]
    ) == 2
    assert run_command(
        ["verify-theorem", "--family", "cubic", "--g", "2", "--mode", "specialized"]
    ) == 2
    capsys.readouterr()


def test_cli_usage_errors_exit_2(capsys):
    assert run_command([]) == 2
    assert run_command(["no-such-command"]) == 2
    assert run_command(
        ["verify-theorem", "--family", "cubic", "--g", "2", "--alpha", "0.5x"]
    ) == 2
    capsys.readouterr()


def test_cli_spectral_curve_first_instance(capsys):
    code = run_command(
        ["spectral-curve", "--family", "cubic", "--g", "1",
         "--alpha", "0", "0", "0", "1"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["curve"] == {"w^2": "1", "z^3": "-1"}
    assert data["operator_identity_zero"] is True


DATA = Path(__file__).parent / "data"
_GENERIC = ["4", "1", "-2/3", "-1"]


@pytest.mark.parametrize("name, g, alpha", [
    ("x3-g1", 1, ["0", "0", "0", "1"]),
    ("x3-g2", 2, ["0", "0", "0", "1"]),
    ("x3-g3", 3, ["0", "0", "0", "1"]),
    ("generic-g1", 1, _GENERIC),
    ("generic-g2", 2, _GENERIC),
    ("cubic-generic-g3", 3, _GENERIC),
    ("quartic-g2", 2, ["-4/3", "13/12", "-2", "-2/3", "2/3"]),
])
def test_cli_spectral_curve_matches_golden_output(capsys, tmp_path, name, g, alpha):
    out = tmp_path / "curve.json"
    family = "quartic" if name.startswith("quartic") else "cubic"
    argv = ["spectral-curve", "--family", family, "--g", str(g), "--alpha", *alpha]
    assert run_command(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"spectral-curve-{name}.json").read_bytes()
    capsys.readouterr()


# golden file -> command; the files hold stdout without its elapsed_ms lines
_GOLDEN_COMMANDS = {
    "centralizer-cubic-g2-generic.txt":
        ["centralizer", "--family", "cubic", "--g", "2", "--alpha", *_GENERIC],
    "centralizer-quartic-g2.txt":
        ["centralizer", "--family", "quartic", "--g", "2",
         "--alpha", "-4/3", "13/12", "-2", "-2/3", "2/3"],
    "verify-corollary-g2-samples3-seed11-both.txt":
        ["verify-corollary", "--g", "2", "--samples", "3", "--seed", "11",
         "--which", "both"],
    "verify-theorem-exponential-g3-symbolic.txt":
        ["verify-theorem", "--family", "exponential", "--g", "3", "--mode", "symbolic"],
    "verify-theorem-cubic-g2-symbolic.txt":
        ["verify-theorem", "--family", "cubic", "--g", "2", "--mode", "symbolic"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_COMMANDS))
def test_cli_exact_commands_match_golden_output(capsys, name):
    assert run_command(_GOLDEN_COMMANDS[name]) == 0
    out = capsys.readouterr().out.encode()
    assert _without_elapsed(out) == (DATA / name).read_bytes()


@pytest.mark.parametrize("order", ["4", "0"])
def test_cli_spectral_curve_of_a_polynomial_in_l4_exits_2(capsys, order):
    # the partner of order 4 is L4 and that of order 0 is 1: their curves
    # have w-degree 1, outside the rank-two curves the command covers
    code = run_command(["spectral-curve", "--family", "cubic", "--g", "1",
                        "--alpha", "0", "0", "0", "1", "--order", order])
    assert code == 2
    captured = capsys.readouterr()
    assert "not a rank-two curve" in captured.err
    assert captured.out == ""


def test_cli_verify_corollary_fixed_alpha(capsys):
    code = run_command(
        ["verify-corollary", "--g", "2", "--alpha", "0", "0", "0", "1"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["remainder_is_zero"] is True


def test_cli_verify_corollary_seeded_samples_deterministic(capsys, tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-corollary", "--g", "2", "--samples", "2", "--seed", "11"]
    assert run_command(argv + ["--out", str(out_a)]) == 0
    assert run_command(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert _without_elapsed(out_a.read_bytes()) == _without_elapsed(out_b.read_bytes())


def test_cli_residual_writes_grid_csv(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code = run_command(
        ["residual", "--family", "cubic", "--g", "2",
         "--alpha", "0", "0", "0", "1", "--out", str(out)]
    )
    assert code == 0
    assert "max residual" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1002
    # interior rows carry a finite pointwise residual
    mid = lines[501].split(",")
    assert np.isfinite(float(mid[5]))


def test_cli_residual_threshold_failure_exits_1(capsys):
    code = run_command(
        ["residual", "--family", "cubic", "--g", "2",
         "--alpha", "0", "0", "0", "1", "--threshold", "1e-12"]
    )
    assert code == 1
    capsys.readouterr()


def test_cli_bessel_check(capsys):
    assert run_command(["bessel-check"]) == 0
    assert run_command(["bessel-check", "--threshold", "1e-9"]) == 1
    capsys.readouterr()


_RESIDUAL = ["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "0", "0", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_RESIDUAL + ["--tol", "0"], "--tol"),
        (_RESIDUAL + ["--tol", "nan"], "--tol"),
        (_RESIDUAL + ["--n-points", "0"], "--n-points"),
        (_RESIDUAL + ["--n-points", "52"], "--n-points"),
        (_RESIDUAL + ["--n-points", str(cli.MAX_GRID_POINTS + 1)], "--n-points"),
        (_RESIDUAL + ["--interval", "1", "1"], "--interval"),
        (_RESIDUAL + ["--interval", "0", "nan"], "--interval"),
        (_RESIDUAL + ["--interval", "0", "inf"], "--interval"),
        (_RESIDUAL + ["--threshold", "nan"], "--threshold"),
        (_RESIDUAL + ["--threshold", "0"], "--threshold"),
        (["bessel-check", "--n-points", "2"], "--n-points"),
        (["bessel-check", "--n-points", str(cli.MAX_GRID_POINTS + 1)], "--n-points"),
        (["bessel-check", "--a1", "0"], "--a1"),
        (["bessel-check", "--a1", "-1/2"], "--a1"),
        (["bessel-check", "--y-interval", "0", "5"], "--y-interval"),
        (["bessel-check", "--y-interval", "5", "1"], "--y-interval"),
        (["bessel-check", "--y-interval", "2", "2"], "--y-interval"),
        (["bessel-check", "--tol", "-1e-10"], "--tol"),
        (["bessel-check", "--threshold", "nan"], "--threshold"),
        # phi grows like e^(1000 x) and passes the overflow limit
        (["bessel-check", "--a0", "-1000000"], "not covered"),
    ],
)
def test_cli_numeric_usage_errors_exit_2(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    _RESIDUAL + ["--interval", "0", "1e9"],
    ["bessel-check", "--y-interval", "1", "1e9"],
], ids=["residual", "bessel-check"])
def test_cli_residual_over_a_huge_interval_exits_2_quickly(argv):
    # neither V = x^3 on [0, 1e9] nor e^x up to y = 1e9 has a blow-up event:
    # only the evaluation cap ends the integration
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_pairs.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "not covered" in proc.stderr
    assert f"MAX_RHS_EVALUATIONS = {MAX_RHS_EVALUATIONS}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [_RESIDUAL, ["bessel-check"]], ids=["residual", "bessel-check"])
def test_cli_grid_above_the_cap_exits_2_quickly(capsys, argv):
    # a grid of 10^9 points would not fit in memory; it is refused unallocated
    start = time.perf_counter()
    assert run_command(argv + ["--n-points", str(10**9)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "--n-points" in capsys.readouterr().err
    args = cli._build_parser().parse_args(argv + ["--n-points", str(cli.MAX_GRID_POINTS)])
    assert args.n_points == cli.MAX_GRID_POINTS


@pytest.mark.parametrize("argv, verdict", [
    (_RESIDUAL + ["--n-points", "53"], "max residual over 2 root(s): "),
    (["bessel-check", "--n-points", "5"], "residual: "),
])
def test_cli_numeric_smallest_accepted_grid_is_checked(capsys, argv, verdict):
    # a grid this coarse may miss the bound (exit 1), but the check runs
    assert run_command(argv) in (0, 1)
    captured = capsys.readouterr()
    assert captured.out.startswith(verdict)
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-theorem", "--family", "cubic", "--g", "0"], "--g"),
        (["residual", "--family", "cubic", "--g", "0",
          "--alpha", "0", "0", "0", "1"], "--g"),
        (["verify-theorem", "--family", "quartic", "--g", "1",
          "--alpha", "0", "0", "0", "0", "0"], "invalid parameters"),
        (["verify-theorem", "--family", "quartic", "--g", "1",
          "--alpha", "0", "0", "1", "1", "1"], "invalid parameters"),
        # values at parameters the family does not use, or more than a0 .. a4
        (["verify-theorem", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "5"], "invalid parameters"),
        (["verify-theorem", "--family", "exponential", "--g", "1",
          "--alpha", "1", "2", "3", "4", "5", "6", "7"], "invalid parameters"),
        (["verify-corollary", "--g", "2", "--alpha", "0", "0", "0", "1", "9"],
         "invalid parameters"),
        (["centralizer", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "5"], "invalid parameters"),
    ],
)
def test_cli_parameters_outside_the_family_exit_2(capsys, argv, message):
    assert run_command(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["centralizer", "spectral-curve"])
def test_cli_partner_search_of_exponential_family_exits_2(capsys, command):
    code = run_command([command, "--family", "exponential", "--g", "1",
                        "--alpha", "1", "1"])
    assert code == 2
    assert "not covered" in capsys.readouterr().err


def test_cli_absent_partner_order_exits_1(capsys):
    # the operators commuting with this L4 up to order 5 have orders 0 and 4 only
    code = run_command(["centralizer", "--family", "cubic", "--g", "1",
                        "--alpha", "0", "0", "0", "1", "--order", "5"])
    assert code == 1
    assert "no partner" in capsys.readouterr().err


@pytest.mark.parametrize("order, first_line", [("4", "D^4 + "), ("0", "(1)")])
def test_cli_partner_of_order_4_and_0(capsys, order, first_line):
    code = run_command(["centralizer", "--family", "cubic", "--g", "2",
                        "--alpha", "0", "0", "0", "1", "--order", order])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(first_line)
    assert out.endswith("commutator zero: True\n")


@pytest.mark.parametrize("command", ["centralizer", "spectral-curve"])
@pytest.mark.parametrize("size, searched", [
    (["--g", "2", "--order", "42"], 42),
    (["--g", "10"], 42),
    (["--g", "2", "--order", "43"], None),
    (["--g", "11"], None),
    (["--g", "11", "--order", "6"], 6),
])
def test_cli_partner_order_is_bounded(capsys, monkeypatch, command, size, searched):
    calls = []

    def search(l4, order):
        calls.append(order)
        raise CommutingOperatorNotFound("search not run in this test")

    monkeypatch.setattr(cli, "find_commuting_operator", search)
    code = run_command([command, "--family", "cubic", *size,
                        "--alpha", "0", "0", "0", "1"])
    err = capsys.readouterr().err
    if searched is None:
        assert code == 2 and calls == []
        assert f"is above {cli.MAX_PARTNER_ORDER}" in err
    else:
        assert code == 1 and calls == [searched]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["centralizer", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "--order", "-1"], "--order"),
        (["spectral-curve", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "--order", "-1"], "--order"),
        (["centralizer", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "--degree-bound", "1"], "--degree-bound"),
        (["verify-corollary", "--g", "2", "--samples", "0"], "--samples"),
        (["verify-corollary", "--g", "2", "--samples", "-2"], "--samples"),
        # one check of the given parameters would run, not three
        (["verify-corollary", "--g", "2", "--alpha", "1", "2", "3", "4",
          "--samples", "3"], "--samples"),
    ],
)
def test_cli_out_of_range_counts_exit_2(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cli_accepts_negative_fractions(capsys):
    args = ["centralizer", "--family", "cubic", "--g", "2", "--alpha", "4", "1"]
    assert run_command(args + ["-2/3", "-1"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run_command(args + [" -2/3", "-1"]) == 0
    assert plain.out == capsys.readouterr().out
    assert plain.out.endswith("commutator zero: True\n")


def test_cli_accepts_negative_numbers_with_an_exponent(capsys):
    assert run_command(["bessel-check", "--a0", "-1/10"]) == 0
    plain = capsys.readouterr()
    assert run_command(["bessel-check", "--a0", "-1e-1"]) == 0
    assert capsys.readouterr() == plain


def test_cli_centralizer_found_exits_0(capsys):
    code = run_command(["centralizer", "--family", "cubic", "--g", "1",
                        "--alpha", "0", "0", "0", "1"])
    assert code == 0
    assert capsys.readouterr().out.endswith("commutator zero: True\n")


def test_cli_degenerate_corollary_sample_exits_2(capsys):
    # a3 = a2 = 0: the multiplier p vanishes at the only root of chi, so no
    # branch can be checked; that is not a failed verification
    code = run_command(["verify-corollary", "--g", "2", "--alpha", "0", "0", "0", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "degenerate" in err and "nothing checked" in err


def test_cli_verify_corollary_large_coefficients_finish(capsys):
    # chi's constant term is about 1.2e13; a divisor scan in the rational-root
    # search would not finish, a bisection takes a few dozen evaluations
    code = run_command(["verify-corollary", "--g", "2",
                        "--alpha", "0", "1000003", "0", "1000033"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["remainder_is_zero"] is True
