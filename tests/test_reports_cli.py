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

from spectral_pairs import cli, numeric
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
    report_dict,
)
from spectral_pairs.rings import CharPoly, PolyRing
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
    code = run_command(["verify-theorem", "--family", "cubic", "--g", "2"])
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


def test_cli_usage_errors_exit_2(capsys):
    assert run_command([]) == 2
    assert run_command(["no-such-command"]) == 2
    assert run_command(
        ["verify-theorem", "--family", "cubic", "--g", "2", "--alpha", "0.5x"]
    ) == 2
    capsys.readouterr()


def test_cli_unwritable_out_exits_2(capsys, tmp_path):
    # a path that cannot be written is a usage error, not a failed verification
    missing = tmp_path / "missing" / "x.json"
    code = run_command(["verify-theorem", "--family", "cubic", "--g", "2",
                        "--out", str(missing)])
    assert code == 2
    assert "cannot write the output" in capsys.readouterr().err
    assert not missing.parent.exists()


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


def _env_with_src() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
_GENERIC = ["4", "1", "-2/3", "-1"]


@pytest.mark.parametrize("name, g, alpha", [
    ("x3-g1", 1, ["0", "0", "0", "1"]),
    ("x3-g2", 2, ["0", "0", "0", "1"]),
    ("x3-g3", 3, ["0", "0", "0", "1"]),
    ("generic-g1", 1, _GENERIC),
    ("generic-g2", 2, _GENERIC),
    ("cubic-generic-g3", 3, _GENERIC),
    ("quartic-g2", 2, ["-4/3", "13/12", "-2", "-2/3", "2/3"]),
    ("x3-g4", 4, ["0", "0", "0", "1"]),
    ("x3-g6", 6, ["0", "0", "0", "1"]),
    ("x4-g2", 2, ["0", "0", "0", "0", "1"]),  # F = z^2 (z^3 + 1872), e = 2
])
def test_cli_spectral_curve_matches_golden_output(capsys, tmp_path, name, g, alpha):
    out = tmp_path / "curve.json"
    family = "quartic" if name.startswith(("quartic", "x4")) else "cubic"
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
        ["verify-theorem", "--family", "exponential", "--g", "3"],
    "verify-theorem-cubic-g2-symbolic.txt":
        ["verify-theorem", "--family", "cubic", "--g", "2"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_COMMANDS))
def test_cli_exact_commands_match_golden_output(capsys, name):
    assert run_command(_GOLDEN_COMMANDS[name]) == 0
    out = capsys.readouterr().out.encode()
    assert _without_elapsed(out) == (DATA / name).read_bytes()


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # importing numpy, or scipy, now raises ImportError
from spectral_pairs.cli import run_command
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run_command(argv)
    results[name] = [code, out.getvalue()]
print(json.dumps(results))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "no-asserts"])
def test_cli_exact_commands_run_without_numpy(flags):
    # the exact engine is rational algebra alone: numpy is imported only by
    # the numeric code that calls it; under -O every golden holds with the
    # asserts stripped
    commands = {**_GOLDEN_COMMANDS, "spectral-curve-generic-g2.json":
                ["spectral-curve", "--family", "cubic", "--g", "2", "--alpha", *_GENERIC]}
    proc = subprocess.run([sys.executable, *flags, "-c", _WITHOUT_NUMPY, json.dumps(commands)],
                          capture_output=True, text=True, env=_env_with_src(), timeout=300,
                          check=True)
    results = json.loads(proc.stdout)
    assert sorted(results) == sorted(commands)
    for name, (code, out) in results.items():
        got = out.encode()
        assert code == 0, name
        # the .txt goldens hold stdout without its elapsed_ms lines
        assert (got if name.endswith(".json") else _without_elapsed(got)) \
            == (DATA / name).read_bytes(), name


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


def test_cli_residual_builds_one_profile_per_root(capsys, tmp_path, monkeypatch):
    """One residual_profile per root, with or without --out; the CSV reuses
    the first root's, so each root takes one pass of each of the two stencils."""
    calls, passes = [], []
    inner, defect = numeric.residual_profile, numeric._defect_profile

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cli, "residual_profile", counted)
    monkeypatch.setattr(numeric, "_defect_profile",
                        lambda *args: passes.append(args) or defect(*args))
    argv = ["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "1", "0", "1"]
    assert run_command(argv) == 0
    assert (len(calls), len(passes)) == (2, 4)
    per_root = list(calls)
    lines = capsys.readouterr().out.splitlines()
    out = tmp_path / "grid.csv"
    assert run_command(argv + ["--out", str(out)]) == 0
    assert (len(calls), len(passes)) == (4, 8)
    assert capsys.readouterr().out.splitlines() == lines
    spec, first_root, grid = calls[2]
    psi, profile = inner(spec, first_root, grid)
    assert out.read_bytes() == grid_csv(grid, psi=psi, residual=profile)
    # the maximum first, then each root's eigen_residual on the same grid
    values = [numeric.eigen_residual(spec, z, grid) for spec, z, grid in per_root]
    assert lines[0] == f"max residual over 2 root(s): {max(values):.3e}"
    assert lines[1:] == [f"z = {z:.6g}: {r:.3e}" for (_, z, _), r in zip(per_root, values)]


@pytest.mark.parametrize("argv, code", [
    (["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "0", "0", "1"], 0),
    # exit 1 here is the exponential family's stencil bias (ROADMAP item 5)
    (["residual", "--family", "exponential", "--g", "1", "--alpha", "0", "1"], 1),
], ids=["cubic", "exponential"])
def test_cli_residual_csv_is_the_printed_profile(capsys, tmp_path, argv, code):
    # the CSV's residual column is the profile whose maximum is printed
    # for the first root
    out = tmp_path / "grid.csv"
    assert run_command(argv) == code
    printed = capsys.readouterr().out
    assert run_command(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == printed
    first_root = printed.splitlines()[1].rsplit(": ", 1)[1]
    column = np.array([float(line.split(",")[5])
                       for line in out.read_text().splitlines()[1:]])
    assert f"{np.nanmax(column):.3e}" == first_root


def test_cli_residual_checks_a_repeated_root_once(capsys, monkeypatch):
    # cubic g = 2 on V = x^3 has chi = z^2: one root, one residual, one line
    calls = []
    inner = cli.residual_profile
    monkeypatch.setattr(cli, "residual_profile", lambda *args: calls.append(args) or inner(*args))
    assert run_command(_RESIDUAL) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 1 and calls[0][1] == 0
    assert lines[0].startswith("max residual over 1 root(s): ")
    assert lines[1:] == [f"z = 0+0j: {lines[0].rsplit(': ', 1)[1]}"]


def test_cli_residual_keeps_each_simple_root():
    # z^3 - z^2 = z^2 (z - 1) keeps 0 and 1; an irreducible cubic keeps its three
    base = PolyRing(("x",))
    assert cli._distinct_roots(CharPoly(base, [0, 0, -1, 1])) == [0, 1]
    assert cli._distinct_roots(CharPoly(base, [0, 0, 0, 1])) == [0]
    assert len(cli._distinct_roots(CharPoly(base, [-2, 0, 0, 1]))) == 3


def test_cli_residual_threshold_failure_exits_1(capsys, monkeypatch):
    # the gate is the suite's RESIDUAL_BOUND, passed only strictly below it
    monkeypatch.setattr(cli, "residual_profile",
                        lambda spec, z, grid: (grid.phi, np.full(len(grid.x), cli.RESIDUAL_BOUND)))
    code = run_command(
        ["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "0", "0", "1"]
    )
    assert code == 1
    assert f"{cli.RESIDUAL_BOUND:.3e}" in capsys.readouterr().out


@pytest.mark.parametrize("family_args", [
    ["--family", "cubic", "--g", "3", "--alpha", "0", "1", "0", "1"],
    ["--family", "quartic", "--g", "3", "--alpha", "-4/3", "13/12", "-2", "-2/3", "2/3"],
], ids=["cubic", "quartic"])
def test_cli_residual_without_closed_form_exits_2_before_integrating(
        capsys, monkeypatch, family_args):
    def refuse(*args, **kwargs):
        raise AssertionError("integrated the kernel of a family with no chi")

    monkeypatch.setattr(cli, "integrate_kernel", refuse)
    assert run_command(["residual", *family_args, "--n-points", "100001"]) == 2
    assert "not covered" in capsys.readouterr().err


def test_cli_bessel_check(capsys, monkeypatch):
    assert run_command(["bessel-check"]) == 0
    # the gate is the suite's BESSEL_BOUND, passed only strictly below it
    monkeypatch.setattr(cli, "bessel_change_check", lambda *a, **k: cli.BESSEL_BOUND)
    assert run_command(["bessel-check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"residual: {cli.BESSEL_BOUND:.3e}"


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_cli_suite_exit_code_is_the_suite_verdict(monkeypatch, passed, code):
    # the criteria themselves run in tests/test_acceptance.py
    outs = []
    monkeypatch.setattr(cli, "run_suite", lambda out: outs.append(out) or passed)
    assert run_command(["suite"]) == code
    assert outs == [sys.stdout]


_RESIDUAL = ["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "0", "0", "1"]
_BIG = "1" + "0" * 400


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
        # p(x) vanishes at a root of chi, so psi = p phi is zero
        (["residual", "--family", "cubic", "--g", "2", "--alpha", "1", "1", "0", "0"],
         "degenerate parameters, nothing checked"),
        (_RESIDUAL + ["--n-points", "1e3"], "--n-points"),
        (["bessel-check", "--n-points", "2"], "--n-points"),
        (["bessel-check", "--n-points", str(cli.MAX_GRID_POINTS + 1)], "--n-points"),
        (["bessel-check", "--a1", "0"], "--a1"),
        (["bessel-check", "--a1", "-1/2"], "--a1"),
        (["bessel-check", "--y-interval", "0", "5"], "--y-interval"),
        (["bessel-check", "--y-interval", "5", "1"], "--y-interval"),
        (["bessel-check", "--y-interval", "2", "2"], "--y-interval"),
        (["bessel-check", "--tol", "-1e-10"], "--tol"),
        (["bessel-check", "--a0", "1/0"], "--a0"),
        # phi grows like e^(1000 x) and passes the overflow limit
        (["bessel-check", "--a0", "-1000000"], "not covered"),
        # V itself overflows a float at the first right-hand-side call
        (["residual", "--family", "exponential", "--g", "1", "--alpha", "0", "1",
          "--interval", "1000", "1001"], "not covered"),
        (_RESIDUAL + ["--interval", "1e103", "2e103"], "not covered"),
        # eps picks an exponential branch; no other family has one
        (["spectral-curve", "--family", "cubic", "--g", "1", "--alpha", "0", "0", "0", "1",
          "--eps", "1"], "invalid parameters"),
        (["verify-theorem", "--family", "cubic", "--g", "2", "--eps", "1"],
         "invalid parameters"),
        # exact parameters beyond float range are refused before integrating
        (["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "0", "0", _BIG],
         "not covered: a coefficient of V is about 10^400"),
        (["residual", "--family", "exponential", "--g", "1", "--alpha", "0", _BIG],
         "not covered: a coefficient of V is about 10^400"),
        (["bessel-check", "--a1", _BIG], "not covered: a1 is about 10^400"),
        (["bessel-check", "--a1", "1/" + _BIG], "not covered: a1 is positive but rounds to 0"),
        # a1 at either end of float range sends x = ln(y^2 / (4 a1)) to +-inf
        (["bessel-check", "--a1", "1e-320"], "not covered: a1 = 1e-320 sends x"),
        (["bessel-check", "--a1", "1e308"], "not covered: a1 = 1e+308 sends x"),
        # phi grows like e^(100 x) and passes the overflow limit before x = 4
        (["residual", "--family", "cubic", "--g", "2", "--alpha", "-10000", "0", "0", "1",
          "--interval", "0", "4"], "not covered: the solution exceeded 1e+150 at x = "),
        # the Bessel check names the y of the blow-up and its own interval option
        (["bessel-check", "--a0", "-1000000"],
         "not covered: the solution exceeded 1e+150 at y = 1.18481; "
         "choose a shorter y interval (--y-interval)"),
        # scipy's RK45 would silently raise rtol to 100 eps
        (_RESIDUAL + ["--tol", "1e-300"],
         "not covered: tol = 1e-300 is below RK45's relative tolerance floor"),
        (["bessel-check", "--tol", "1e-300"],
         "not covered: tol = 1e-300 is below RK45's relative tolerance floor"),
    ],
)
def test_cli_numeric_usage_errors_exit_2(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [_RESIDUAL, ["bessel-check"]], ids=["residual", "bessel-check"])
def test_cli_tolerance_above_the_rk45_floor_still_runs(capsys, argv):
    assert run_command(argv + ["--tol", "1e-13"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, where", [
    (_RESIDUAL + ["--interval", "0", "1e9"],
     ("integrating over x in [0, 1e+09]", "choose a shorter interval")),
    (["bessel-check", "--y-interval", "1", "1e9"],
     ("integrating over y in [1, 1e+09]", "choose a shorter y interval (--y-interval)")),
], ids=["residual", "bessel-check"])
def test_cli_residual_over_a_huge_interval_exits_2_quickly(argv, where):
    # neither V = x^3 on [0, 1e9] nor e^x up to y = 1e9 has a blow-up event:
    # only the evaluation cap ends the integration; the message names the
    # interval and the option the user chose, not the substituted x
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_pairs.cli", *argv],
        capture_output=True, text=True, env=_env_with_src(), timeout=60,
    )
    assert proc.returncode == 2
    assert "not covered" in proc.stderr
    assert f"MAX_RHS_EVALUATIONS = {MAX_RHS_EVALUATIONS}" in proc.stderr
    assert all(part in proc.stderr for part in where)
    assert proc.stdout == ""


def test_cli_value_error_is_not_covered_not_disproved(capsys):
    # a partner coefficient above the int-to-str digit limit cannot be
    # printed; that is not a verdict, so it exits 2, not 1 ("disproved").
    # Four 12-digit parameters give M coefficients of 771 digits at g = 10.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run_command(["centralizer", "--family", "cubic", "--g", "10", "--alpha",
                            "999999999989/999999999959", "-999999999961/999999999947",
                            "999999999937/999999999929", "-999999999899/999999999877"])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("not covered: ")
    assert "integer string conversion" in captured.err


_EXACT_ALPHA_COMMANDS = [
    ["spectral-curve", "--family", "cubic", "--g", "10", "--alpha", "4", "1", "-2/3"],
    ["centralizer", "--family", "cubic", "--g", "10", "--alpha", "4", "1", "-2/3"],
    ["verify-theorem", "--family", "cubic", "--g", "2", "--alpha", "4", "1", "-2/3"],
    ["verify-corollary", "--g", "4", "--alpha", "4", "1", "-2/3"],
]


@pytest.mark.parametrize("argv", _EXACT_ALPHA_COMMANDS, ids=lambda argv: argv[0])
def test_cli_exact_alpha_above_the_digit_cap_exits_2_quickly(capsys, argv):
    # random 300-digit P/Q: spectral-curve at g = 10 ran 22 s before the cap
    rng = random.Random(0)
    big = f"{rng.randrange(10**299, 10**300)}/{rng.randrange(10**299, 10**300)}"
    start = time.perf_counter()
    assert run_command(argv + [big]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert f"MAX_PARAMETER_DIGITS = {cli.MAX_PARAMETER_DIGITS}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", _EXACT_ALPHA_COMMANDS, ids=lambda argv: argv[0])
def test_cli_exact_alpha_at_the_digit_cap_parses(capsys, argv):
    top = 10 ** cli.MAX_PARAMETER_DIGITS
    parser = cli._build_parser()
    # numerator and denominator at the cap, coprime (their difference is 2)
    at_cap = f"-{top - 1}/{top - 3}"
    assert parser.parse_args(argv + [at_cap]).alpha[-1] == Fraction(1 - top, top - 3)
    # the digits of the value in lowest terms count, not those of the text
    assert parser.parse_args(argv + [f"{2 * top}/{4 * top}"]).alpha[-1] == Fraction(1, 2)
    for over in (f"{top}/3", f"3/{top + 1}", f"1e-{cli.MAX_PARAMETER_DIGITS}"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [over])
        assert exc.value.code == 2
    assert "MAX_PARAMETER_DIGITS" in capsys.readouterr().err


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
    # chi has the two distinct roots -4 and 0
    (["residual", "--family", "cubic", "--g", "2", "--alpha", "0", "0", "1", "1",
      "--n-points", "53"], "max residual over 2 root(s): "),
    (["bessel-check", "--n-points", "5"], "residual: "),
    # chi = z^2: its double root 0 is checked once
    (_RESIDUAL + ["--n-points", "53"], "max residual over 1 root(s): "),
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


def test_cli_failed_self_check_exits_3_not_1(capsys, monkeypatch):
    # a right division that fails its reconstruction check is an internal
    # error, not the verdict "disproved" that exit 1 reports
    from spectral_pairs.operators import DiffOp

    monkeypatch.setattr(DiffOp, "right_divmod",
                        lambda self, divisor: (DiffOp.zero(self.ring), DiffOp.zero(self.ring)))
    code = run_command(["verify-corollary", "--g", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "reconstruction check" in err


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
        (["verify-corollary", "--g", "2", "--samples", str(cli.MAX_SAMPLES + 1)],
         "--samples"),
    ],
)
def test_cli_out_of_range_counts_exit_2(capsys, monkeypatch, argv, message):
    sampled = []
    monkeypatch.setattr(cli, "sample_spec", lambda *args, **kw: sampled.append(args))
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert sampled == []


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
