import json
import random
from fractions import Fraction

import numpy as np
import pytest

from spectral_pairs.cli import run_command
from spectral_pairs.curves import SpectralCurve
from spectral_pairs.families import CUBIC, FamilySpec
from spectral_pairs.numeric import integrate_kernel
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
    as_json = emit_report(report, "json")
    assert json.loads(as_json)["remainder_is_zero"] is True
    as_text = emit_report(report, "text").decode()
    assert "remainder_is_zero: True" in as_text
    with pytest.raises(TypeError):
        emit_report(report, "csv")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def _without_elapsed(payload: bytes) -> bytes:
    return b"\n".join(
        line for line in payload.splitlines() if b"elapsed_ms" not in line
    )


def test_reports_byte_identical_up_to_elapsed():
    spec = FamilySpec(CUBIC, 4, alphas=(1, 2, 3, 4))
    a = emit_report(verify_eigen_identity(spec), "json", seed=3)
    b = emit_report(verify_eigen_identity(spec), "json", seed=3)
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
    assert run_command(["bessel-check", "--a1", "0"]) == 1  # invalid substitution
    capsys.readouterr()


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


def test_cli_inconclusive_partner_search_exits_3(capsys):
    code = run_command(["centralizer", "--family", "cubic", "--g", "1",
                        "--alpha", "0", "0", "0", "1", "--degree-bound", "1"])
    assert code == 3
    assert "inconclusive" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["centralizer", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "--order", "-1"], "--order"),
        (["spectral-curve", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "--order", "-1"], "--order"),
        (["centralizer", "--family", "cubic", "--g", "2",
          "--alpha", "0", "0", "0", "1", "--degree-bound", "-1"], "--degree-bound"),
        (["verify-corollary", "--g", "2", "--samples", "0"], "--samples"),
        (["verify-corollary", "--g", "2", "--samples", "-2"], "--samples"),
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
