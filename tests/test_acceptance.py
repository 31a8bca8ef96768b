"""Acceptance gate: every headline capability, at its stated runtime budget.

Each test runs one self-contained end-to-end criterion from
:mod:`spectral_pairs.suite` and asserts both the verdict and, where a budget
is part of the requirement, the wall-clock time, read from the suite's one
table :data:`spectral_pairs.suite.RUNTIME_BUDGETS_S`.
"""

import io

from spectral_pairs import suite


def _run(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"
    budget_s = suite.RUNTIME_BUDGETS_S.get(check)
    if budget_s is not None:
        assert result.elapsed_s < budget_s, (
            f"{result.name} took {result.elapsed_s:.1f}s (budget {budget_s}s)"
        )
    return result


def test_01_cubic_g2_symbolic_identity():
    _run(suite.check_cubic_g2_symbolic)


def test_02_cubic_g4_symbolic_identity():
    _run(suite.check_cubic_g4_symbolic)


def test_03_quartic_symbolic_and_25_specializations():
    _run(suite.check_quartic_symbolic_and_samples)


def test_04_exponential_all_branches():
    _run(suite.check_exponential_all_branches)


def test_05_conjugated_commutators_at_10_samples():
    _run(suite.check_conjugation_ring)


def test_06_order6_partner_and_cubic_curve():
    _run(suite.check_order6_pair)


def test_07_order10_partner_and_quintic_curve():
    _run(suite.check_g2_pair)


def test_08_numeric_eigen_residuals():
    result = _run(suite.check_numeric_residuals)
    assert "worst residual" in result.detail


def test_09_bessel_form_residual_and_convergence():
    result = _run(suite.check_bessel_form)
    assert "refinement ratios" in result.detail


def test_10_property_suites():
    _run(suite.check_property_suites)


def test_runtime_budgets_cover_criteria_1_to_7_and_print_their_margin(monkeypatch):
    assert list(suite.RUNTIME_BUDGETS_S) == list(suite.ALL_CRITERIA[:7])
    assert list(suite.RUNTIME_BUDGETS_S.values()) == [5, 60, 30, 10, 300, 60, 600]
    monkeypatch.setattr(suite, "ALL_CRITERIA", (suite.check_cubic_g2_symbolic,))
    out = io.StringIO()
    assert suite.run_suite(out)
    line = out.getvalue()
    assert line.startswith("[PASS]  1. cubic g=2 symbolic eigen identity (")
    assert line.rstrip().endswith("x)") and " - remainder zero: True (budget 5s, margin " in line
