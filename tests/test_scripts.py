import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# script name -> arguments of a small run
RUNS = {
    "commuting_pair_demo.py": ["--g", "1", "--alpha", "4", "1", "-2/3", "-1"],
    "residual_scan.py": ["--alpha", "4", "1", "-2/3", "-1", "--points", "251"],
    "run_suite.py": [],
}


def test_every_script_has_a_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    proc = _run(script, RUNS[script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("args, message", [
    (["--family", "exponential", "--g", "1"], "arguments are required: --alpha"),
    (["--alpha", "0", "0", "0", "1", "--points", "50"], "argument --points"),
    (["--alpha", "0", "0", "0", "1", "--points", "0"], "argument --points"),
    (["--alpha", "0", "0", "0", "1", "--tol", "0"], "argument --tol"),
    (["--family", "exponential", "--g", "1", "--alpha", "0", "0", "0", "1"],
     "invalid parameters"),
    (["--alpha", "1", "1", "0", "0", "--points", "251"], "degenerate parameters"),
])
def test_residual_scan_usage_errors_exit_2(args, message):
    proc = _run("residual_scan.py", args)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
