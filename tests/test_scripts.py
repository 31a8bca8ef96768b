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


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *RUNS[script]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
