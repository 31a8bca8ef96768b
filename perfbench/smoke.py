#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--workload NAME ...]

Runs each workload of BENCHMARK.json on its minimal input set, untraced and
traced, and checks that

* the last output line is the result object, with every metric named in
  BENCHMARK.json (end-to-end untraced, per-layer traced) and its unit;
* every verdict is correct and every known-false control came back false;
* the controls are not vacuous: the same constructions without the
  perturbation pass;
* without the package source next to it, the benchmark exits non-zero and
  prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_workload(name: str, spec: dict) -> list:
    problems = []
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = _run(["--workload", name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
        where = f"{name} trace {trace}"
        if proc.returncode != 0:
            problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        report = json.loads((ROOT / ".perfbench-out" / f"{name}-seed7-trace{trace}.json").read_text())
        # numeric residuals over their gate show in fail_ratio, not in failed
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} "
                            f"failed={result['failed']} attempted={result['attempted']}")
        expected = {m["name"]: m["unit"] for m in listed}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != expected:
            problems.append(f"{where}: metrics/units differ: "
                            f"missing {sorted(set(expected) - set(got))}, "
                            f"extra {sorted(set(got) - set(expected))}, "
                            f"units {[k for k in expected if k in got and got[k] != expected[k]]}")
        for k, v in result["metrics"].items():
            if not isinstance(v.get("value"), (int, float)):
                problems.append(f"{where}: {k} value {v.get('value')!r}")
        if not report["controls"]:
            problems.append(f"{where}: no known-false controls ran")
        for c in report["controls"]:
            if not c["came_back_false"]:
                problems.append(f"{where}: control came back true: {c}")
        print(f"{where}: {len(result['metrics'])} metrics, "
              f"{len(report['controls'])} controls came back false")
    return problems


def check_controls_not_vacuous() -> list:
    """Unperturbed constructions behind the controls must pass."""
    import random

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from spectral_pairs import families, verify

    problems = []
    rng = random.Random(7)
    specs = [verify.sample_spec(families.CUBIC, 2, rng, require_squarefree_chi=True),
             verify.sample_spec(families.CUBIC, 4, rng, require_squarefree_chi=True),
             verify.sample_spec(families.QUARTIC, 1, rng)]
    for spec in specs:
        if not workloads.eigen_remainder(spec, families.char_poly_z(spec)).is_zero():
            problems.append(f"eigen identity of {spec} fails with its own chi")
        if workloads.eigen_remainder(spec, workloads.perturbed_chi(spec, rng)).is_zero():
            problems.append(f"eigen identity of {spec} holds modulo a perturbed chi")
    return problems


def check_without_source() -> list:
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH_DIR.name / "run.py"), "--workload",
         "numeric-crosscheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the source: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args(argv)

    problems = check_without_source() + check_controls_not_vacuous()
    for name in args.workload:
        problems += check_workload(name, spec)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
