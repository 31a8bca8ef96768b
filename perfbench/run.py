#!/usr/bin/env python3
"""Closed-loop benchmark of the spectral-pairs engine.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One client in one process sends the next
operation only after the previous verdict returns.  The workload's seeded
input list is run in whole passes until ``--seconds`` have elapsed (at least
one pass), so every run sees the same mix of inputs.  ``--workload all`` runs
every workload in turn, each in its own process, and prints a summary.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` installs the span recorder of ``tracing.py`` around the
package's layer boundaries and reports the per-layer metrics, per traced
verdict; it then times the first inputs once more untraced and reports the
tracing overhead.

Human-readable lines start with ``#``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A detailed report (input properties, per-operation times,
controls, spans) is written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# the keys of workloads.WORKLOADS, spelled out so that argument parsing does
# not import the package before set-up is timed
WORKLOAD_NAMES = ("partner-generic", "curve-small", "exact-identities", "numeric-crosscheck")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median
REF_SECONDS = 1.0  # untraced reference time after the traced passes
# the reference speed: the calibration loop's typical time in a quiet period
# of the 2-vCPU machine the benchmark was written on
CALIBRATION_REF_S = 0.006
CALIBRATION_INTERVAL_S = 0.2  # calibration inside a long operation, this often

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s_at_ref", "1/s"),
    ("verdict_s_p50_at_ref", "s"),
    ("peak_rss_mb", "MB"),
)

_clock = time.perf_counter


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup(name: str, seed, minimal: bool):
    """Import the package, build the seeded inputs (make_L4 included)."""
    t0 = _clock()
    sys.path.insert(0, str(SRC))
    import spectral_pairs
    import workloads

    seed = spectral_pairs.verify.DEFAULT_SEED if seed is None else seed
    wl = workloads.WORKLOADS[name]()
    items = wl.build(seed, minimal)
    elapsed = _clock() - t0
    if not Path(spectral_pairs.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported spectral_pairs from {spectral_pairs.__file__}")
    return elapsed, spectral_pairs, wl, items, seed


def _probe_setups(args) -> list:
    """Set-up times measured in fresh interpreter processes, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibration_loop():
    """Fixed pure-Python work that does not touch the package: rational and
    dict arithmetic of the kind the engine's inner loops do."""
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 600):
        acc += x * Fraction(i, i + 1)
        x = (x + 1) / (x + 2) if i % 8 else Fraction(3, 7)
    counts: dict = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc, counts


def calibrate() -> float:
    """One timed run of the calibration loop."""
    gc_enabled = gc.isenabled()
    gc.disable()  # collections of the package's heap are not billed here
    try:
        t0 = _clock()
        calibration_loop()
        return _clock() - t0
    finally:
        if gc_enabled:
            gc.enable()


class Calibration:
    """Times of the calibration loop over a run, and each operation's slowdown.

    On a shared machine the same code runs up to 2x slower for stretches of
    a fraction of a second to minutes, so that a whole run can be slow.  The
    calibration loop is timed before and after every operation and, from a
    timer signal, every CALIBRATION_INTERVAL_S inside one; the time spent in
    it is taken out of the operation's time.  The median of an operation's
    own samples, against CALIBRATION_REF_S, is that operation's slowdown.
    The loop does not use the package, so a change to the package moves the
    scaled verdict times in full.
    """

    def __init__(self):
        self.samples: list = []
        self.in_operation_s = 0.0

    def _on_alarm(self, signum, frame):
        t0 = _clock()
        self.samples.append(calibrate())
        self.in_operation_s += _clock() - t0

    @contextlib.contextmanager
    def operation(self):
        """Calibrate, then sample during the operation run inside."""
        self.samples.append(calibrate())
        self.in_operation_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def operation_slowdown(self, first: int) -> float:
        """Calibrate once more after an operation whose samples start at
        index ``first``; the median slowdown of its samples."""
        self.samples.append(calibrate())
        return statistics.median(self.samples[first:]) / CALIBRATION_REF_S

    def slowdown(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REF_S


class Loop:
    """Runs items in whole passes, checks verdicts and runs controls."""

    def __init__(self, wl, items, seed: int, tracer=None, calibration=None):
        self.wl = wl
        self.items = items
        self.seed = seed
        self.tracer = tracer
        self.calibration = calibration
        self.records: list = []
        self.controls: list = []
        self._op_id = 0

    def _timed(self, item):
        if self.tracer is None:
            return self.wl.run(item)
        self.tracer.active = True
        try:
            return self.tracer.op(f"op.{item.kind}", self._op_id, lambda: self.wl.run(item))
        finally:
            self.tracer.active = False

    def run_one(self, idx: int, pass_no: int, keep: bool = True) -> dict:
        item = self.items[idx]
        result, error = None, None
        cal = self.calibration
        first_sample = len(cal.samples) if cal is not None else 0
        with cal.operation() if cal is not None else contextlib.nullcontext():
            t0 = _clock()
            try:
                result = self._timed(item)
            except Exception as exc:  # an operation that raises is a failed verdict
                error = f"{type(exc).__name__}: {exc}"
        # the timer is stopped here, so all calibration inside is accounted for
        seconds = _clock() - t0 - (cal.in_operation_s if cal is not None else 0.0)
        rec = {"op": self._op_id, "item": idx, "kind": item.kind, "label": item.label,
               "pass": pass_no, "seconds": seconds}
        if cal is not None:
            rec["slowdown"] = cal.operation_slowdown(first_sample)
        self._op_id += 1
        if error is None:
            try:
                rec["status"], rec["props"] = self.wl.check(item, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            rec["status"], rec["error"] = "error", error
        if keep:
            self.records.append(rec)
            if pass_no == 0 and result is not None:
                self._run_controls(idx, item, result)
        return rec

    def _run_controls(self, idx, item, result):
        rng = random.Random(self.seed * 1009 + idx)
        try:
            outcomes = self.wl.controls(item, result, rng)
        except Exception as exc:
            outcomes = [(f"controls raised {type(exc).__name__}: {exc}", False)]
        for name, came_back_false in outcomes:
            self.controls.append({"item": idx, "control": name,
                                  "came_back_false": bool(came_back_false)})

    def run_passes(self, seconds: float) -> int:
        start = _clock()
        passes = 0
        while True:
            for idx in range(len(self.items)):
                self.run_one(idx, passes)
            passes += 1
            if _clock() - start >= seconds:
                return passes

    def item_times(self, at_ref: bool = False) -> list:
        """Per input, the median of its repeats in this run; with ``at_ref``,
        each repeat divided by its own slowdown first."""
        times: dict = {}
        for r in self.records:
            times.setdefault(r["item"], []).append(
                r["seconds"] / r["slowdown"] if at_ref else r["seconds"])
        return [statistics.median(t) for t in times.values()]

    def summary(self) -> dict:
        """``failed`` counts operations that raised or gave a wrong verdict and
        controls that came back true.  A numeric residual over its gate is
        not among them: the operation returned, and the identity it
        cross-checks holds exactly.  ``fail_ratio`` counts gate misses too."""
        failed_controls = [c for c in self.controls if not c["came_back_false"]]
        wrong = [r for r in self.records if r["status"] in ("wrong", "error")]
        gate_misses = sum(r["status"] == "gate" for r in self.records)
        attempted = len(self.records) + len(self.controls)
        failed = len(wrong) + len(failed_controls)
        return {
            "correct": not wrong and not failed_controls,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": (failed + gate_misses) / attempted if attempted else 1.0,
            "gate_misses": gate_misses,
        }


def _props_mean(records, key) -> float:
    vals = [r["props"][key] for r in records if key in r.get("props", {})]
    return statistics.fmean(vals) if vals else 0.0


def _props_extreme(records, key, fn) -> float:
    vals = [r["props"][key] for r in records if key in r.get("props", {})]
    return fn(vals) if vals else 0.0


def _input_shares(records) -> list:
    """Human-readable shares of the input properties later claims rely on."""
    first = [r for r in records if r["pass"] == 0 and "props" in r]
    lines = []
    cor = [r for r in first if "branches_rational" in r["props"]]
    if cor:
        irr = sum(r["props"]["branches_irrational"] > 0 for r in cor)
        lines.append(f"corollary ops with an irrational (quotient field) branch: "
                     f"{irr}/{len(cor)}; with a rational-root branch: "
                     f"{sum(r['props']['branches_rational'] > 0 for r in cor)}/{len(cor)}")
    res = [r for r in first if "init" in r["props"]]
    if res:
        over = sum(r["props"]["residual_over_bound"] >= 1 for r in res)
        lines.append(f"residual ops over the 1e-6 gate: {over}/{len(res)}")
    return lines


# per traced verdict: call counts and self times of the wrapped boundaries
_PER_VERDICT_CALLS = (
    "linalg.nullspace", "centralizer.build_ansatz_system", "centralizer.spectral_curve",
    "operators.mul", "operators.right_divmod", "rings.quotient.mul", "rings.multipoly.mul",
    "rings.fraction_field.mul", "rings.twisted.mul", "numeric.integrate_kernel",
)
_PER_VERDICT_SELF_S = (
    "linalg.nullspace", "centralizer.build_ansatz_system",
    "centralizer.find_commuting_operator", "centralizer.series_kernel_basis",
    "centralizer.action_matrix", "curves.charpoly_w", "curves.squarefree_normalize",
    "curves.eval_at_operators", "operators.mul", "operators.commutator",
    "operators.right_divmod", "operators.conjugate_by_unit", "rings.quotient.mul",
    "rings.multipoly.mul", "rings.fraction_field.mul", "rings.rational_roots",
    "verify.verify_corollary", "verify.verify_eigen_identity", "numeric.integrate_kernel",
    "numeric.eigen_residual", "numeric.bessel_change_check",
)


def layer_metrics(tracer, loop: Loop, overhead: float) -> dict:
    recs = loop.records
    n = len(recs)
    m = {f"{name}.calls": (tracer.calls(name) / n, "calls/verdict") for name in _PER_VERDICT_CALLS}
    m.update({f"{name}.self_s": (tracer.self_s(name) / n, "s/verdict")
              for name in _PER_VERDICT_SELF_S})

    nullspace_s = tracer.total_s("linalg.nullspace")
    search_s = tracer.total_s("centralizer.find_commuting_operator")
    searches = tracer.calls("centralizer.find_commuting_operator") - tracer.errors(
        "centralizer.find_commuting_operator")
    builds = tracer.calls("centralizer.build_ansatz_system")
    systems = tracer.systems
    largest = max(systems, key=lambda d: (d["rows"] * d["cols"], d["rows"]),
                  default={"rows": 0, "cols": 0, "nullity": 0})
    m.update({
        "fail_ratio": (loop.summary()["fail_ratio"], "ratio"),
        "linalg.nullspace.share": (nullspace_s / sum(r["seconds"] for r in recs), "ratio"),
        "linalg.nullspace.share_of_search": (nullspace_s / search_s if search_s else 0.0, "ratio"),
        "linalg.system.rows": (largest["rows"], "count"),
        "linalg.system.cols": (largest["cols"], "count"),
        "linalg.nullity": (largest["nullity"], "count"),
        "linalg.input_max_bits": (max((d["input_max_bits"] for d in systems), default=0), "bits"),
        "linalg.output_max_bits": (max((d["output_max_bits"] for d in systems), default=0), "bits"),
        "centralizer.degree_bound_useful_ratio": (searches / builds if builds else 0.0, "ratio"),
        "verify.branches.rational": (_props_mean(recs, "branches_rational"), "count/call"),
        "verify.branches.irrational": (_props_mean(recs, "branches_irrational"), "count/call"),
        "numeric.worst_residual_over_bound": (
            _props_extreme(recs, "residual_over_bound", max), "ratio"),
        "numeric.worst_bessel_over_bound": (
            _props_extreme(recs, "bessel_over_bound", max), "ratio"),
        "numeric.min_refinement_ratio_over_floor": (
            _props_extreme(recs, "refinement_ratio_over_floor", min), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _first_system_line(loop: Loop, tracer) -> str:
    """The first operation's ansatz system and where its time went."""
    first = tracer.systems[0]
    op = first["op"]
    op_rec = next(r for r in loop.records if r["op"] == op)

    def span_time(name):
        return sum(e - s for _, n, s, e, _, o in tracer.spans if n == name and o == op)

    nullspace = span_time("linalg.nullspace")
    search = span_time("centralizer.find_commuting_operator")
    return (f"first ansatz system ({op_rec['label']}): {first['rows']}x{first['cols']}, "
            f"nullity {first['nullity']}, entry bits in {first['input_max_bits']} "
            f"out {first['output_max_bits']}; nullspace {nullspace:.3f} s = "
            f"{nullspace / search:.1%} of the partner search, "
            f"{nullspace / op_rec['seconds']:.1%} of the operation")


def _write_report(args, seed, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path


def run_workload(args) -> int:
    try:
        setup_s, sp, wl, items, seed = _setup(args.workload, args.seed, args.smoke)
    except ImportError as exc:
        return _fail(f"cannot import the package from {SRC}: {exc}")
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    machine = machine_info()
    print(f"# workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{len(items)} inputs, closed loop, one client, one process")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    report = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}

    ungated = {}
    if not args.trace:
        setups = [setup_s] + _probe_setups(args)
        calibration = Calibration()
        loop = Loop(wl, items, seed, calibration=calibration)
        passes = loop.run_passes(args.seconds)
        measured = loop.item_times()
        at_ref = loop.item_times(at_ref=True)
        slowdown = calibration.slowdown()
        # as measured, printed with the metrics but not gated: see perfbench/README.md
        ungated = {
            "verdicts_per_s": (len(measured) / sum(measured), "1/s"),
            "verdict_s_p50": (statistics.median(measured), "s"),
            "verdict_s_max": (max(measured), "s"),
            "fail_ratio": (loop.summary()["fail_ratio"], "ratio"),
            "slowdown": (slowdown, "ratio"),
        }
        values = {
            "setup_s": statistics.median(setups),
            "verdicts_per_s_at_ref": len(at_ref) / sum(at_ref),
            "verdict_s_p50_at_ref": statistics.median(at_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        report.update(setup_samples_s=setups, calibration_samples_s=calibration.samples,
                      as_measured={k: v for k, (v, _) in ungated.items()})
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(sp)
        try:
            loop = Loop(wl, items, seed, tracer)
            passes = loop.run_passes(args.seconds)
        finally:
            tracer.uninstall()
        # untraced reference after the traced passes, so that both sides find
        # the caches warm: each first input's last traced repeat against one
        # untraced repeat
        last_traced = {r["item"]: r["seconds"] for r in loop.records}
        ref = Loop(wl, items, seed)
        ref_times = {}
        for idx in range(len(items)):
            ref_times[idx] = ref.run_one(idx, passes, keep=False)["seconds"]
            if sum(ref_times.values()) >= REF_SECONDS:
                break
        overhead = sum(last_traced[i] for i in ref_times) / sum(ref_times.values())
        metrics = layer_metrics(tracer, loop, overhead)
        report["systems"] = tracer.systems
        report["layer_totals"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "raised": v[3]}
                                  for k, v in sorted(tracer.stats.items())}
        report["spans"] = tracer.span_records()
        if tracer.systems:
            print(f"# {_first_system_line(loop, tracer)}")

    summary = loop.summary()
    op_times = [r["seconds"] for r in loop.records]
    report.update(records=loop.records, controls=loop.controls, passes=passes,
                  summary=summary, metrics=metrics)
    path = _write_report(args, seed, report)
    print(f"# {len(op_times)} verdicts in {passes} pass(es), {sum(op_times):.3f} s of verdicts; "
          f"{len(loop.controls)} known-false controls; report {path.relative_to(ROOT)}")
    for line in _input_shares(loop.records):
        print(f"# {line}")
    for k, v in metrics.items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    for k, (v, u) in ungated.items():
        print(f"# {k} = {v:.6g} {u}")
    if ungated:
        print(f"# verdict times are per input the median of its repeats, "
              f"over {len(loop.item_times())} inputs")
    print(f"# failed {summary['failed']}/{summary['attempted']}; "
          f"{summary['gate_misses']} residuals over their gate (in fail_ratio)")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


_VALUE_LINE = re.compile(r"# (\S+) = (\S+) (\S+)")
_SUMMARY = ("setup_s", "verdicts_per_s_at_ref", "verdict_s_p50_at_ref", "verdicts_per_s",
            "verdict_s_p50", "verdict_s_max", "fail_ratio", "peak_rss_mb")


def run_all(args) -> int:
    """Every workload in its own process, then one summary line each."""
    results, summary = {}, []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        printed = {m.group(1): m.group(2, 3) for m in map(_VALUE_LINE.match, lines) if m}
        cells = [f"{k}={printed[k][0]} {printed[k][1]}" for k in _SUMMARY if k in printed]
        summary.append(f"# {name}: " + ", ".join(cells))
    print("# summary")
    print("\n".join(summary))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: spectral_pairs.verify.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum measured time; whole input passes are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input set, for the benchmark's smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # one client: keep BLAS to one thread, within nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "spectral_pairs" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'spectral_pairs'}; "
                     "run from the root of a spectral-pairs checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
