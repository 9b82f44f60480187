"""fluidq benchmark: end-to-end and per-layer metrics of the JSON CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a fluidq checkout; fluidq is imported from its src/.
Each invocation of `fluidq.cli.main` runs in a fresh process, one at a time
(a closed loop with one caller), until S seconds have passed.  Set-up time is
taken from extra processes that only import fluidq and parse the config.
Both times are scaled to the reference host's speed (see `scaled`).  Outputs are checked after each invocation,
outside the timed region.  With --trace 1, untraced and traced invocations
alternate and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload with and
without tracing and reports every metric, keyed workload/metric.
--smoke shrinks every workload to a size that runs in about a second.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REF_DIR, WORKLOADS, nominal_customers, reference_dir, write_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 4          # set-up-only processes per run
MIN_INVOCATIONS = 3       # untraced invocations per run, however long they take
INVOCATION_TIMEOUT_S = 150
# worker.calibrate() and the worker's --deps-only import on the reference
# host, a 2-vCPU VM, at its usual speed.
REF_CAL_S = 0.011
REF_DEPS_S = 0.28

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "distributions.integrated_sf_inverse.calls": "count",
    "distributions.integrated_sf_inverse.self_s": "s",
    "distributions.integrated_sf.calls": "count",
    "distributions.integrated_sf.self_s": "s",
    "distributions.isf_evals_per_inverse": "ratio",
    "distributions.cdf.calls": "count",
    "distributions.cdf.self_s": "s",
    "distributions.sf.calls": "count",
    "distributions.sf.self_s": "s",
    "distributions.sample.draws": "count",
    "distributions.sample.s": "s",
    "distributions.sample.share": "ratio",
    "distributions.cdf_evals_per_draw": "ratio",
    "fluid.solve.s": "s",
    "fluid.solve.self_s": "s",
    "fluid.solve.self_share": "ratio",
    "fluid.steps": "count",
    "fluid.survival_at_offered_wait.calls": "count",
    "fluid.survival_at_offered_wait.s": "s",
    "fluid.survival_at_offered_wait.share": "ratio",
    "fluid.survival_calls_per_step": "ratio",
    "fluid.measures_at.calls": "count",
    "fluid.measures_at.s": "s",
    "fluid.measures_at.cells": "count",
    "measures.sup_distance.calls": "count",
    "measures.sup_distance.s": "s",
    "measures.from_samples.calls": "count",
    "measures.from_samples.s": "s",
    "measures.inverse_tail.calls": "count",
    "measures.inverse_tail.s": "s",
    "equilibrium.equilibrium_state.calls": "count",
    "equilibrium.equilibrium_state.s": "s",
    "simulator.run.calls": "count",
    "simulator.run.s": "s",
    "simulator.run.self_s": "s",
    "simulator.arrivals": "count",
    "simulator.events": "count",
    "simulator.events_per_s": "1/s",
    "simulator.abandon_frac": "ratio",
    "simulator.compare_to_fluid.s": "s",
    "simulator.compare_to_fluid.self_s": "s",
    "simulator.fluid_scale.s": "s",
    "simulator.share": "ratio",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.parse_config.s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
    "fluid_steps_per_s": "1/s",
    "sim_customers_per_s": "1/s",
    "failed_frac": "ratio",
}


class Run:
    """One workload at one seed: its config, reference, output directory and records."""

    def __init__(self, name: str, seed: int, smoke: bool, ref_root: Path):
        self.workload = WORKLOADS[name]
        self.cfg = self.workload.config(seed, smoke)
        self.ref = reference_dir(ref_root, name, smoke)
        self.dir = OUT_ROOT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        self.config_path = self.dir / "config.json"
        self.dir.mkdir(parents=True)
        write_config(self.config_path, self.cfg)
        self.setup_s, self.deps_s = [], []
        self.context = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _worker(self, *extra: str) -> dict:
        """Run the worker once; returns its result, or a result holding the error."""
        result_path = self.dir / "result.json"
        result_path.unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "QF_THREADS"}
        cmd = [sys.executable, str(WORKER), "--src", str(SRC), "--config",
               str(self.config_path), "--out", str(self.out), "--result", str(result_path),
               *extra]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"no result within {INVOCATION_TIMEOUT_S} s"}
        if not result_path.exists():
            return {"error": f"worker exited with {proc.returncode}: {proc.stderr.strip()}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if proc.returncode != 0 and result.get("error") is None:
            result["error"] = f"worker exited with {proc.returncode}"
        return result

    def probe_setup(self) -> None:
        result, deps = self._worker("--setup-only"), self._worker("--deps-only")
        for r in (result, deps):
            if r.get("error"):
                raise SystemExit(f"set-up failed:\n{r['error']}")
        self.setup_s.append(result["setup_s"])
        self.deps_s.append(deps["deps_s"])
        self.context = self.context or result["context"]

    def invoke(self, trace: bool) -> dict | None:
        """One gated invocation; returns its result, or None when it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        trace_path = self.dir / "trace.json"
        result = self._worker(*(["--trace", str(trace_path)] if trace else []))
        self.attempted += 1
        problems = []
        if result.get("error"):
            problems.append(result["error"])
        elif result["exit_code"] != 0:
            problems.append(f"fluidq exited with code {result['exit_code']}")
        else:
            result["wall_unscaled_s"] = result["wall_s"]
            result["wall_s"] = scaled(result["wall_s"], statistics.mean(result["cal_s"]),
                                      REF_CAL_S)
            problems = self.workload.gate(self.out, self.cfg, self.ref)
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        result["bytes_written"] = sum(p.stat().st_size for p in self.out.iterdir())
        if trace:
            result["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
        return result


def scaled(seconds: float, calibration_s: float, reference_s: float) -> float:
    """A time in seconds of the reference host.

    The host's speed drifts by up to a third over minutes, longer than a run,
    so each time is scaled by a fixed task's time on the reference host over
    its time next to the measurement.  For a call, that task is the worker's
    calibration loop, timed just before and just after it.  For the set-up,
    whose imports are slowed by other phases than the loop, it is importing
    fluidq's heavy dependencies in a fresh process, right after each set-up
    probe; the run's median set-up is scaled by the median of those imports.
    """
    return seconds * reference_s / calibration_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced invocation."""
    calls, total, self_s, counts = (trace[k] for k in ("calls", "total_s", "self_s", "counts"))
    pairs = {(a, b): n for a, b, n in trace["pairs"]}
    main_s = total.get("cli.main", 0.0)
    by_stat = {"calls": calls, "s": total, "self_s": self_s}
    m = {}
    for key in PER_LAYER:  # <traced name>.calls, .s and .self_s come straight from the tracer
        name, _, stat = key.rpartition(".")
        if stat in by_stat:
            m[key] = by_stat[stat].get(name, 0)

    inverses = calls.get("distributions.integrated_sf_inverse", 0)
    draws = counts.get("distributions.sample.draws", 0)
    steps = counts.get("fluid.steps", 0)
    arrivals = counts.get("simulator.arrivals", 0)
    events = arrivals + counts.get("simulator.completions", 0)
    m.update({
        "distributions.isf_evals_per_inverse": _ratio(
            pairs.get(("distributions.integrated_sf_inverse", "distributions.integrated_sf"), 0),
            inverses),
        "distributions.sample.draws": draws,
        "distributions.cdf_evals_per_draw": _ratio(
            pairs.get(("distributions.sample", "distributions.cdf"), 0), draws),
        "fluid.steps": steps,
        "fluid.survival_calls_per_step": _ratio(
            calls.get("fluid.survival_at_offered_wait", 0), steps),
        "fluid.measures_at.cells": counts.get("fluid.measures_at.cells", 0),
        "simulator.arrivals": arrivals,
        "simulator.events": events,
        "simulator.events_per_s": _ratio(events, m["simulator.run.s"]),
        "simulator.abandon_frac": _ratio(counts.get("simulator.abandoned", 0), arrivals),
        "fluid.survival_at_offered_wait.share": _ratio(
            m["fluid.survival_at_offered_wait.s"], main_s),
        "distributions.sample.share": _ratio(m["distributions.sample.s"], main_s),
        "fluid.solve.self_share": _ratio(m["fluid.solve.self_s"], m["fluid.solve.s"]),
        "simulator.share": _ratio(m["simulator.run.s"] + m["simulator.compare_to_fluid.s"],
                                  main_s),
    })
    return m


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _line(name: str, value, unit: str, samples: list | None = None) -> None:
    text = f"  {name:45s} {value:14.6g} {unit}"
    if samples:
        lo, hi = _quartiles(samples)
        text += f"   (median of {len(samples)}; quartiles {lo:.6g} .. {hi:.6g})"
    print(text)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 ref_root: Path) -> dict:
    run = Run(name, seed, smoke, ref_root)
    for _ in range(1 if smoke else SETUP_PROBES):
        run.probe_setup()
    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    least = 1 if trace or smoke else MIN_INVOCATIONS
    while run.failed < MIN_INVOCATIONS:  # past that, the failures are reported as they are
        if (len(untraced) >= least and (traced or not trace)
                and time.monotonic() >= deadline):
            break
        traced_turn = trace and len(traced) < len(untraced)
        result = run.invoke(traced_turn)
        if result is not None:
            (traced if traced_turn else untraced).append(result)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{'smoke' if smoke else 'full'} size")
    print(f"  why: {run.workload.why}")
    print("  context: " + json.dumps({**run.context, "git_commit": _git_commit(),
                                      "seed": seed, "config": run.cfg}, sort_keys=True))
    for problem in dict.fromkeys(run.problems):
        print(f"  FAILED: {problem}")
    failed_frac = run.failed / run.attempted
    walls = [r["wall_s"] for r in untraced]
    e2e = {}
    if walls:
        samples = {"wall_s": walls, "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        e2e = {k: statistics.median(v) for k, v in samples.items()}
        e2e["setup_s"] = scaled(statistics.median(run.setup_s), statistics.median(run.deps_s),
                                REF_DEPS_S)
        print("  end-to-end (tracing off):")
        for key, unit in END_TO_END.items():
            _line(key, e2e[key], unit, samples.get(key))
        unscaled = [r["wall_unscaled_s"] for r in untraced]
        _line("wall_s unscaled", statistics.median(unscaled), "s", unscaled)
        _line("setup_s unscaled", statistics.median(run.setup_s), "s", run.setup_s)
        _line("dependency import", statistics.median(run.deps_s), "s", run.deps_s)
    metrics = e2e
    if trace:
        metrics = {"failed_frac": failed_frac}
        if traced and walls:
            per_call = [layer_metrics(r["trace"]) for r in traced]
            metrics.update({k: statistics.median(m[k] for m in per_call) for k in per_call[0]})
            wall = e2e["wall_s"]
            steps = round(run.cfg["horizon"] / run.cfg["dt"]) if "profile_times" in run.cfg else 0
            customers = nominal_customers(run.cfg) if "n" in run.cfg else 0.0
            metrics.update({
                "cli.bytes_written": statistics.median(r["bytes_written"] for r in traced),
                "trace.overhead_frac": statistics.median(r["wall_s"] for r in traced) / wall - 1.0,
                "fluid_steps_per_s": steps / wall,
                "sim_customers_per_s": customers / wall,
            })
        print(f"  per-layer (median of {len(traced)} traced invocations):")
        for key in PER_LAYER:
            if key in metrics:
                _line(key, metrics[key], PER_LAYER[key])
        if run.workload.dominant in metrics:
            print(f"  dominant layer: {run.workload.dominant} = "
                  f"{metrics[run.workload.dominant]:.1%} "
                  f"(predicted {run.workload.predicted_share:.0%})")
    else:
        _line("failed_frac", failed_frac, PER_LAYER["failed_frac"])
    unit = PER_LAYER if trace else END_TO_END
    return {"correct": run.failed == 0 and set(metrics) == set(unit),
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "fluidq" / "cli.py").is_file():
        print(f"error: no fluidq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the gates' RK4 oracle comes from the same sources

    if args.workload != "all":
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke, REF_DIR)
    else:
        report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (False, True):
                part = run_workload(name, args.seed, args.seconds, trace, args.smoke, REF_DIR)
                report["correct"] &= part["correct"]
                report["attempted"] += part["attempted"]
                report["failed"] += part["failed"]
                report["metrics"].update(
                    {f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
