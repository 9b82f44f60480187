"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "tests"
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _report(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_emits_every_declared_metric_with_its_unit():
    report = _report(_bench("--workload", "all", "--seed", "1", "--seconds", "0", "--smoke"))
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 8
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    for workload in WORKLOADS:
        for name, unit in declared.items():
            got = report["metrics"].get(f"{workload}/{name}")
            assert got is not None, f"{workload}/{name} missing"
            assert got["unit"] == unit and isinstance(got["value"], (int, float))
    for metric in spec["end_to_end"]:
        assert report["metrics"][f"solve-lognormal/{metric['name']}"]["value"] > 0


def test_corrupted_reference_makes_invocations_fail(capsys):
    refs = SCRATCH / "ref"
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(HERE / "ref", refs)
    trajectory = refs / "smoke" / "solve-lognormal" / "trajectory.csv"
    lines = trajectory.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[5] = ",".join(cells)
    trajectory.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = run.run_workload("solve-lognormal", 1, 0, True, True, refs)
    assert not report["correct"]
    assert report["failed"] >= 1
    assert report["metrics"]["failed_frac"]["value"] > 0
    assert "trajectory.csv: max gap" in capsys.readouterr().out


def test_benchmark_without_sources_exits_nonzero_and_prints_no_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench("--workload", "solve-lognormal", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Layer:
    @staticmethod
    def outer(inner_calls):
        for _ in range(inner_calls):
            _Layer.inner()
        return inner_calls

    @staticmethod
    def inner():
        return sum(range(1000))


def test_tracer_separates_self_time_and_restores_originals():
    original = _Layer.__dict__["inner"]
    tracer = Tracer()
    undo = [tracer.wrap(_Layer, "outer", "layer.outer", coarse=True),
            tracer.wrap(_Layer, "inner", "layer.inner")]
    try:
        assert _Layer.outer(3) == 3
    finally:
        for step in reversed(undo):
            step()
    assert _Layer.__dict__["inner"] is original
    assert tracer.calls == {"layer.outer": 1, "layer.inner": 3}
    assert tracer.pairs[("layer.outer", "layer.inner")] == 3
    outer_self = tracer.total["layer.outer"] - tracer.total["layer.inner"]
    assert tracer.self_time["layer.outer"] == pytest.approx(outer_self)
    assert tracer.self_time["layer.inner"] == pytest.approx(tracer.total["layer.inner"])
    (name, start, end, parent), = tracer.spans
    assert name == "layer.outer" and parent is None and end - start == pytest.approx(
        tracer.total["layer.outer"])
