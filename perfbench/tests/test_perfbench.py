"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The smoke test runs every workload end to end on tiny inputs (about a
minute); the rest check the harness pieces and the refusal paths.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
        check=False,
    )


def _copy_benchmark(target: Path) -> None:
    shutil.copy2(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR,
        target / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )


def test_smoke_mode_matches_benchmark_json():
    done = _run(ROOT, "--smoke")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"smoke": "passed"}


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    done = _run(
        tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert "no program sources" in done.stderr


def test_refuses_a_fixture_that_does_not_match_its_digest(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    manifest_path = tmp_path / "perfbench" / "fixture" / "model.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    done = _run(
        tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode == 2
    assert "correct" not in done.stdout
    assert "does not match" in done.stderr


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert harness.tail_sample_count(75.0) == 40
    assert harness.tail_sample_count(98.0) == 500
    samples = [float(i) for i in range(1, 41)]
    assert harness.nearest_rank(samples, 75.0) == 30.0
    assert sum(s > 30.0 for s in samples) == 10
    with pytest.raises(harness.BenchError):
        harness.latency_metrics(samples[:39], 75.0)
    # Workloads with a handful of long ops take the slowest as their tail.
    assert harness.tail_sample_count(100.0) == 1
    assert harness.latency_metrics([0.2, 0.3, 0.1], 100.0) == pytest.approx(
        {"p50_ms": 200.0, "tail_ms": 300.0}
    )


def test_every_run_reports_every_metric_of_its_kind():
    end_to_end = harness.metric_names("end_to_end")
    per_layer = harness.metric_names("per_layer")
    values = {name: 1.0 for name in end_to_end}
    assert list(harness.complete_metrics(values, trace=False)) == end_to_end
    del values["accuracy"]
    with pytest.raises(harness.BenchError, match="accuracy"):
        harness.complete_metrics(values, trace=False)
    # A traced run reports 0 for layers its workload never reaches.
    measured = {per_layer[0]: 0.5}
    completed = harness.complete_metrics(measured, trace=True)
    assert list(completed) == per_layer
    assert completed[per_layer[0]] == 0.5
    assert all(completed[name] == 0.0 for name in per_layer[1:])
    assert harness.not_exercised(measured) == per_layer[1:]
    with pytest.raises(harness.BenchError, match="missing"):
        harness.complete_metrics({"no.such_s": 1.0}, trace=True)


def test_trace_self_times_residual_and_reconciliation():
    trace = harness.Trace()
    op = trace.add_op("op", 1.0)
    stage = trace.attach(op, "stage", 0.95)
    trace.attach(stage, "child", 0.5)
    assert trace.per_op("stage") == pytest.approx(0.95)
    assert trace.per_op("stage", self_time=True) == pytest.approx(0.45)
    assert trace.residual_per_op() == pytest.approx(0.05)
    assert trace.reconciles()
    overrun = harness.Trace()
    stage = overrun.attach(overrun.add_op("op", 1.0), "stage", 0.95)
    overrun.attach(stage, "child", 1.2)  # a child longer than its parent
    assert not overrun.reconciles()
    loose = harness.Trace()
    loose.attach(loose.add_op("op", 1.0), "stage", 0.5)
    assert not loose.reconciles()  # half the op unattributed
    table = loose.stage_table()
    assert "residual" in table and "reconciles within 10%: False" in table


def test_every_declared_metric_is_well_formed():
    spec = harness.load_benchmark()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == {"scan", "eco", "serve", "train"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
