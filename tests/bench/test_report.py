"""Tests for the JSON experiment reports."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.bench.harness import DetectorRun
from repro.bench.report import (
    detector_run_record,
    read_report,
    write_report,
)
from repro.core.metrics import DetectionMetrics


def make_run():
    return DetectorRun(
        detector_name="stub",
        suite_name="iccad",
        train_seconds=1.25,
        metrics=DetectionMetrics(8, 2, 3, 87, evaluation_seconds=0.5),
    )


class TestDetectorRunRecord:
    def test_fields(self):
        record = detector_run_record(make_run())
        assert record["detector"] == "stub"
        assert record["accuracy"] == pytest.approx(0.8)
        assert record["false_alarms"] == 3
        assert record["odst_seconds"] == pytest.approx(110.5)


class TestWriteRead:
    def test_roundtrip_runs(self, tmp_path):
        path = write_report(tmp_path / "t2.json", "table2", [make_run()])
        document = read_report(path)
        assert document["experiment"] == "table2"
        assert document["results"][0]["suite"] == "iccad"

    def test_roundtrip_arbitrary_structures(self, tmp_path):
        results = {
            "curve": np.array([1.0, 2.0]),
            "points": [(1, 2.5)],
            "count": np.int64(7),
        }
        path = write_report(
            tmp_path / "x.json", "fig3", results, metadata={"scale": 0.015}
        )
        document = read_report(path)
        assert document["results"]["curve"] == [1.0, 2.0]
        assert document["results"]["count"] == 7
        assert document["metadata"]["scale"] == 0.015

    def test_creates_parent_dirs(self, tmp_path):
        path = write_report(tmp_path / "deep" / "dir" / "r.json", "fig1", [])
        assert path.exists()

    def test_empty_name_raises(self, tmp_path):
        with pytest.raises(ReproError):
            write_report(tmp_path / "r.json", "", [])

    def test_unserialisable_raises(self, tmp_path):
        with pytest.raises(ReproError):
            write_report(tmp_path / "r.json", "x", object())

    def test_read_validates_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ReproError):
            read_report(bad)


class TestTrackedArtifact:
    def test_bench_active_json_passes_its_validator(self):
        # The tracked label-budget record must still parse under the
        # schema the benchmark that writes it checks.
        root = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "bench_active", root / "benchmarks" / "bench_active.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        document = bench.validate_active_report(root / "BENCH_active.json")
        assert document["results"]["strategies"]
