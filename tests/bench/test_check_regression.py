"""Unit tests for scripts/check_bench_regression.py.

The script lives outside the package (it is a CI entry point with no
repro dependency), so it is loaded by file path via importlib.
"""

import importlib.util
import io
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parents[2] / "scripts" / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def envelope(results):
    return {
        "experiment": "timing",
        "metadata": {"host": "test"},
        "results": results,
    }


def timing_results(rps=1000.0, p95=0.01):
    return {
        "configs": [
            {
                "max_batch": 32,
                "requests": 100,
                "seconds": 1.0,
                "requests_per_second": rps,
                "p95_latency_s": p95,
                "mean_batch_size": 4.0,
            }
        ],
    }


#: An artifact name with no per-artifact schema rules.
ARTIFACT = "BENCH_other.json"


def write_artifacts(directory, name, document):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(document))


class TestNumericLeaves:
    def test_walks_nested_structures(self):
        leaves = dict(
            checker.numeric_leaves(
                {"a": {"b": 1}, "c": [2.5, {"d": 3}], "skip": "text"}
            )
        )
        assert leaves == {("a", "b"): 1.0, ("c", "0"): 2.5, ("c", "1", "d"): 3.0}

    def test_booleans_are_not_metrics(self):
        assert list(checker.numeric_leaves({"flag": True})) == []


class TestDirection:
    @pytest.mark.parametrize(
        "leaf, sense",
        [
            ("requests_per_second", "higher"),
            ("ids_on_rps", "higher"),
            ("throughput", "higher"),
            ("p95_latency_s", "lower"),
            ("scan_seconds", "lower"),
            ("mean_batch_size", None),
            ("max_batch", None),
        ],
    )
    def test_heuristics(self, leaf, sense):
        assert checker.direction(("results", leaf)) == sense


class TestCompareDocuments:
    def test_identical_documents_are_clean(self):
        doc = envelope(timing_results())
        assert checker.compare_documents(doc, doc, tolerance=0.25) == []

    def test_throughput_regression_beyond_tolerance_fails(self):
        base = envelope(timing_results(rps=1000.0))
        fresh = envelope(timing_results(rps=700.0))  # 30% drop
        problems = checker.compare_documents(base, fresh, tolerance=0.25)
        assert any("requests_per_second" in p for p in problems)

    def test_throughput_drop_within_tolerance_passes(self):
        base = envelope(timing_results(rps=1000.0))
        fresh = envelope(timing_results(rps=800.0))  # 20% drop
        assert checker.compare_documents(base, fresh, tolerance=0.25) == []

    def test_latency_regression_fails(self):
        base = envelope(timing_results(p95=0.010))
        fresh = envelope(timing_results(p95=0.020))  # 2x slower
        problems = checker.compare_documents(base, fresh, tolerance=0.25)
        assert any("p95" in p for p in problems)

    def test_improvements_never_fail(self):
        base = envelope(timing_results(rps=1000.0, p95=0.010))
        fresh = envelope(timing_results(rps=5000.0, p95=0.001))
        assert checker.compare_documents(base, fresh, tolerance=0.25) == []

    def test_missing_metric_is_a_problem(self):
        base = envelope(timing_results())
        fresh = envelope({"configs": []})
        problems = checker.compare_documents(base, fresh, tolerance=0.25)
        assert any("missing metric" in p for p in problems)


class TestCheckSchema:
    def test_missing_envelope_key_fails(self):
        doc = envelope(timing_results())
        del doc["metadata"]
        problems = checker.check_schema(Path(ARTIFACT), doc)
        assert any("metadata" in p for p in problems)

    def test_kernels_artifact_needs_quant_section(self):
        doc = {
            "experiment": "kernels",
            "metadata": {"host": "test"},
            "results": {"conv": {"fast_ms": 1.0}},
        }
        problems = checker.check_schema(Path("BENCH_kernels.json"), doc)
        assert any("quant" in p for p in problems)

    def test_unknown_artifact_needs_only_the_envelope(self):
        doc = envelope({"scan_seconds": 1.0})
        assert checker.check_schema(Path(ARTIFACT), doc) == []

    def test_metricless_results_fail(self):
        doc = envelope({"note": "nothing numeric"})
        problems = checker.check_schema(Path("BENCH_other.json"), doc)
        assert any("no numeric" in p for p in problems)


class TestRun:
    def test_schema_only_over_real_baselines_passes(self):
        out = io.StringIO()
        code = checker.run(
            checker.REPO_ROOT, None, tolerance=0.25, schema_only=True, out=out
        )
        assert code == 0, out.getvalue()

    def test_fresh_comparison_flags_regression(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        write_artifacts(
            base_dir, ARTIFACT, envelope(timing_results(rps=1000.0))
        )
        write_artifacts(
            fresh_dir, ARTIFACT, envelope(timing_results(rps=100.0))
        )
        out = io.StringIO()
        code = checker.run(
            base_dir, fresh_dir, tolerance=0.25, schema_only=False, out=out
        )
        assert code == 1
        assert "requests_per_second" in out.getvalue()

    def test_fresh_comparison_clean_passes(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        doc = envelope(timing_results())
        write_artifacts(base_dir, ARTIFACT, doc)
        write_artifacts(fresh_dir, ARTIFACT, doc)
        code = checker.run(
            base_dir, fresh_dir, tolerance=0.25, schema_only=False,
            out=io.StringIO(),
        )
        assert code == 0

    def test_missing_fresh_artifact_is_skipped(self, tmp_path):
        base_dir = tmp_path / "base"
        (tmp_path / "fresh").mkdir()
        write_artifacts(
            base_dir, ARTIFACT, envelope(timing_results())
        )
        out = io.StringIO()
        code = checker.run(
            base_dir, tmp_path / "fresh", tolerance=0.25, schema_only=False,
            out=out,
        )
        assert code == 0
        assert "skip" in out.getvalue()

    def test_empty_baseline_dir_is_usage_error(self, tmp_path):
        code = checker.run(
            tmp_path, None, tolerance=0.25, schema_only=True, out=io.StringIO()
        )
        assert code == 2

    def test_corrupt_baseline_fails(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        code = checker.run(
            tmp_path, None, tolerance=0.25, schema_only=True, out=io.StringIO()
        )
        assert code == 1


class TestMain:
    def test_requires_fresh_or_schema_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            checker.main([])
        assert exc.value.code == 2

    def test_tolerance_bounds_enforced(self):
        with pytest.raises(SystemExit) as exc:
            checker.main(["--schema-only", "--tolerance", "1.5"])
        assert exc.value.code == 2

    def test_schema_only_happy_path(self):
        # Output content is pinned via run(out=StringIO) above; main()'s
        # contract here is the exit code over the real repo baselines.
        assert checker.main(["--schema-only"]) == 0
