"""JSONL round-trip: sink -> run log -> loaded events -> report."""

import json

import pytest

from repro.cli import main
from repro.exceptions import ObservabilityError
from repro.obs import (
    EventBus,
    JsonlSink,
    format_report,
    load_run_log,
    summarize_spans,
)
from repro.obs.report import last_metrics_snapshot, validate_record


def write_log(path, emitter):
    bus = EventBus()
    bus.attach(JsonlSink(path))
    emitter(bus)
    bus.close()


class TestRoundTrip:
    def test_events_survive_serialisation(self, tmp_path):
        path = tmp_path / "run.jsonl"

        def emitter(bus):
            bus.emit("scan.complete", windows=81, seconds=1.5)
            bus.emit("span", level="debug", span="scan", path="scan",
                     seconds=1.2, status="ok")

        write_log(path, emitter)
        events = load_run_log(path)
        assert [e.name for e in events] == ["scan.complete", "span"]
        assert events[0].attrs["windows"] == 81
        assert events[1].level == "debug"

    def test_numpy_attrs_are_coerced(self, tmp_path):
        import numpy as np

        path = tmp_path / "run.jsonl"
        write_log(
            path,
            lambda bus: bus.emit(
                "x", count=np.int64(3), rate=np.float64(2.5),
                values=np.arange(2),
            ),
        )
        (event,) = load_run_log(path)
        assert event.attrs == {"count": 3, "rate": 2.5, "values": [0, 1]}

    def test_jsonl_sink_takes_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            bus = EventBus()
            bus.attach(JsonlSink(handle))
            bus.emit("x")
            bus.close()  # must NOT close a caller-owned stream
            assert not handle.closed
        assert len(load_run_log(path)) == 1


class TestValidation:
    def test_invalid_json_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "time_s": 1, "level": "info", '
                        '"attrs": {}}\n{broken\n')
        with pytest.raises(ObservabilityError, match="bad.jsonl:2"):
            load_run_log(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"time_s": 1, "level": "info", "attrs": {}},          # no name
            {"name": "", "time_s": 1, "level": "info", "attrs": {}},
            {"name": "x", "level": "info", "attrs": {}},          # no time
            {"name": "x", "time_s": "later", "level": "info", "attrs": {}},
            {"name": "x", "time_s": 1, "level": "shout", "attrs": {}},
            {"name": "x", "time_s": 1, "level": "info"},          # no attrs
            {"name": "x", "time_s": 1, "level": "info", "attrs": []},
            ["not", "an", "object"],
        ],
    )
    def test_malformed_records_fail_loudly(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ObservabilityError):
            load_run_log(path)

    def test_validate_record_passes_good_record(self):
        record = {"name": "x", "time_s": 1.0, "level": "info", "attrs": {}}
        assert validate_record(record) is record

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('\n{"name": "x", "time_s": 1, "level": "info", '
                        '"attrs": {}}\n\n')
        assert len(load_run_log(path)) == 1


class TestSummaries:
    def make_log(self, tmp_path):
        path = tmp_path / "run.jsonl"

        def emitter(bus):
            for seconds in (0.2, 0.4):
                bus.emit("span", level="debug", span="scan.inference",
                         path="scan/scan.inference", seconds=seconds,
                         status="ok")
            bus.emit("span", level="debug", span="scan", path="scan",
                     seconds=1.0, status="error")
            bus.emit(
                "metrics.snapshot", level="debug",
                counters={"scan.windows": 81},
                gauges={"scan.windows_per_second": 54.0},
                histograms={
                    "scan.raster.seconds": {
                        "count": 9, "total": 0.9, "mean": 0.1, "min": 0.05,
                        "max": 0.2, "p50": 0.1, "p95": 0.2, "samples": [0.1],
                    }
                },
            )

        write_log(path, emitter)
        return path

    def test_summarize_spans(self, tmp_path):
        stages = summarize_spans(load_run_log(self.make_log(tmp_path)))
        inference = stages["scan/scan.inference"]
        assert inference["count"] == 2
        assert inference["total_s"] == pytest.approx(0.6)
        assert inference["mean_s"] == pytest.approx(0.3)
        assert inference["max_s"] == pytest.approx(0.4)
        assert stages["scan"]["errors"] == 1

    def test_last_metrics_snapshot(self, tmp_path):
        snapshot = last_metrics_snapshot(
            load_run_log(self.make_log(tmp_path))
        )
        assert snapshot["gauges"]["scan.windows_per_second"] == 54.0

    def test_format_report_sections(self, tmp_path):
        text = format_report(load_run_log(self.make_log(tmp_path)))
        assert "Stage timings" in text
        assert "scan/scan.inference" in text
        assert "scan.windows_per_second" in text
        assert "scan.raster.seconds" in text

    def test_format_report_empty(self):
        assert "empty" in format_report([])


class TestSelfTimeAndShare:
    """Self time is a path's total minus its direct child paths' totals;
    share is its total over the root paths' summed totals."""

    def make_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        spans = [
            ("farm.scan/scan.grid/scan.retry", 0.05),
            ("farm.scan/scan.grid", 0.25),
            ("farm.scan/scan.inference", 0.125),
            ("farm.scan", 0.5),
            ("farm.scan/scan.grid", 0.25),
            ("farm.scan/scan.inference", 0.125),
            ("farm.scan", 0.5),
            ("cli.load", 1.0),
            # A child whose parent path was not logged stands alone.
            ("orphan/leaf", 0.5),
        ]

        def emitter(bus):
            for span_path, seconds in spans:
                bus.emit("span", level="debug",
                         span=span_path.rsplit("/", 1)[-1], path=span_path,
                         seconds=seconds, status="ok")

        write_log(path, emitter)
        return load_run_log(path)

    def test_self_time_subtracts_direct_children_only(self, tmp_path):
        stages = summarize_spans(self.make_events(tmp_path))
        assert stages["farm.scan"]["self_s"] == pytest.approx(1.0 - 0.75)
        assert stages["farm.scan/scan.grid"]["self_s"] == pytest.approx(
            0.5 - 0.05
        )
        assert stages["farm.scan/scan.inference"]["self_s"] == pytest.approx(
            0.25
        )
        assert stages["cli.load"]["self_s"] == pytest.approx(1.0)
        assert stages["orphan/leaf"]["self_s"] == pytest.approx(0.5)

    def test_share_is_of_the_root_total(self, tmp_path):
        stages = summarize_spans(self.make_events(tmp_path))
        # Roots: farm.scan (1.0 s) and cli.load (1.0 s).
        assert stages["farm.scan"]["share"] == pytest.approx(0.5)
        assert stages["farm.scan/scan.grid"]["share"] == pytest.approx(0.25)
        assert stages["cli.load"]["share"] == pytest.approx(0.5)
        assert sum(
            stage["share"] for path, stage in stages.items() if "/" not in path
        ) == pytest.approx(1.0)

    def test_table_shows_both_columns(self, tmp_path):
        text = format_report(self.make_events(tmp_path))
        header = next(
            line for line in text.splitlines() if line.startswith("stage")
        )
        assert header.split() == [
            "stage", "count", "total_s", "self_s", "share", "mean_s",
            "max_s", "errors",
        ]
        grid = next(
            line.split() for line in text.splitlines()
            if line.startswith("farm.scan/scan.grid ")
        )
        assert grid[1:5] == ["2", "0.500", "0.450", "25.0%"]


class TestCliReport:
    def test_obs_report_command(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_log(path, lambda bus: bus.emit(
            "span", level="debug", span="scan", path="scan", seconds=0.5,
            status="ok"))
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Stage timings" in out
        assert "scan" in out

    def test_obs_report_malformed_log_fails(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(ObservabilityError):
            main(["obs", "report", str(path)])
