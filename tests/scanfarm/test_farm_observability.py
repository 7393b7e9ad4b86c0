"""Farm observability: shard trace trees, spill files, lost-shard books.

The lost-shard accounting contract under test: a shard whose worker
died gets a per-shard ``scan.shard.lost`` warning, its spilled partial
metrics merge under a ``shard_lost`` label (never into the unlabelled
series the re-run reports into), and the spill file is consumed so a
twice-lost shard cannot double-merge.
"""

import json
import os

import numpy as np
import pytest

from repro.data.fullchip import FullChipSpec, make_layout
from repro.geometry import Rect
from repro.obs.drift import DriftConfig, DriftMonitor, ReferenceProfile
from repro.scanfarm import ScanFarm
from repro.scanfarm.farm import _read_spill, _spill_path, _write_spill
from repro.scanfarm.sharding import RegionShard
from repro.testing import (
    TensorProbeDetector,
    reference_scan,
    scan_results_equal,
)


def make_chip():
    return make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=0))


def make_farm(**kwargs):
    return ScanFarm(TensorProbeDetector(), **kwargs)


def span_attrs(sink, name):
    return [
        e.attrs
        for e in sink.events
        if e.name == "span" and e.attrs.get("span") == name
    ]


class TestShardTraces:
    def test_shard_spans_join_the_scan_trace(
        self, fresh_registry, captured_events
    ):
        make_farm(workers=1).scan(make_chip())
        scans = span_attrs(captured_events, "farm.scan")
        shards = span_attrs(captured_events, "farm.shard")
        assert len(scans) == 1 and shards
        for shard in shards:
            assert shard["trace_id"] == scans[0]["trace_id"]
            assert shard["parent_id"] == scans[0]["span_id"]

    def test_pool_worker_spans_are_replayed_into_the_trace(
        self, fresh_registry, captured_events
    ):
        # With a real process pool the shard spans are born on a private
        # bus in another process; the parent must replay them with their
        # original trace ids intact.
        make_farm(workers=2, shards_per_worker=2).scan(make_chip())
        scans = span_attrs(captured_events, "farm.scan")
        shards = span_attrs(captured_events, "farm.shard")
        assert len(shards) >= 2
        assert {s["trace_id"] for s in shards} == {scans[0]["trace_id"]}
        # Inner pipeline spans (extract/inference) nest under shards.
        inner = span_attrs(captured_events, "scan.inference")
        assert inner
        shard_ids = {s["span_id"] for s in shards}
        assert all(s["parent_id"] in shard_ids for s in inner)

    def test_per_shard_metrics_merge(self, fresh_registry, captured_events):
        make_farm(workers=1).scan(make_chip())
        assert (
            fresh_registry.counter(
                "farm.shard.windows", labels={"shard": "0"}
            ).value
            > 0
        )
        assert fresh_registry.histogram("farm.shard.seconds").count >= 1


class TestSpillFiles:
    def test_round_trip_and_atomicity(self, tmp_path):
        payload = {"spill_dir": str(tmp_path)}
        path = _spill_path(payload, 3)
        assert path == str(tmp_path / "shard-3.json")
        snapshot = {"counters": {"scan.windows": 7}, "histograms": {}}
        _write_spill(path, 3, snapshot)
        assert not os.path.exists(path + ".tmp"), "tmp file must not linger"
        assert _read_spill(path) == {"shard": 3, "snapshot": snapshot}

    def test_spill_disabled_without_directory(self):
        assert _spill_path({}, 0) is None
        assert _read_spill(None) is None

    def test_unreadable_spill_is_best_effort_none(self, tmp_path):
        path = str(tmp_path / "shard-0.json")
        assert _read_spill(path) is None  # absent
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert _read_spill(path) is None  # corrupt
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([1, 2], handle)
        assert _read_spill(path) is None  # wrong shape


def one_window_shard(index=0):
    return RegionShard(
        index=index, region=Rect(0, 0, 100, 100), window_indices=(0, 1, 2)
    )


class TestLostShardAccounting:
    def test_lost_shard_merges_partial_under_label(
        self, tmp_path, fresh_registry, captured_events
    ):
        payload = {"spill_dir": str(tmp_path)}
        shard = one_window_shard(index=5)
        snapshot = {
            "counters": {"scan.windows": 2},
            "gauges": {},
            "histograms": {},
        }
        _write_spill(_spill_path(payload, 5), 5, snapshot)

        ScanFarm._report_lost_shard(payload, shard)

        # Partial work lands ONLY in the labelled series.
        labelled = fresh_registry.counter(
            "scan.windows", labels={"shard_lost": "5"}
        )
        assert labelled.value == 2
        assert fresh_registry.counter("scan.windows").value == 0
        assert fresh_registry.counter("farm.shards_lost").value == 1
        lost = [e for e in captured_events.events if e.name == "scan.shard.lost"]
        assert len(lost) == 1 and lost[0].level == "warning"
        assert lost[0].attrs["shard"] == 5
        assert lost[0].attrs["windows"] == 3
        assert lost[0].attrs["partial_metrics"] is True
        # The spill was consumed: reporting the same loss again cannot
        # merge the same partial twice.
        assert _read_spill(_spill_path(payload, 5)) is None
        ScanFarm._report_lost_shard(payload, shard)
        assert labelled.value == 2
        assert fresh_registry.counter("farm.shards_lost").value == 2

    def test_lost_shard_without_spill_still_warns(
        self, tmp_path, fresh_registry, captured_events
    ):
        ScanFarm._report_lost_shard(
            {"spill_dir": str(tmp_path)}, one_window_shard()
        )
        lost = [e for e in captured_events.events if e.name == "scan.shard.lost"]
        assert lost[0].attrs["partial_metrics"] is False
        assert fresh_registry.counter("farm.shards_lost").value == 1

    def test_killed_worker_emits_lost_shards_and_result_stays_exact(
        self, monkeypatch, fresh_registry, captured_events
    ):
        monkeypatch.setenv("REPRO_FAULTS", "farm.shard:0=kill-worker")
        result = make_farm(workers=2, shards_per_worker=2).scan(make_chip())
        clean = reference_scan(TensorProbeDetector(), make_chip())
        assert scan_results_equal(clean, result)
        lost = [e for e in captured_events.events if e.name == "scan.shard.lost"]
        assert lost, "a killed shard worker must report its lost shards"
        assert all(e.level == "warning" for e in lost)
        assert all(isinstance(e.attrs["shard"], int) for e in lost)
        assert fresh_registry.counter("farm.shards_lost").value == len(lost)


class TestFarmDrift:
    def make_monitor(self, profile):
        return DriftMonitor(
            profile,
            DriftConfig(
                window=256, min_samples=8, check_every=8, cooldown=100_000
            ),
            source="farm",
        )

    def test_clean_scan_raises_no_alert(self, fresh_registry, captured_events):
        reference = make_farm(workers=1).scan(make_chip()).probabilities
        monitor = self.make_monitor(ReferenceProfile.build(reference))
        farm = make_farm(workers=1, drift_monitor=monitor)
        farm.scan(make_chip())
        assert not [
            e for e in captured_events.events if e.name == "drift.alert"
        ]
        psi = fresh_registry.gauge("drift.score_psi", labels={"source": "farm"})
        assert psi.updated  # the forced end-of-scan check ran

    def test_shifted_scores_alert_at_forced_check(
        self, fresh_registry, captured_events
    ):
        scores = make_farm(workers=1).scan(make_chip()).probabilities
        # Profile a reference the live scores cannot resemble.
        shifted = np.clip(1.0 - scores, 0.0, 1.0)
        monitor = self.make_monitor(ReferenceProfile.build(shifted))
        make_farm(workers=1, drift_monitor=monitor).scan(make_chip())
        alerts = [e for e in captured_events.events if e.name == "drift.alert"]
        assert alerts and alerts[0].attrs["source"] == "farm"
