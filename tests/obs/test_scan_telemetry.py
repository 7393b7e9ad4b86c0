"""Integration: full-chip scan telemetry and shard metric aggregation.

A stub tensor-capable detector keeps these fast — the subject under test
is the instrumentation, not the CNN.
"""

import numpy as np
import pytest

from repro.features.sliding import SlidingFeatureExtractor
from repro.features.tensor import FeatureTensorConfig, FeatureTensorExtractor
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.obs.report import last_metrics_snapshot, summarize_spans
from repro.scanfarm import ScanFarm

CLIP_NM = 240
CONFIG = FeatureTensorConfig(block_count=4, coefficients=8, pixel_nm=2)


def make_test_layout(width=960, height=720, seed=0, rect_count=40) -> Layout:
    rng = np.random.default_rng(seed)
    region = Rect(0, 0, width, height)
    layout = Layout(region, bin_nm=CLIP_NM)
    for _ in range(rect_count):
        x = int(rng.integers(0, width - 20))
        y = int(rng.integers(0, height - 20))
        w = int(rng.integers(5, 90))
        h = int(rng.integers(5, 90))
        layout.add(Rect(x, y, min(x + w, width), min(y + h, height)))
    return layout


class StubTensorDetector:
    """Tensor-capable detector stub: everything is 60 % a hotspot."""

    def __init__(self):
        self.extractor = FeatureTensorExtractor(CONFIG)

    def predict_proba(self, dataset):
        return np.tile([0.4, 0.6], (len(dataset.clips), 1))

    def predict_proba_tensors(self, tensors):
        return np.tile([0.4, 0.6], (tensors.shape[0], 1))


class StubClipDetector:
    """Dataset-only detector stub: scored clip by clip."""

    def predict_proba(self, dataset):
        return np.tile([0.4, 0.6], (len(dataset.clips), 1))


def make_farm(detector=None, **kwargs):
    return ScanFarm(
        detector or StubTensorDetector(),
        clip_nm=CLIP_NM,
        stride_nm=CLIP_NM // 2,
        **kwargs,
    )


@pytest.fixture
def scanner():
    return make_farm()


class TestScanTelemetry:
    def test_scan_emits_stage_spans(
        self, scanner, captured_events, fresh_registry
    ):
        scanner.scan(make_test_layout())
        stages = summarize_spans(captured_events.events)
        for stage in (
            "farm.scan/farm.fingerprint",
            "farm.scan",
            "farm.scan/farm.shard/scan.grid",
            "farm.scan/farm.shard/scan.inference",
            "farm.scan/scan.merge",
        ):
            assert stage in stages, stages.keys()
        assert stages["farm.scan"]["count"] == 1

    def test_one_scan_is_one_trace(
        self, tmp_path, captured_events, fresh_registry
    ):
        # Cache, journal and a worker pool: every stage of the scan, in
        # this process or a shard worker, joins the farm.scan trace.
        farm = make_farm(workers=2, tile_blocks=2, cache_dir=tmp_path / "cache")
        farm.scan(make_test_layout(), journal=tmp_path / "scan.journal")
        spans = [e for e in captured_events.events if e.name == "span"]
        root = next(e for e in spans if e.attrs["path"] == "farm.scan")
        assert {e.attrs["trace_id"] for e in spans} == {root.attrs["trace_id"]}
        paths = {e.attrs["path"] for e in spans}
        for stage in (
            "farm.scan/farm.fingerprint",
            "farm.scan/farm.journal",
            "farm.scan/farm.cache_read",
            "farm.scan/farm.shard",
            "farm.scan/farm.cache_write",
        ):
            assert stage in paths, sorted(paths)

    def test_scan_complete_and_snapshot_events(
        self, scanner, captured_events, fresh_registry
    ):
        result = scanner.scan(make_test_layout())
        names = captured_events.names()
        assert "farm.scan.complete" in names
        complete = next(
            e for e in captured_events.events if e.name == "farm.scan.complete"
        )
        assert complete.attrs["windows"] == result.window_count
        assert complete.attrs["windows_per_second"] > 0
        snapshot = last_metrics_snapshot(captured_events.events)
        assert snapshot is not None
        assert snapshot["counters"]["scan.windows"] == result.window_count
        assert snapshot["gauges"]["scan.windows_per_second"] > 0
        # Tile-stage histograms made it into the snapshot.
        assert snapshot["histograms"]["scan.raster.seconds"]["count"] > 0
        assert snapshot["histograms"]["scan.dct.seconds"]["count"] > 0

    def test_per_clip_pipeline_spans(self, captured_events, fresh_registry):
        make_farm(StubClipDetector()).scan(make_test_layout())
        stages = summarize_spans(captured_events.events)
        assert "farm.scan/farm.shard/scan.extract" in stages
        assert "farm.scan/farm.shard/scan.inference" in stages
        assert not any(path.endswith("scan.grid") for path in stages)

    def test_unobserved_scan_still_works(self, fresh_bus, fresh_registry):
        # No sinks attached: telemetry must be inert, not required.
        result = make_farm().scan(make_test_layout())
        assert result.window_count > 0


class TestWorkerAggregation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tile_metrics_reach_parent_registry(
        self, workers, captured_events, fresh_registry
    ):
        # With workers=2 the tiles are encoded in pool processes; their
        # stage timings must still land in this process's registry.
        make_farm(workers=workers, tile_blocks=2).scan(make_test_layout())
        raster = fresh_registry.histogram("scan.raster.seconds")
        dct = fresh_registry.histogram("scan.dct.seconds")
        tiles = fresh_registry.counter("scan.tiles").value
        assert tiles > 1  # the layout spans several non-empty tiles
        assert raster.count == tiles
        assert dct.count == tiles
        assert raster.total > 0.0 and dct.total > 0.0

    def test_serial_and_parallel_aggregate_identically(self, fresh_bus):
        from repro.obs import MetricsRegistry, set_registry

        layout = make_test_layout(seed=4)
        counts = {}
        for workers in (1, 2):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                make_farm(workers=workers, tile_blocks=2).scan(layout)
            finally:
                set_registry(previous)
            shard_windows = sum(
                registry.counter(
                    "farm.shard.windows", labels={"shard": str(shard)}
                ).value
                for shard in range(registry.counter("farm.shards").value)
            )
            counts[workers] = (
                registry.counter("scan.windows").value,
                registry.counter("farm.windows_deduped").value,
                shard_windows,
            )
        assert counts[1] == counts[2]

    def test_fallback_windows_counted(self, captured_events, fresh_registry):
        from repro.geometry.layout import iter_clip_windows

        layout = make_test_layout(seed=6)
        windows = tuple(
            iter_clip_windows(layout.region, CLIP_NM, 77)  # non-aligned
        )
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        sliding.extract_windows(layout, windows)
        fallback = fresh_registry.counter("scan.windows_fallback").value
        assert 0 < fallback <= len(windows)
