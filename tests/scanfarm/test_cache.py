"""ScanCache durability + the incremental re-scan contract."""

import json

import pytest

from repro.data.fullchip import FullChipSpec, make_layout
from repro.exceptions import ScanCacheError
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.scanfarm import ScanCache, ScanFarm
from repro.testing import (
    TensorProbeDetector,
    reference_scan,
    scan_results_equal,
)


class TestScanCache:
    def test_roundtrip_is_bitwise(self, tmp_path):
        cache = ScanCache(tmp_path / "c")
        values = {"a" * 64: 0.1 + 0.2, "b" * 64: 1e-17, "c" * 64: 0.5}
        assert cache.update(values) == 3
        reopened = ScanCache(tmp_path / "c")
        for fp, p in values.items():
            assert reopened.get(fp) == p  # exact, not approx

    def test_update_skips_existing(self, tmp_path):
        cache = ScanCache(tmp_path / "c")
        assert cache.update({"x" * 64: 0.25}) == 1
        assert cache.update({"x" * 64: 0.99, "y" * 64: 0.5}) == 1
        assert cache.get("x" * 64) == 0.25  # first write wins
        assert len(cache) == 2

    def test_lookup_returns_present_subset(self, tmp_path):
        cache = ScanCache(tmp_path / "c")
        cache.update({"x" * 64: 0.25})
        assert cache.lookup(["x" * 64, "z" * 64]) == {"x" * 64: 0.25}

    def test_torn_tail_is_dropped(self, tmp_path):
        cache = ScanCache(tmp_path / "c")
        cache.update({"x" * 64: 0.25})
        with open(cache.data_path, "ab") as handle:
            handle.write(b'{"kind": "entry", "fp": "yy", "p"')  # torn
        reopened = ScanCache(tmp_path / "c")
        assert len(reopened) == 1
        assert reopened.get("x" * 64) == 0.25

    def test_file_format_is_stable(self, tmp_path):
        # Caches already on disk must keep loading: the bytes of an
        # entry are pinned.
        cache = ScanCache(tmp_path / "c")
        cache.update({"ab": 0.1 + 0.2})
        assert cache.data_path.read_bytes() == (
            b'{"kind": "entry", "fp": "ab", "p": 0.30000000000000004}\n'
        )
        with open(cache.data_path, "ab") as handle:
            handle.write(b'{"kind": "entry", "fp": "cd", "p": 0.5}\n')
        assert ScanCache(tmp_path / "c").lookup(["ab", "cd"]) == {
            "ab": 0.1 + 0.2,
            "cd": 0.5,
        }

    def test_schema_mismatch_raises(self, tmp_path):
        cache = ScanCache(tmp_path / "c")
        cache.meta_path.write_text(
            json.dumps({"kind": "scan-cache", "schema": 999})
        )
        with pytest.raises(ScanCacheError):
            ScanCache(tmp_path / "c")

    def test_foreign_directory_raises(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "cache.json").write_text('{"kind": "other"}')
        with pytest.raises(ScanCacheError):
            ScanCache(tmp_path / "c")

    def test_path_is_file_raises(self, tmp_path):
        (tmp_path / "c").write_text("not a directory")
        with pytest.raises(ScanCacheError):
            ScanCache(tmp_path / "c")

    def test_compact_preserves_entries(self, tmp_path):
        cache = ScanCache(tmp_path / "c")
        cache.update({"x" * 64: 0.25, "y" * 64: 0.75})
        cache.compact()
        reopened = ScanCache(tmp_path / "c")
        assert reopened.lookup(["x" * 64, "y" * 64]) == {
            "x" * 64: 0.25,
            "y" * 64: 0.75,
        }


def chip(seed=0):
    return make_layout(FullChipSpec(tiles_x=4, tiles_y=4, seed=seed))


class TestIncrementalRescan:
    def test_warm_scan_is_bitwise_and_computes_nothing(
        self, tmp_path, fresh_registry
    ):
        detector = TensorProbeDetector()
        layout = chip()
        farm = ScanFarm(detector, cache_dir=tmp_path / "cache")
        cold = farm.scan(layout)
        warm = farm.scan(layout)
        assert scan_results_equal(cold, warm)
        assert (
            fresh_registry.counter("farm.cache_hits").value
            == cold.window_count
        )
        # And equals a reference scan that reuses nothing.
        assert scan_results_equal(reference_scan(detector, layout), warm)

    def test_warm_scan_survives_farm_restart(self, tmp_path):
        detector = TensorProbeDetector()
        layout = chip()
        cold = ScanFarm(detector, cache_dir=tmp_path / "cache").scan(layout)
        warm = ScanFarm(detector, cache_dir=tmp_path / "cache").scan(layout)
        assert scan_results_equal(cold, warm)

    def test_single_edit_rescans_under_20_percent(
        self, tmp_path, fresh_registry
    ):
        # The incremental-re-scan acceptance bound: one local edit must
        # invalidate only the windows that can see it.
        detector = TensorProbeDetector()
        layout = chip()
        farm = ScanFarm(detector, cache_dir=tmp_path / "cache")
        farm.scan(layout)
        edited = Layout(layout.region)
        for rect in layout.query(layout.region):
            edited.add(rect)
        edited.add(Rect(100, 100, 420, 260))  # one corner-site edit
        before = fresh_registry.counter("farm.cache_hits").value
        result = farm.scan(edited)
        hits = fresh_registry.counter("farm.cache_hits").value - before
        rescanned = result.window_count - hits
        assert rescanned / result.window_count < 0.20
        # The warm incremental result still equals a cold reference scan.
        assert scan_results_equal(reference_scan(detector, edited), result)

    def test_model_change_misses_cache(self, tmp_path, fresh_registry):
        layout = chip()
        ScanFarm(
            TensorProbeDetector(), cache_dir=tmp_path / "cache"
        ).scan(layout)
        # Same geometry, different model identity: zero hits.
        ScanFarm(
            TensorProbeDetector(),
            cache_dir=tmp_path / "cache",
            model_key="other-model",
        ).scan(layout)
        hit_counter = fresh_registry.counter("farm.cache_hits").value
        assert hit_counter == 0

    def test_threshold_change_still_hits(self, tmp_path, fresh_registry):
        # Flagging happens downstream of the cached probabilities, so a
        # threshold sweep is free.
        layout = chip()
        detector = TensorProbeDetector()
        ScanFarm(detector, cache_dir=tmp_path / "cache").scan(layout)
        result = ScanFarm(
            detector, cache_dir=tmp_path / "cache", threshold=0.9
        ).scan(layout)
        assert (
            fresh_registry.counter("farm.cache_hits").value
            == result.window_count
        )
