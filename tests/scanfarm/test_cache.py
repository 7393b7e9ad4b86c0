"""ScanCache durability + the incremental re-scan contract."""

import json
import shutil
from pathlib import Path

import pytest

from repro.data.fullchip import FullChipSpec, make_layout
from repro.exceptions import ScanCacheError
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.scanfarm import ScanCache, ScanFarm
from repro.scanfarm import farm as farm_module
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


class TestHeldCacheRefresh:
    """A long-lived instance answers what a fresh ``ScanCache(dir)`` would."""

    X, Y, Z = "x" * 64, "y" * 64, "z" * 64

    def answers(self, cache):
        return cache.lookup([self.X, self.Y, self.Z])

    def test_reads_only_lines_appended_by_another_writer(self, tmp_path):
        held = ScanCache(tmp_path / "c")
        held.update({self.X: 0.25})
        ScanCache(tmp_path / "c").update({self.Y: 0.5, self.Z: 0.75})
        assert held.refresh() == 2
        assert held.refresh() == 0
        assert self.answers(held) == self.answers(ScanCache(tmp_path / "c"))
        assert len(held) == 3

    def test_another_writers_compact_reopens_in_full(self, tmp_path):
        held = ScanCache(tmp_path / "c")
        held.update({self.X: 0.25})
        other = ScanCache(tmp_path / "c")
        other.update({self.Y: 0.5})
        other.compact()
        assert held.refresh() == 2  # the rewritten file, read whole
        assert self.answers(held) == self.answers(ScanCache(tmp_path / "c"))

    def test_recreated_directory_leaves_no_stale_entries(self, tmp_path):
        held = ScanCache(tmp_path / "c")
        held.update({self.X: 0.25, self.Z: 0.125})
        shutil.rmtree(tmp_path / "c")
        # A data file of the same length, with other content.
        ScanCache(tmp_path / "c").update({self.Y: 0.75, self.Z: 0.375})
        held.refresh()
        assert self.answers(held) == {self.Y: 0.75, self.Z: 0.375}
        shutil.rmtree(tmp_path / "c")
        held.refresh()
        assert len(held) == 0
        assert held.update({self.X: 0.75}) == 1
        assert self.answers(ScanCache(tmp_path / "c")) == {self.X: 0.75}

    @pytest.mark.parametrize("rewrite", ["truncate", "same_length"])
    def test_file_rewritten_in_place_reopens_in_full(self, tmp_path, rewrite):
        # Same inode: only the size, or the last line read, can tell.
        held = ScanCache(tmp_path / "c")
        held.update({self.X: 0.25})
        held.update({self.Y: 0.5})
        first, second, _ = held.data_path.read_bytes().split(b"\n")
        if rewrite == "truncate":
            held.data_path.write_bytes(first + b"\n")
            expected = {self.X: 0.25}
        else:
            swapped = second.replace(self.Y.encode(), self.Z.encode())
            held.data_path.write_bytes(first + b"\n" + swapped + b"\n")
            expected = {self.X: 0.25, self.Z: 0.5}
        held.refresh()
        assert self.answers(held) == expected

    def test_torn_tail_is_dropped_on_refresh(self, tmp_path):
        held = ScanCache(tmp_path / "c")
        held.update({self.X: 0.25})
        with open(held.data_path, "ab") as handle:
            handle.write(b'{"kind": "entry", "fp": "yy", "p"')  # torn
        assert held.refresh() == 0
        assert held.update({self.Y: 0.5}) == 1
        assert self.answers(ScanCache(tmp_path / "c")) == {
            self.X: 0.25,
            self.Y: 0.5,
        }

    def test_first_write_wins_across_writers(self, tmp_path):
        held = ScanCache(tmp_path / "c")
        ScanCache(tmp_path / "c").update({self.X: 0.25})
        assert held.update({self.X: 0.75}) == 0  # learns of it first
        assert held.get(self.X) == 0.25
        # A file that already holds two lines for one fingerprint (two
        # writers racing) keeps the first for every reader.
        with open(held.data_path, "ab") as handle:
            handle.write(
                f'{{"kind": "entry", "fp": "{self.Y}", "p": 0.5}}\n'
                f'{{"kind": "entry", "fp": "{self.Y}", "p": 0.625}}\n'.encode()
            )
        assert held.refresh() == 2
        assert held.get(self.Y) == 0.5
        assert ScanCache(tmp_path / "c").get(self.Y) == 0.5


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

    def test_second_writer_lines_hit(self, tmp_path, fresh_registry):
        # Another farm appends between two scans of this one; its lines
        # are read and served.
        detector = TensorProbeDetector()
        first, second = chip(seed=0), chip(seed=1)
        farm = ScanFarm(detector, cache_dir=tmp_path / "cache")
        farm.scan(first)
        ScanFarm(detector, cache_dir=tmp_path / "cache").scan(second)
        before = fresh_registry.counter("farm.cache_hits").value
        result = farm.scan(second)
        hits = fresh_registry.counter("farm.cache_hits").value - before
        assert hits == result.window_count
        assert scan_results_equal(reference_scan(detector, second), result)

    def test_same_directory_as_str_or_path_keeps_the_cache(
        self, tmp_path, monkeypatch
    ):
        opened = []

        class CountingCache(ScanCache):
            def __init__(self, directory):
                opened.append(directory)
                super().__init__(directory)

        monkeypatch.setattr(farm_module, "ScanCache", CountingCache)
        farm = ScanFarm(TensorProbeDetector(), cache_dir=tmp_path / "cache")
        layout = chip()
        farm.scan(layout)
        farm.cache_dir = str(tmp_path / "cache")
        farm.scan(layout)
        farm.cache_dir = Path(str(tmp_path / "cache"))
        farm.scan(layout)
        assert len(opened) == 1
        farm.cache_dir = tmp_path / "other"
        farm.scan(layout)
        assert len(opened) == 2
