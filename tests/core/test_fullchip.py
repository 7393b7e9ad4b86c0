"""Tests for full-chip scanning: region merging and the scan engine."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrainingError
from repro.core import fullchip
from repro.core.fullchip import (
    HotspotRegion,
    ScanResult,
    merge_windows,
    recall_against_oracle,
)
from repro.data.fullchip import FullChipSpec, make_layout
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.scanfarm import ScanFarm
from repro.testing import (
    DensityProbeDetector as ProbeDetector,
    TensorProbeDetector,
    reference_scan,
    scan_results_close,
    scan_results_equal,
)


def merge_windows_pairwise(windows, probabilities):
    """Oracle for :func:`merge_windows`: components of the all-pairs
    touch graph, each reported as (bbox, size, peak), by falling peak."""
    unvisited = set(range(len(windows)))
    regions = []
    for seed in range(len(windows)):
        if seed not in unvisited:
            continue
        unvisited.discard(seed)
        members, frontier = [seed], [seed]
        while frontier:
            i = frontier.pop()
            for j in sorted(unvisited):
                if windows[i].touches(windows[j]):
                    unvisited.discard(j)
                    members.append(j)
                    frontier.append(j)
        bbox = windows[members[0]]
        for m in members[1:]:
            bbox = bbox.union_bbox(windows[m])
        regions.append(
            HotspotRegion(
                bbox=bbox,
                window_count=len(members),
                max_probability=float(max(probabilities[m] for m in members)),
            )
        )
    regions.sort(key=lambda r: -r.max_probability)
    return regions


WINDOW_SETS = st.lists(
    st.tuples(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=25),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=40,
)


class TestMergeWindows:
    def test_disjoint_windows_stay_separate(self):
        windows = [Rect(0, 0, 10, 10), Rect(100, 100, 110, 110)]
        regions = merge_windows(windows, [0.9, 0.7])
        assert len(regions) == 2
        assert regions[0].max_probability == 0.9  # sorted by probability

    def test_overlapping_windows_merge(self):
        windows = [Rect(0, 0, 12, 12), Rect(6, 0, 18, 12), Rect(12, 0, 24, 12)]
        regions = merge_windows(windows, [0.6, 0.8, 0.7])
        assert len(regions) == 1
        region = regions[0]
        assert region.bbox == Rect(0, 0, 24, 12)
        assert region.window_count == 3
        assert region.max_probability == 0.8

    def test_touching_windows_merge(self):
        windows = [Rect(0, 0, 10, 10), Rect(10, 0, 20, 10)]
        assert len(merge_windows(windows, [0.5, 0.5])) == 1

    def test_empty(self):
        assert merge_windows([], []) == []

    def test_mismatch_raises(self):
        with pytest.raises(TrainingError):
            merge_windows([Rect(0, 0, 1, 1)], [])

    @given(WINDOW_SETS)
    @settings(max_examples=200, deadline=None)
    def test_spatial_hash_equals_pairwise(self, raw):
        """The array sweep is a pure optimisation of the O(n²) sweep."""
        windows = [Rect(x, y, x + w, y + h) for x, y, w, h, _ in raw]
        probabilities = [p for *_, p in raw]
        assert merge_windows(windows, probabilities) == merge_windows_pairwise(
            windows, probabilities
        )

    @given(WINDOW_SETS, st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_any_pair_step_equals_pairwise(self, raw, step):
        """Candidate pairs are made a bounded step at a time; components
        must come out the same wherever the step boundaries fall."""
        windows = [Rect(x, y, x + w, y + h) for x, y, w, h, _ in raw]
        probabilities = [p for *_, p in raw]
        with mock.patch.object(fullchip, "_MERGE_PAIRS", step):
            merged = merge_windows(windows, probabilities)
        assert merged == merge_windows_pairwise(windows, probabilities)

    @pytest.mark.parametrize("seed,fraction", [(0, 0.65), (1, 0.2), (2, 0.05)])
    def test_scan_lattice_equals_pairwise(self, seed, fraction):
        """A 100 nm-stride scan's window lattice (37 x 37 windows of
        1200 nm): each window touches up to 24 x 24 neighbours, so the
        sweep tests many candidate pairs per window across several
        steps."""
        rng = np.random.default_rng(seed)
        lattice = [
            Rect(x, y, x + 1200, y + 1200)
            for y in range(0, 3700, 100)
            for x in range(0, 3700, 100)
        ]
        flags = rng.random(len(lattice)) < fraction
        windows = [w for w, flag in zip(lattice, flags) if flag]
        # Rounded, so equal peaks exercise the tie order too.
        probabilities = np.round(rng.random(len(windows)), 2).tolist()
        assert merge_windows(windows, probabilities) == merge_windows_pairwise(
            windows, probabilities
        )


class TestFullChipSpec:
    def test_validation(self):
        with pytest.raises(Exception):
            FullChipSpec(tiles_x=0)
        with pytest.raises(Exception):
            FullChipSpec(fill_probability=1.5)

    def test_make_layout_deterministic(self):
        spec = FullChipSpec(tiles_x=3, tiles_y=3, seed=4)
        a = make_layout(spec)
        b = make_layout(spec)
        assert a.rects == b.rects
        assert len(a) > 0

    def test_fill_probability_zero_empty(self):
        layout = make_layout(FullChipSpec(tiles_x=2, tiles_y=2, fill_probability=0.0))
        assert len(layout) == 0

    def test_region_size(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=2))
        assert layout.region == Rect(0, 0, 3600, 2400)


class TestScanner:
    def make_scanner(self, **kwargs):
        return ScanFarm(ProbeDetector(), **kwargs)

    def test_requires_predict_proba(self):
        with pytest.raises(TrainingError):
            ScanFarm(object())

    def test_threshold_validation(self):
        with pytest.raises(TrainingError):
            self.make_scanner(threshold=0.0)

    def test_scan_structure(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=1))
        result = self.make_scanner().scan(layout)
        assert isinstance(result, ScanResult)
        assert result.window_count == 25  # 5x5 with stride 600 on 3600nm
        assert result.probabilities.shape == (25,)
        assert result.flagged_count == len(result.flagged)
        assert all(isinstance(r, HotspotRegion) for r in result.regions)
        assert "windows scanned" in result.summary()

    def test_flagged_respects_threshold(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=1))
        loose = self.make_scanner(threshold=0.2).scan(layout)
        strict = self.make_scanner(threshold=0.9).scan(layout)
        assert strict.flagged_count <= loose.flagged_count

    def test_empty_layout_scan(self):
        layout = Layout(Rect(0, 0, 2400, 2400))
        result = self.make_scanner().scan(layout)
        assert result.flagged_count == 0
        assert result.regions == ()

    def test_recall_against_oracle(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=1))
        result = self.make_scanner(threshold=0.01).scan(layout)
        # With an ultra-permissive threshold every filled site is flagged,
        # so any site overlapping the layout's shapes is recovered.
        sites = [Rect(0, 0, 1200, 1200)]
        assert recall_against_oracle(result, sites) == 1.0
        assert recall_against_oracle(result, [Rect(9000, 9000, 9100, 9100)]) == 0.0

    def test_recall_requires_sites(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=1))
        result = self.make_scanner().scan(layout)
        with pytest.raises(TrainingError):
            recall_against_oracle(result, [])

    def test_flagged_indices_align_views(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=1))
        result = self.make_scanner(threshold=0.4).scan(layout)
        assert len(result.flagged_indices) == result.flagged_count
        for index, window in zip(result.flagged_indices, result.flagged):
            assert result.windows[index] == window
            assert result.probabilities[index] >= 0.4
        np.testing.assert_array_equal(
            result.flagged_probabilities,
            result.probabilities[list(result.flagged_indices)],
        )

    def test_pipeline_validation(self):
        # The scoring path follows from the detector; it is not an option.
        with pytest.raises(TypeError):
            self.make_scanner(pipeline="shared")
        for bad in (
            dict(workers=0),
            dict(tile_blocks=0),
            dict(shards_per_worker=0),
        ):
            with pytest.raises(TrainingError):
                self.make_scanner(**bad)

    def test_shared_pipeline_requires_tensor_detector(self, tmp_path):
        def resolved(detector):
            journal = tmp_path / "scan.jsonl"
            ScanFarm(detector).scan(layout, journal=journal)
            with open(journal, encoding="utf-8") as handle:
                return json.loads(handle.readline())["pipeline"]

        class TensorsWithoutBlockGrid(ProbeDetector):
            extractor = None

            def predict_proba_tensors(self, tensors):
                raise AssertionError("no shared grid to score from")

        layout = make_layout(FullChipSpec(tiles_x=2, tiles_y=2, seed=1))
        assert resolved(TensorProbeDetector()) == "farm:shared"
        assert resolved(ProbeDetector()) == "farm:per_clip"
        assert resolved(TensorsWithoutBlockGrid()) == "farm:per_clip"


class TestSharedPipeline:
    """Shared-grid farm scans against the reference scans."""

    def test_identical_probabilities_and_regions(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=2))
        detector = TensorProbeDetector()
        shared = ScanFarm(detector).scan(layout)
        legacy = reference_scan(detector, layout, per_clip=True)
        assert scan_results_close(shared, legacy)

    def test_parallel_workers_identical(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=2))
        detector = TensorProbeDetector()
        single = ScanFarm(detector, tile_blocks=4).scan(layout)
        parallel = ScanFarm(detector, workers=2, tile_blocks=4).scan(layout)
        assert scan_results_equal(single, parallel)
        assert scan_results_close(
            parallel, reference_scan(detector, layout, per_clip=True)
        )

    def test_non_aligned_stride_still_matches(self):
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=2))
        detector = TensorProbeDetector()
        # 500 nm is not a multiple of the 200 nm block pitch: the shared
        # grid must fall back per window yet agree with the per-clip path.
        shared = ScanFarm(detector, stride_nm=500).scan(layout)
        legacy = reference_scan(detector, layout, per_clip=True, stride_nm=500)
        assert scan_results_close(shared, legacy)

    def test_auto_uses_shared_for_tensor_detectors(self):
        layout = make_layout(FullChipSpec(tiles_x=2, tiles_y=2, seed=3))
        detector = TensorProbeDetector()
        farm = ScanFarm(detector).scan(layout)
        assert scan_results_equal(farm, reference_scan(detector, layout))

    def test_auto_uses_per_clip_for_dataset_detectors(self):
        # A detector without the tensor interface is scored clip by clip.
        layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=1))
        detector = ProbeDetector()
        farm = ScanFarm(detector).scan(layout)
        assert scan_results_equal(
            farm, reference_scan(detector, layout, per_clip=True)
        )
