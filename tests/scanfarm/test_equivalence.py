"""Farm scan == reference scan, exactly, at any worker count.

The probe detectors score each window independently of batch
composition, so every equality here is bitwise — probabilities, flagged
indices, regions — not approximate. The reference scans
(:func:`repro.testing.reference_scan`) score every window with nothing
reused: from slices of one whole-chip grid, or clip by clip. The
hypothesis property sweeps the knobs that change *how* the farm
decomposes the scan (worker count, shard oversubscription, stride, chip
content) precisely because none of them may change *what* it computes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.fullchip import FullChipSpec, make_layout
from repro.features.sliding import SlidingFeatureExtractor
from repro.features.tensor import FeatureTensorConfig
from repro.geometry.rect import Rect
from repro.scanfarm import ScanFarm
from repro.testing import (
    DensityProbeDetector,
    TensorProbeDetector,
    reference_scan,
    scan_results_close,
    scan_results_equal,
)

FEATURES = FeatureTensorConfig(block_count=6, coefficients=10, pixel_nm=10)


def make_chip(seed=0, tiles=3, array_fraction=0.0):
    return make_layout(
        FullChipSpec(
            tiles_x=tiles,
            tiles_y=tiles,
            seed=seed,
            array_fraction=array_fraction,
            array_span=2,
        )
    )


class TestFarmEqualsSerial:
    # block pitch is 200 nm here: 600/1200 exercise the aligned path,
    # 500 forces every window through the per-clip fallback.
    @settings(max_examples=10, deadline=None)
    @given(
        stride=st.sampled_from([400, 500, 600, 1200]),
        workers=st.integers(2, 3),
        shards_per_worker=st.integers(1, 3),
        seed=st.integers(0, 3),
    )
    def test_shared_pipeline_bitwise(
        self, stride, workers, shards_per_worker, seed
    ):
        layout = make_chip(seed=seed)
        detector = TensorProbeDetector()
        single = ScanFarm(detector, stride_nm=stride).scan(
            layout, batch_size=7
        )
        parallel = ScanFarm(
            detector,
            stride_nm=stride,
            workers=workers,
            shards_per_worker=shards_per_worker,
        ).scan(layout, batch_size=7)
        reference = reference_scan(detector, layout, stride_nm=stride)
        assert scan_results_equal(single, reference)
        assert scan_results_equal(parallel, reference)
        assert scan_results_close(
            single,
            reference_scan(detector, layout, per_clip=True, stride_nm=stride),
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_per_clip_pipeline_bitwise(self, workers):
        layout = make_chip(seed=1)
        detector = DensityProbeDetector()
        farm = ScanFarm(detector, workers=workers).scan(layout, batch_size=5)
        reference = reference_scan(detector, layout, per_clip=True)
        assert scan_results_equal(farm, reference)

    def test_auto_resolves_like_serial(self):
        # The scoring path follows from the detector alone.
        layout = make_chip(seed=2)
        for detector, per_clip in (
            (TensorProbeDetector(), False),
            (DensityProbeDetector(), True),
        ):
            reference = reference_scan(detector, layout, per_clip=per_clip)
            for workers in (1, 2):
                farm = ScanFarm(detector, workers=workers).scan(layout)
                assert scan_results_equal(farm, reference)

    def test_dedup_replication_is_exact(self, fresh_registry):
        # Array macros repeat whole tiles, so the farm scans a strict
        # subset of the windows and replicates the rest — bitwise.
        layout = make_chip(seed=3, tiles=4, array_fraction=0.6)
        detector = TensorProbeDetector()
        reference = reference_scan(detector, layout)
        for workers in (1, 2):
            farm = ScanFarm(detector, workers=workers).scan(layout)
            assert scan_results_equal(farm, reference)
        assert fresh_registry.counter("farm.windows_deduped").value > 0

    def test_single_worker_spins_no_pool(self, captured_events):
        # workers=1 must stay a purely in-process scan.
        ScanFarm(TensorProbeDetector(), workers=1).scan(make_chip())
        names = {e.name for e in captured_events.events}
        assert "farm.worker_dead" not in names
        assert "farm.degraded" not in names

    def test_single_worker_encodes_each_tile_once(self, fresh_registry):
        # The point of the shared grid: however many windows overlap a
        # tile (here every 800 nm tile sits under up to nine 1200 nm
        # windows), a single-process scan rasterises and encodes it at
        # most once.
        layout = make_chip(seed=5)
        ScanFarm(TensorProbeDetector(), tile_blocks=4).scan(layout)
        tile_nm = 4 * 200
        region = layout.region
        non_empty = sum(
            1
            for y in range(region.y_lo, region.y_hi, tile_nm)
            for x in range(region.x_lo, region.x_hi, tile_nm)
            if layout.query(
                Rect(
                    x,
                    y,
                    min(x + tile_nm, region.x_hi),
                    min(y + tile_nm, region.y_hi),
                )
            )
        )
        encoded = fresh_registry.counter("scan.tiles").value
        assert 0 < encoded <= non_empty


class TestShardGridIdentity:
    def test_subregion_grid_equals_full_grid_slice(self):
        # The property the whole farm rests on: a shard's coefficient
        # sub-grid is the matching slice of the full-chip grid, bit for
        # bit, because tile tasks are anchored to the full tile lattice.
        layout = make_chip(seed=4, tiles=4)
        extractor = SlidingFeatureExtractor(
            FEATURES, clip_nm=1200, tile_blocks=8
        )
        full = extractor.coefficient_grid(layout)
        block = extractor.block_nm
        region = layout.region
        for r0, c0, rows, cols in [(0, 0, 6, 6), (3, 2, 7, 9), (10, 5, 8, 14)]:
            sub_rect = Rect(
                region.x_lo + c0 * block,
                region.y_lo + r0 * block,
                min(region.x_hi, region.x_lo + (c0 + cols) * block),
                min(region.y_hi, region.y_lo + (r0 + rows) * block),
            )
            sub = extractor.coefficient_grid(layout, region=sub_rect)
            expected = full[r0 : r0 + sub.shape[0], c0 : c0 + sub.shape[1]]
            assert np.array_equal(sub, expected)

    def test_misaligned_subregion_rejected(self):
        from repro.exceptions import FeatureError

        layout = make_chip()
        extractor = SlidingFeatureExtractor(FEATURES, clip_nm=1200)
        with pytest.raises(FeatureError):
            extractor.coefficient_grid(
                layout, region=Rect(50, 0, 1200, 1200)
            )
