"""Tests for the shared-raster sliding-window extractor.

The load-bearing property is *equivalence*: whatever route a window's
tensor takes — sliced from the global coefficient grid or the per-clip
fallback — it must match what ``FeatureTensorExtractor`` produces for
that window in isolation.
"""

import numpy as np
import pytest

from repro.exceptions import FeatureError
from repro.features.sliding import SlidingFeatureExtractor
from repro.features.tensor import (
    FeatureTensorConfig,
    FeatureTensorExtractor,
    encode_block_grid,
)
from repro.geometry.layout import Layout, iter_clip_windows
from repro.geometry.raster import rasterize_layout_window
from repro.geometry.rect import Rect

CLIP_NM = 240
CONFIG = FeatureTensorConfig(block_count=4, coefficients=8, pixel_nm=2)
#: Block pitch for CONFIG at CLIP_NM: (240 / 2) / 4 px * 2 nm/px = 60 nm.
BLOCK_NM = 60


def make_test_layout(width=960, height=720, seed=0, rect_count=60) -> Layout:
    """A layout of random small rectangles, off-grid on purpose."""
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


def per_clip_tensors(layout, windows):
    extractor = FeatureTensorExtractor(CONFIG)
    return np.stack([extractor.extract(layout.clip_at(w)) for w in windows])


class TestEncodeBlockGrid:
    def test_square_matches_encode_image(self):
        rng = np.random.default_rng(1)
        image = rng.random((24, 24)).astype(np.float32)
        extractor = FeatureTensorExtractor(CONFIG)
        np.testing.assert_array_equal(
            encode_block_grid(image, 6, 8), extractor.encode_image(image)
        )

    def test_rectangular_grid_shape(self):
        image = np.zeros((12, 30), dtype=np.float32)
        assert encode_block_grid(image, 6, 4).shape == (2, 5, 4)

    def test_rejects_non_divisible(self):
        with pytest.raises(FeatureError):
            encode_block_grid(np.zeros((10, 12)), 4, 2)

    def test_rejects_oversized_k(self):
        with pytest.raises(FeatureError):
            encode_block_grid(np.zeros((8, 8)), 4, 17)


class TestConstruction:
    def test_validates_geometry_eagerly(self):
        with pytest.raises(FeatureError):
            SlidingFeatureExtractor(CONFIG, clip_nm=250)  # not divisible

    def test_validates_workers_and_tiles(self):
        # One process only: parallel scans shard through the scan farm.
        assert SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM, workers=1)
        for workers in (0, 2):
            with pytest.raises(FeatureError):
                SlidingFeatureExtractor(
                    CONFIG, clip_nm=CLIP_NM, workers=workers
                )
        with pytest.raises(FeatureError):
            SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM, tile_blocks=0)

    def test_output_shape(self):
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        assert sliding.output_shape == (4, 4, 8)


class TestCoefficientGrid:
    def test_grid_matches_whole_region_encoding(self):
        layout = make_test_layout(width=480, height=480, seed=3)
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM, tile_blocks=3)
        grid = sliding.coefficient_grid(layout)
        image = rasterize_layout_window(
            layout, layout.region, CONFIG.pixel_nm
        )
        expected = encode_block_grid(image, sliding.block_px, 8)
        assert grid.shape == expected.shape
        np.testing.assert_allclose(grid, expected, atol=1e-5)

    def test_region_padded_to_whole_blocks(self):
        region = Rect(0, 0, 250, 130)  # not multiples of BLOCK_NM
        layout = Layout(region, rects=[Rect(10, 10, 240, 120)], bin_nm=CLIP_NM)
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        assert sliding.grid_shape(region) == (3, 5, 8)
        grid = sliding.coefficient_grid(layout)
        assert grid.shape == (3, 5, 8)

    def test_empty_layout_grid_is_zero(self):
        layout = Layout(Rect(0, 0, 480, 480), bin_nm=CLIP_NM)
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        assert not sliding.coefficient_grid(layout).any()


class TestWindowEquivalence:
    @pytest.mark.parametrize("stride", [BLOCK_NM, 2 * BLOCK_NM, CLIP_NM // 2])
    def test_aligned_strides_match_per_clip(self, stride):
        layout = make_test_layout(seed=5)
        windows = tuple(iter_clip_windows(layout.region, CLIP_NM, stride))
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM, tile_blocks=3)
        assert all(sliding.is_aligned(w, layout.region) for w in windows)
        got = sliding.extract_windows(layout, windows)
        np.testing.assert_allclose(
            got, per_clip_tensors(layout, windows), atol=1e-5
        )

    @pytest.mark.parametrize("stride", [50, 77, 100])
    def test_non_aligned_strides_fall_back_and_match(self, stride):
        layout = make_test_layout(seed=6)
        windows = tuple(iter_clip_windows(layout.region, CLIP_NM, stride))
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        assert not all(sliding.is_aligned(w, layout.region) for w in windows)
        got = sliding.extract_windows(layout, windows)
        np.testing.assert_allclose(
            got, per_clip_tensors(layout, windows), atol=1e-5
        )

    def test_clamped_edge_windows_mix_paths(self):
        # Region width forces a clamped (non-stride) final column that is
        # still block-aligned; height 730 forces a non-aligned final row.
        layout = make_test_layout(width=900, height=730, seed=7)
        windows = tuple(iter_clip_windows(layout.region, CLIP_NM, 2 * BLOCK_NM))
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        flags = [sliding.is_aligned(w, layout.region) for w in windows]
        assert any(flags) and not all(flags)
        got = sliding.extract_windows(layout, windows)
        np.testing.assert_allclose(
            got, per_clip_tensors(layout, windows), atol=1e-5
        )

    def test_iter_batches_streams_contiguous_indices(self):
        layout = make_test_layout(seed=9)
        windows = tuple(iter_clip_windows(layout.region, CLIP_NM, CLIP_NM // 2))
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        seen = []
        for indices, tensors in sliding.iter_batches(layout, windows, 7):
            assert tensors.shape == (len(indices), 4, 4, 8)
            assert tensors.dtype == np.float32
            seen.extend(indices.tolist())
        assert seen == list(range(len(windows)))

    def test_rejects_bad_batch_size(self):
        layout = make_test_layout(seed=10)
        sliding = SlidingFeatureExtractor(CONFIG, clip_nm=CLIP_NM)
        with pytest.raises(FeatureError):
            next(sliding.iter_batches(layout, (), 0))
