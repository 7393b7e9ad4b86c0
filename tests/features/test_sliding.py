"""Tests for the shared-raster sliding-window extractor.

The load-bearing property is *equivalence*: whatever route a window's
tensor takes — sliced from the global coefficient grid or the per-clip
fallback — it must match what ``FeatureTensorExtractor`` produces for
that window in isolation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: Band-memo geometry: 4-block (240 nm) tiles over a region that is a
#: whole number of neither blocks nor tiles, so the last tile column is
#: one padded block wide and the last tile row is padded too.
MEMO_REGION = Rect(0, 0, 1000, 700)
MEMO_TILE_BLOCKS = 4
TILE_NM = MEMO_TILE_BLOCKS * BLOCK_NM
EDITS = ("add", "remove", "duplicate", "band_edge", "tile_edge",
         "empty_tile", "shard")


def apply_edit(kind, seed, layout):
    """One revision: ``(layout to encode next, sub-region or None)``."""
    rng = np.random.default_rng(seed)
    region = layout.region
    rects = list(layout.rects)

    def rebuilt(keep):
        return Layout(region, rects=keep, bin_nm=CLIP_NM)

    def clamp(x_lo, y_lo, x_hi, y_hi):
        return Rect(
            max(x_lo, region.x_lo),
            max(y_lo, region.y_lo),
            min(x_hi, region.x_hi),
            min(y_hi, region.y_hi),
        )

    x = int(rng.integers(0, region.x_hi - 20))
    y = int(rng.integers(0, region.y_hi - 20))
    if kind == "add":
        w, h = (int(v) for v in rng.integers(5, 150, size=2))
        return rebuilt(rects + [clamp(x, y, x + w, y + h)]), None
    if kind == "remove":
        if not rects:
            return layout, None
        drop = int(rng.integers(len(rects)))
        return rebuilt(rects[:drop] + rects[drop + 1:]), None
    if kind == "duplicate":
        if not rects:
            return layout, None
        return rebuilt(rects + [rects[int(rng.integers(len(rects)))]]), None
    if kind == "band_edge":
        # Both y edges on block-row boundaries: the rect abuts the rows
        # above and below it without overlapping them.
        row = int(rng.integers(0, 11))
        span = int(rng.integers(1, 3))
        w = int(rng.integers(5, 150))
        rect = clamp(x, row * BLOCK_NM, x + w, (row + span) * BLOCK_NM)
        return rebuilt(rects + [rect]), None
    if kind == "tile_edge":
        # Ends exactly on a tile boundary (touching the next tile) or
        # straddles it, in x or y.
        edge = TILE_NM * int(rng.integers(1, 3))
        lo = edge - int(rng.integers(5, 60))
        hi = edge + int(rng.choice([0, 0, 30]))
        if rng.random() < 0.5:
            rect = clamp(lo, y, hi, y + int(rng.integers(5, 150)))
        else:
            rect = clamp(x, lo, x + int(rng.integers(5, 150)), hi)
        return rebuilt(rects + [rect]), None
    if kind == "empty_tile":
        tile_x = TILE_NM * int(rng.integers(0, 5))
        tile_y = TILE_NM * int(rng.integers(0, 3))
        tile = Rect(tile_x, tile_y, tile_x + TILE_NM, tile_y + TILE_NM)
        return rebuilt([r for r in rects if not r.overlaps(tile)]), None
    assert kind == "shard"
    # A block-aligned sub-region, as a scan-farm shard requests (the
    # region is 17 x 12 blocks).
    c0, r0 = int(rng.integers(0, 16)), int(rng.integers(0, 11))
    c1, r1 = int(rng.integers(c0 + 1, 18)), int(rng.integers(r0 + 1, 13))
    return layout, Rect(
        c0 * BLOCK_NM,
        r0 * BLOCK_NM,
        min(c1 * BLOCK_NM, region.x_hi),
        min(r1 * BLOCK_NM, region.y_hi),
    )


class TestBandMemo:
    """An extractor carried across edits, re-encoding only the block rows
    the edits touched, returns grids bitwise equal to a fresh one's."""

    @settings(max_examples=40, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.sampled_from(EDITS), st.integers(0, 2**16)),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 3),
    )
    def test_carried_extractor_equals_fresh(self, edits, seed):
        layout = make_test_layout(
            width=MEMO_REGION.width, height=MEMO_REGION.height, seed=seed
        )
        carried = SlidingFeatureExtractor(
            CONFIG, clip_nm=CLIP_NM, tile_blocks=MEMO_TILE_BLOCKS
        )
        carried.coefficient_grid(layout)
        for kind, edit_seed in edits:
            layout, region = apply_edit(kind, edit_seed, layout)
            fresh = SlidingFeatureExtractor(
                CONFIG, clip_nm=CLIP_NM, tile_blocks=MEMO_TILE_BLOCKS
            )
            assert np.array_equal(
                carried.coefficient_grid(layout, region=region),
                fresh.coefficient_grid(layout, region=region),
            ), kind
