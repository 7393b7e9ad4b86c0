"""A farm carried across revisions scans each one as a cold scan would.

One :class:`ScanFarm` keeps what its last scan computed — window
fingerprints, encoded grid tiles, its open cache — and reuses whatever
the next layout leaves untouched. Every piece is keyed by content, so
the property here is bitwise: after each step of a revision sequence the
farm's result equals :func:`repro.testing.reference_scan` of the
revision, which reuses nothing. The count pins check that the reuse
happens: an interior one-rect edit encodes only the block rows the rect
overlaps, in the one tile whose digest changed, and hashes only the
windows that overlap the rect.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.fullchip import FullChipSpec, make_layout
from repro.features.sliding import SlidingFeatureExtractor
from repro.features.tensor import FeatureTensorConfig
from repro.geometry.layout import Layout, iter_clip_windows
from repro.geometry.rect import Rect
from repro.scanfarm import ScanFarm, scan_salt, window_fingerprints
from repro.scanfarm.fingerprint import FingerprintMemo
from repro.testing import (
    TensorProbeDetector,
    reference_scan,
    scan_results_equal,
)

#: 200 nm blocks (the probe default) and a second feature config,
#: 300 nm blocks: both tile the 1200 nm clip on the 600 nm stride.
CONFIGS = (
    FeatureTensorConfig(block_count=6, coefficients=10, pixel_nm=10),
    FeatureTensorConfig(block_count=4, coefficients=8, pixel_nm=10),
)
TILE_BLOCKS = 4
STEPS = (
    "add",
    "remove",
    "add_twice",
    "straddle_tile_edge",
    "empty_tile",
    "region",
    "feature_config",
    "add_in_place",
)


def copy_layout(layout, region=None, drop=()):
    """A new layout holding ``layout``'s rects, minus positions ``drop``."""
    out = Layout(region or layout.region)
    for i, rect in enumerate(layout.rects):
        if i not in drop:
            out.add(rect)
    return out


def random_rect(rng, region, lo=(0, 0), size=(60, 400)):
    w, h = (int(rng.integers(*size)) for _ in range(2))
    x = int(rng.integers(max(region.x_lo, lo[0]), region.x_hi - w))
    y = int(rng.integers(max(region.y_lo, lo[1]), region.y_hi - h))
    return Rect(x, y, x + w, y + h)


def tile_nm(farm):
    config = farm.detector.extractor.config
    return TILE_BLOCKS * config.block_size_px(farm.clip_nm) * config.pixel_nm


def apply_step(kind, seed, layout, farm):
    """One revision: returns the layout to scan next (maybe ``layout``)."""
    rng = np.random.default_rng(seed)
    region = layout.region
    if kind == "add":
        out = copy_layout(layout)
        out.add(random_rect(rng, region))
        return out
    if kind == "remove":
        if not len(layout):
            return layout
        return copy_layout(layout, drop={int(rng.integers(len(layout)))})
    if kind == "add_twice":
        # An exact duplicate: the rect set is unchanged, its multiset is not.
        out = copy_layout(layout)
        if len(layout):
            out.add(layout.rects[int(rng.integers(len(layout)))])
        return out
    pitch = tile_nm(farm)
    if kind == "straddle_tile_edge":
        edges = range(region.x_lo + pitch, region.x_hi, pitch)
        edge = edges[int(rng.integers(len(edges)))]
        y = int(rng.integers(region.y_lo, region.y_hi - 200))
        out = copy_layout(layout)
        out.add(Rect(edge - 50, y, edge + 50, y + 200))
        return out
    if kind == "empty_tile":
        x = region.x_lo + pitch * int(rng.integers(region.width // pitch))
        y = region.y_lo + pitch * int(rng.integers(region.height // pitch))
        tile = Rect(x, y, x + pitch, y + pitch)
        drop = {i for i, r in enumerate(layout.rects) if r.overlaps(tile)}
        return copy_layout(layout, drop=drop)
    if kind == "region":
        # Grow or shrink by one stride: shifts every window and tile.
        grow = region.x_hi - region.x_lo < 4200
        x_hi = region.x_hi + (600 if grow else -600)
        resized = Rect(region.x_lo, region.y_lo, x_hi, region.y_hi)
        outside = {
            i
            for i, r in enumerate(layout.rects)
            if not resized.contains_rect(r)
        }
        return copy_layout(layout, region=resized, drop=outside)
    if kind == "feature_config":
        current = farm.detector.extractor.config
        farm.detector = TensorProbeDetector(
            CONFIGS[1] if current == CONFIGS[0] else CONFIGS[0]
        )
        return layout
    assert kind == "add_in_place"
    layout.add(random_rect(rng, region))
    return layout


def chip(seed=0, tiles=3, array_fraction=0.5):
    return make_layout(
        FullChipSpec(
            tiles_x=tiles,
            tiles_y=tiles,
            seed=seed,
            array_fraction=array_fraction,
            array_span=2,
        )
    )


step_lists = st.lists(
    st.tuples(st.sampled_from(STEPS), st.integers(0, 2**16)),
    min_size=1,
    max_size=6,
)


class TestRevisionSequences:
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=10, deadline=None)
    @given(steps=step_lists, seed=st.integers(0, 3))
    def test_every_revision_equals_reference(
        self, workers, cached, steps, seed
    ):
        with tempfile.TemporaryDirectory() as tmp:
            farm = ScanFarm(
                TensorProbeDetector(CONFIGS[0]),
                workers=workers,
                tile_blocks=TILE_BLOCKS,
                cache_dir=f"{tmp}/cache" if cached else None,
            )
            layout = chip(seed=seed)
            assert scan_results_equal(
                farm.scan(layout), reference_scan(farm.detector, layout)
            )
            for kind, step_seed in steps:
                layout = apply_step(kind, step_seed, layout, farm)
                result = farm.scan(layout, batch_size=64)
                assert scan_results_equal(
                    result, reference_scan(farm.detector, layout)
                ), kind

    @settings(max_examples=25, deadline=None)
    @given(steps=step_lists, seed=st.integers(0, 3))
    def test_memo_equals_stateless_fingerprints(self, steps, seed):
        farm = ScanFarm(
            TensorProbeDetector(CONFIGS[0]), tile_blocks=TILE_BLOCKS
        )
        memo = FingerprintMemo()
        layout = chip(seed=seed)
        for kind, step_seed in [("add", 0)] + steps:
            layout = apply_step(kind, step_seed, layout, farm)
            windows = tuple(iter_clip_windows(layout.region, 1200, 600))
            salt = scan_salt(
                clip_nm=1200,
                pipeline="shared",
                model_key="probe",
                feature=farm.detector.extractor.config,
            )
            fingerprints, reused = memo.fingerprints(
                layout, windows, salt, 1200, 600
            )
            assert fingerprints == window_fingerprints(layout, windows, salt)
            assert 0 <= reused <= len(windows)


#: 100 nm blocks at 10 nm pixels and 16-block (1600 nm) tiles: the block
#: and tile lattice of the paper's default geometry, which the fixture
#: model of the repository benchmark's ``eco`` workload scans.
ECO_FEATURES = FeatureTensorConfig(
    block_count=12, coefficients=10, pixel_nm=10
)


def eco_chip():
    return make_layout(
        FullChipSpec(tiles_x=8, tiles_y=8, seed=3, array_fraction=0.75)
    )


class TestReuseCounts:
    @pytest.mark.parametrize("cached", [False, True])
    def test_interior_edit_encodes_one_tile_and_hashes_four_windows(
        self, tmp_path, fresh_registry, cached
    ):
        detector = TensorProbeDetector(ECO_FEATURES)
        farm = ScanFarm(
            detector, cache_dir=tmp_path / "cache" if cached else None
        )
        layout = eco_chip()
        assert farm.scan(layout).window_count == 225
        # Stride cell [1800, 2400)^2, abutting (not overlapping) the
        # windows that start at 2400, inside tile [1600, 3200)^2; the
        # 2 x 2 windows over it span tiles 0-1 in both axes. The rect
        # spans the tile's 100 nm block rows 19-23, so only those five
        # rows of the one changed tile are encoded.
        edited = copy_layout(layout)
        edited.add(Rect(1900, 1900, 2400, 2400))
        tiles = fresh_registry.counter("scan.tiles")
        rows = fresh_registry.counter("scan.block_rows")
        reused = fresh_registry.counter("farm.fingerprints_reused")
        tiles_before, rows_before = tiles.value, rows.value
        reused_before = reused.value
        result = farm.scan(edited)
        assert tiles.value - tiles_before == 1
        assert rows.value - rows_before == 5
        assert reused.value - reused_before == 225 - 4
        assert scan_results_equal(result, reference_scan(detector, edited))

    def test_tile_memo_holds_one_tile_per_lattice_position(self):
        extractor = SlidingFeatureExtractor(ECO_FEATURES, tile_blocks=16)
        layout = eco_chip()
        rows, cols, _ = extractor.grid_shape(layout.region)
        positions = -(-rows // 16) * -(-cols // 16)
        rng = np.random.default_rng(0)
        for _ in range(30):
            layout = copy_layout(layout)
            layout.add(random_rect(rng, layout.region, size=(60, 200)))
            x = int(rng.integers(0, cols - 18)) * extractor.block_nm
            y = int(rng.integers(0, rows - 18)) * extractor.block_nm
            region = Rect(x, y, x + 1800, y + 1800)
            grid = extractor.coefficient_grid(layout, region=region)
            fresh = SlidingFeatureExtractor(ECO_FEATURES, tile_blocks=16)
            assert np.array_equal(
                grid, fresh.coefficient_grid(layout, region=region)
            )
            assert len(extractor._tiles) <= positions
            assert all(
                r % 16 == 0 and c % 16 == 0 and r < rows and c < cols
                for r, c in extractor._tiles
            )
