"""Shared-raster sliding-window feature extraction.

A full-chip scan evaluates thousands of overlapping clip windows. Encoding
each window independently (rasterize, block-DCT, zig-zag, truncate) redoes
the same work many times over: at the default half-clip stride every layout
pixel is rasterised and transformed up to four times. This module removes
the redundancy by exploiting the feature tensor's block structure.

The key observation: the paper's Section-3 tensor is computed on a fixed
``B``-pixel block grid inside each clip. Whenever a window's offset from
the layout origin is a multiple of the block pitch (``B * pixel_nm``
nanometres — true for any stride that is a multiple of the block pitch,
12 strides per clip at the paper's geometry), all of its blocks land on
one *global* block grid. So the scan pipeline becomes:

1. rasterize the layout once, in tiles (bounding peak memory);
2. block-DCT + zig-zag + truncate each tile's blocks once, giving a global
   coefficient grid of shape ``(rows, cols, k)``;
3. assemble every window's ``(n, n, k)`` tensor by pure slicing.

Each layout pixel is rasterised and transformed exactly once, regardless
of stride. Tiles are keyed by the digest of their clipped geometry, and
an extractor keeps, from one call to the next, the last tile encoded at
each position of the layout region's tile lattice, with the rects it
was encoded from; the memo never holds more than one tile per position.
A block's coefficients depend only on the geometry inside it, so a
re-scan after a local edit re-rasterises and re-encodes only the block
rows of a changed tile that a rect added or removed overlaps, and
copies the tile's other rows from the memo. This extractor
runs in one process; a scan spreads across processes one level up, in
the scan farm's row-band shards (:mod:`repro.scanfarm`), each of which
encodes only its own block-aligned sub-region. The farm keeps one
extractor across its in-process scans; pool shards build their own.
Windows that do not sit on the block grid (non-aligned
strides, odd clamped edge windows) fall back to the per-clip
:class:`~repro.features.tensor.FeatureTensorExtractor` path — output
equivalence is guaranteed either way and covered by tests.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import FeatureError
from repro.features.tensor import (
    FeatureTensorConfig,
    FeatureTensorExtractor,
    encode_block_grid,
)
from repro.geometry.fingerprint import geometry_digest
from repro.geometry.layout import Layout
from repro.geometry.raster import rasterize_rects
from repro.geometry.rect import Rect
from repro.obs import emit, get_registry, span
from repro.testing.faults import maybe_fail


class _Tile(NamedTuple):
    """One memoised tile: its digest, the rects it was encoded from (as
    ``Layout.query`` returned them) and its ``(rows, cols, k)``
    coefficients."""

    digest: str
    rects: Tuple[Rect, ...]
    coefficients: np.ndarray


class SlidingFeatureExtractor:
    """Encodes all scan windows of a layout against one global DCT grid.

    Parameters
    ----------
    config:
        Feature-tensor hyper-parameters; must match the detector's.
    clip_nm:
        Scan window size; fixes the block pitch via
        ``config.block_size_px(clip_nm)``.
    tile_blocks:
        Tile side length in blocks for the shared rasterisation. The
        default (16 blocks = 1600 px at the paper's geometry) keeps each
        tile raster around 10 MB.
    workers:
        Accepted for callers that pass ``workers=1``; this extractor
        always runs in-process and any other value raises
        :class:`~repro.exceptions.FeatureError`. Parallel scans shard
        through :class:`repro.scanfarm.ScanFarm` instead.
    max_retries:
        Retries per failing tile (transient failures such as flaky NFS
        reads). A tile still failing after its retry budget raises
        :class:`~repro.exceptions.FeatureError`.
    retry_backoff:
        Base pause in seconds before a retry; doubles per attempt and is
        capped at one second, so a retry storm cannot stall a scan.
    """

    name = "sliding_feature_tensor"

    def __init__(
        self,
        config: FeatureTensorConfig = FeatureTensorConfig(),
        clip_nm: int = 1200,
        tile_blocks: int = 16,
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ):
        if tile_blocks < 1:
            raise FeatureError(f"tile_blocks must be >= 1, got {tile_blocks}")
        if workers != 1:
            raise FeatureError(
                f"workers must be 1, got {workers} (scan in parallel "
                f"through ScanFarm(workers=...))"
            )
        if max_retries < 0:
            raise FeatureError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise FeatureError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.config = config
        self.clip_nm = clip_nm
        self.tile_blocks = tile_blocks
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        # Validates clip/pixel/block divisibility and k capacity eagerly.
        self.block_px = config.block_size_px(clip_nm)
        self.block_nm = self.block_px * config.pixel_nm
        self._per_clip = FeatureTensorExtractor(config)
        #: Tiles encoded for ``_tiles_region``: lattice position (block
        #: row, block col) -> (geometry digest, rects, coefficients).
        self._tiles: Dict[Tuple[int, int], _Tile] = {}
        self._tiles_region: Optional[Rect] = None

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """``(n, n, k)`` — identical to the per-clip extractor."""
        return self._per_clip.output_shape

    # ------------------------------------------------------------------
    # Global coefficient grid
    # ------------------------------------------------------------------
    def grid_shape(self, region: Rect) -> Tuple[int, int, int]:
        """Block rows/cols covering ``region`` (padded up to whole blocks)."""
        rows = -(-region.height // self.block_nm)
        cols = -(-region.width // self.block_nm)
        return rows, cols, self.config.coefficients

    def _check_subregion(self, full: Rect, region: Rect) -> Tuple[int, int]:
        """Validate a block-aligned sub-region; return its block offset."""
        dx = region.x_lo - full.x_lo
        dy = region.y_lo - full.y_lo
        if (
            dx < 0
            or dy < 0
            or region.x_hi > full.x_hi
            or region.y_hi > full.y_hi
            or dx % self.block_nm
            or dy % self.block_nm
        ):
            raise FeatureError(
                f"sub-region {region.as_tuple()} is not a block-aligned "
                f"({self.block_nm} nm) sub-rectangle of {full.as_tuple()}"
            )
        return dy // self.block_nm, dx // self.block_nm

    def coefficient_grid(
        self, layout: Layout, region: Optional[Rect] = None
    ) -> np.ndarray:
        """Truncated block-DCT coefficients of ``region`` of the layout.

        Returns ``(rows, cols, k)`` float32 where entry ``[r, c]`` is the
        zig-zag-truncated DCT of the block whose lower-left corner sits at
        ``block_nm * (c, r)`` from the region origin. The region is padded
        up to whole blocks on the high side; padding blocks (and blocks of
        empty tiles) are all-zero, matching what encoding an empty raster
        would produce.

        ``region`` (default: the whole layout region) restricts the grid
        to a block-aligned sub-rectangle — how a scan-farm shard computes
        only its own slice of the chip. Tiles stay anchored to the *full*
        region's tile lattice, so every tile task a sub-region produces is
        byte-identical to the task the full grid would produce for that
        tile, and the returned sub-grid equals the matching slice of the
        full grid bit for bit (the property the farm's equivalence tests
        pin).

        Tiles with identical clipped geometry (standard-cell arrays,
        repeated macros) are encoded once and copied — fingerprinted via
        :func:`~repro.geometry.fingerprint.geometry_digest`, so the reuse
        is exact, never approximate. The same digests carry tiles across
        calls: the extractor keeps the last coefficients encoded at each
        tile position of the layout region, and a tile whose digest
        matches one of them is copied, not encoded (``scan.tiles_reused``).
        The memo holds at most one tile per lattice position and is
        dropped when the layout region changes.

        A tile whose digest is new but whose position holds an earlier
        tile is encoded band by band: the block rows that a rect added
        or removed since that tile overlaps are re-rasterised and
        re-encoded, each maximal run of them at the tile's full width in
        one :func:`~repro.features.dct.block_dct` call, and every other
        row is copied from the earlier tile. A row no changed rect
        overlaps rasterises to the same pixels, and ``block_dct`` encodes
        a band of rows bit for bit as it does inside the whole tile, so
        the result is the whole-tile encoding exactly. A re-scan after a
        local edit therefore encodes only the block rows the edit
        touched (``scan.block_rows``; ``scan.tiles`` still counts tiles,
        whole or partial). A tile with no earlier entry, or with every
        row touched, is one run: the whole-tile encoding.
        """
        full = layout.region
        full_rows, full_cols, k = self.grid_shape(full)
        if full != self._tiles_region:
            self._tiles.clear()
            self._tiles_region = full
        held = {t.digest: t.coefficients for t in self._tiles.values()}
        if region is None:
            region = full
            r0 = c0 = 0
            rows, cols = full_rows, full_cols
        else:
            r0, c0 = self._check_subregion(full, region)
            rows, cols, _ = self.grid_shape(region)
        grid = np.zeros((rows, cols, k), dtype=np.float32)
        #: Placements: (grid row, grid col, rects, digest) per non-empty
        #: tile.
        placements: List[Tuple[int, int, Tuple[Rect, ...], str]] = []
        #: Unique non-empty tiles to encode, by digest: (rects, tile
        #: window, the memo's earlier tile at that position or None).
        tiles: Dict[str, Tuple[Tuple[Rect, ...], Rect, Optional[_Tile]]] = {}
        #: Unique tiles encoded by an earlier call, by digest.
        coefficients: Dict[str, np.ndarray] = {}
        duplicates = 0
        tile = self.tile_blocks
        for b_row in range(r0 - r0 % tile, r0 + rows, tile):
            for b_col in range(c0 - c0 % tile, c0 + cols, tile):
                hi_row = min(b_row + tile, full_rows)
                hi_col = min(b_col + tile, full_cols)
                window = Rect(
                    full.x_lo + b_col * self.block_nm,
                    full.y_lo + b_row * self.block_nm,
                    full.x_lo + hi_col * self.block_nm,
                    full.y_lo + hi_row * self.block_nm,
                )
                rects = tuple(layout.query(window))
                if not rects:
                    # Empty tile: grid already zero.
                    self._tiles.pop((b_row, b_col), None)
                    continue
                digest = geometry_digest(rects, window)
                if digest in tiles or digest in coefficients:
                    duplicates += 1
                elif digest in held:
                    coefficients[digest] = held[digest]
                else:
                    tiles[digest] = (
                        rects,
                        window,
                        self._tiles.get((b_row, b_col)),
                    )
                placements.append((b_row, b_col, rects, digest))
        registry = get_registry()
        if duplicates:
            registry.counter("scan.tiles_deduped").inc(duplicates)
        reused = len(coefficients)
        if reused:
            registry.counter("scan.tiles_reused").inc(reused)
        with span("scan.grid", tiles=len(tiles)) as record:
            for index, (digest, (rects, window, earlier)) in enumerate(
                tiles.items()
            ):
                coefficients[digest] = self._encode_tile(
                    index, rects, window, earlier
                )
            for b_row, b_col, rects, digest in placements:
                coeffs = coefficients[digest]
                self._tiles[(b_row, b_col)] = _Tile(digest, rects, coeffs)
                t_rows, t_cols = coeffs.shape[:2]
                # Intersect the tile's block span with the requested
                # sub-grid (tiles straddle shard edges by design).
                lo_r = max(b_row, r0)
                lo_c = max(b_col, c0)
                hi_r = min(b_row + t_rows, r0 + rows)
                hi_c = min(b_col + t_cols, c0 + cols)
                grid[lo_r - r0 : hi_r - r0, lo_c - c0 : hi_c - c0] = coeffs[
                    lo_r - b_row : hi_r - b_row, lo_c - b_col : hi_c - b_col
                ]
            record.attrs["grid_shape"] = (rows, cols, k)
            record.attrs["tiles_deduped"] = duplicates
            record.attrs["tiles_reused"] = reused
        return grid

    def _dirty_runs(
        self, rects: Tuple[Rect, ...], window: Rect, earlier: Optional[_Tile]
    ) -> List[Tuple[int, int]]:
        """Maximal runs ``[lo, hi)`` of the tile's block rows to encode.

        Without an earlier tile that is every row. Otherwise it is the
        rows overlapped by a rect of the multiset difference between the
        earlier tile's rects and ``rects`` (a multiset, because
        :func:`~repro.geometry.fingerprint.geometry_digest` hashes
        duplicate rects). Every rect of a tile overlaps it, so a changed
        rect dirties at least one row.
        """
        t_rows = window.height // self.block_nm
        if earlier is None:
            return [(0, t_rows)]
        before, after = Counter(earlier.rects), Counter(rects)
        # Row r is dirty[r + 1]; the False ends close every run.
        dirty = np.zeros(t_rows + 2, dtype=bool)
        for rect in (before - after) + (after - before):
            lo = max(0, (rect.y_lo - window.y_lo) // self.block_nm)
            hi = min(t_rows, -((window.y_lo - rect.y_hi) // self.block_nm))
            dirty[lo + 1 : hi + 1] = True
        edges = np.flatnonzero(dirty[1:] != dirty[:-1]).tolist()
        return list(zip(edges[::2], edges[1::2]))

    def _encode_tile(
        self,
        index: int,
        rects: Tuple[Rect, ...],
        window: Rect,
        earlier: Optional[_Tile],
    ) -> np.ndarray:
        """Rasterise one tile and reduce its blocks to truncated DCT vectors.

        Only the runs of :meth:`_dirty_runs` are rasterised and encoded,
        each as a band of the tile's full width; the other rows come from
        ``earlier``. A failing attempt is retried after a bounded,
        doubling pause; once the retry budget is spent the tile raises
        :class:`~repro.exceptions.FeatureError`. A finished tile records
        its wall-clock in ``scan.raster.seconds`` / ``scan.dct.seconds``,
        bumps ``scan.tiles`` and adds its encoded rows to
        ``scan.block_rows``.
        """
        runs = self._dirty_runs(rects, window, earlier)
        encoded = sum(hi - lo for lo, hi in runs)
        whole = encoded == window.height // self.block_nm
        attempts = 0
        while True:
            try:
                maybe_fail("scan.tile", index)
                # A partial tile's array is made before any band's scratch
                # arrays, as block_dct makes a whole tile's: the memo's
                # long-lived arrays then do not pin freed scratch space.
                coefficients = None if whole else earlier.coefficients.copy()
                raster_s = dct_s = 0.0
                for lo, hi in runs:
                    band = Rect(
                        window.x_lo,
                        window.y_lo + lo * self.block_nm,
                        window.x_hi,
                        window.y_lo + hi * self.block_nm,
                    )
                    started = time.perf_counter()
                    image = rasterize_rects(rects, band, self.config.pixel_nm)
                    rastered = time.perf_counter()
                    rows = encode_block_grid(
                        image, self.block_px, self.config.coefficients
                    )
                    raster_s += rastered - started
                    dct_s += time.perf_counter() - rastered
                    if whole:
                        coefficients = rows
                    else:
                        coefficients[lo:hi] = rows
                break
            except Exception as exc:
                attempts += 1
                emit(
                    "scan.retry",
                    level="warning",
                    tile=index,
                    attempt=attempts,
                    max_retries=self.max_retries,
                    error=str(exc),
                )
                get_registry().counter("scan.tile_retries").inc()
                if attempts > self.max_retries:
                    raise FeatureError(
                        f"tile {index} failed {attempts} times (last: {exc})"
                    ) from exc
                time.sleep(min(self.retry_backoff * 2 ** (attempts - 1), 1.0))
        registry = get_registry()
        registry.histogram("scan.raster.seconds").observe(raster_s)
        registry.histogram("scan.dct.seconds").observe(dct_s)
        registry.counter("scan.tiles").inc()
        registry.counter("scan.block_rows").inc(encoded)
        return coefficients

    # ------------------------------------------------------------------
    # Window assembly
    # ------------------------------------------------------------------
    def is_aligned(self, window: Rect, region: Rect) -> bool:
        """True when ``window``'s tensor can be sliced from the grid."""
        if window.width != self.clip_nm or window.height != self.clip_nm:
            return False
        dx = window.x_lo - region.x_lo
        dy = window.y_lo - region.y_lo
        return (
            dx >= 0
            and dy >= 0
            and dx % self.block_nm == 0
            and dy % self.block_nm == 0
            and window.x_hi <= region.x_hi
            and window.y_hi <= region.y_hi
        )

    def iter_batches(
        self,
        layout: Layout,
        windows: Sequence[Rect],
        batch_size: int = 512,
        region: Optional[Rect] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream ``(indices, tensors)`` batches over ``windows``.

        ``indices`` is the ``int64`` positions of the batch within
        ``windows`` (always a contiguous ascending run) and ``tensors`` the
        matching ``(len(indices), n, n, k)`` float32 stack. Aligned windows
        are sliced from the shared coefficient grid (computed once, on
        first need); the rest go through per-clip extraction.

        ``region`` restricts the coefficient grid to a block-aligned
        sub-rectangle of the layout (see :meth:`coefficient_grid`) — the
        scan-farm shard path. Windows that are grid-aligned but fall
        outside ``region`` take the per-clip fallback, so any window set
        remains valid for any region.
        """
        if batch_size < 1:
            raise FeatureError(f"batch_size must be >= 1, got {batch_size}")
        if region is not None:
            self._check_subregion(layout.region, region)
        aligned_region = layout.region if region is None else region
        aligned = [self.is_aligned(w, aligned_region) for w in windows]
        fallback_count = len(aligned) - sum(aligned)
        if fallback_count:
            get_registry().counter("scan.windows_fallback").inc(fallback_count)
        grid: Optional[np.ndarray] = (
            self.coefficient_grid(layout, region=region)
            if any(aligned)
            else None
        )
        n = self.config.block_count
        k = self.config.coefficients
        for lo in range(0, len(windows), batch_size):
            chunk = windows[lo : lo + batch_size]
            tensors = np.empty((len(chunk), n, n, k), dtype=np.float32)
            for i, window in enumerate(chunk):
                if aligned[lo + i]:
                    row = (window.y_lo - aligned_region.y_lo) // self.block_nm
                    col = (window.x_lo - aligned_region.x_lo) // self.block_nm
                    tensors[i] = grid[row : row + n, col : col + n]
                else:
                    tensors[i] = self._per_clip.extract(layout.clip_at(window))
            yield np.arange(lo, lo + len(chunk), dtype=np.int64), tensors

    def extract_windows(
        self, layout: Layout, windows: Sequence[Rect]
    ) -> np.ndarray:
        """All window tensors at once: ``(len(windows), n, n, k)`` float32."""
        n = self.config.block_count
        k = self.config.coefficients
        out = np.empty((len(windows), n, n, k), dtype=np.float32)
        for indices, tensors in self.iter_batches(layout, windows):
            out[indices] = tensors
        return out
