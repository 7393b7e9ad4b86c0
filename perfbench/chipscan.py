"""Scan-farm plumbing shared by the ``scan`` and ``eco`` workloads.

Untraced ops are one black-box call, ``ScanFarm.scan``. The traced run
also performs each scan broken into the public calls it is made of —
``window_fingerprints`` → ``ScanCache`` open + ``lookup`` →
``SlidingFeatureExtractor.iter_batches`` (which builds the
``coefficient_grid``) → ``predict_proba_tensors`` →
``assemble_scan_result`` → ``ScanCache.update`` — with a benchmark span
around each, and requires the result to equal the farm's bit for bit.
Raster, DCT and per-layer inference times are read from the metrics the
program already records (``scan.raster.seconds``, ``scan.dct.seconds``,
``span.scan.grid.seconds`` and ``Sequential.enable_profiling``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

import harness
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.fullchip import ScanResult, assemble_scan_result
from repro.data.dataset import HotspotDataset
from repro.features.sliding import SlidingFeatureExtractor
from repro.geometry.layout import Layout, iter_clip_windows
from repro.obs import MetricsRegistry, set_registry
from repro.scanfarm import (
    ScanCache,
    ScanFarm,
    plan_shards,
    scan_salt,
    window_fingerprints,
)

#: Per-layer metrics both scan workloads report from a traced run:
#: metric name -> (span name, self time?).
STAGE_METRICS = {
    "scanfarm.fingerprint_s": ("scanfarm.fingerprint", False),
    "scanfarm.cache_read_s": ("scanfarm.cache_read", False),
    "geometry.raster_s": ("geometry.raster", False),
    "features.dct_s": ("features.dct", False),
    "features.tile_prep_s": ("features.tile_prep", True),
    "features.slice_s": ("features.slice", True),
    "core.infer_s": ("core.infer", False),
    "core.merge_s": ("core.merge", False),
    "scanfarm.cache_write_s": ("scanfarm.cache_write", False),
}


def load_detector() -> HotspotDetector:
    """The fixture's weights in a detector built from today's defaults."""
    return HotspotDetector(DetectorConfig()).load(harness.FIXTURE_MODEL)


def build_farm(detector: HotspotDetector, stride_nm: int) -> ScanFarm:
    """The single-process farm; the model key is part of building it."""
    farm = ScanFarm(detector, stride_nm=stride_nm, workers=1)
    farm.model_key()
    return farm


def layout_digest(layout: Layout) -> List[Tuple[int, int, int, int]]:
    return sorted(r.as_tuple() for r in layout.query(layout.region))


def same_flags(a: ScanResult, b: ScanResult) -> bool:
    """Same flagged windows and the same merged regions.

    A region's ``max_probability`` may differ in the last bits: a cached
    probability was computed in another batch than a fresh one.
    """

    def regions(result: ScanResult):
        return [(r.bbox, r.window_count) for r in result.regions]

    return a.flagged_indices == b.flagged_indices and regions(a) == regions(b)


def per_clip_flags_agree(
    detector: HotspotDetector,
    layout: Layout,
    result: ScanResult,
    indices: Sequence[int],
    threshold: float,
) -> bool:
    """Re-score sampled windows through the per-clip path; same flags?"""
    clips = [layout.clip_at(result.windows[i]) for i in indices]
    dataset = HotspotDataset(clips, name="check", allow_unlabelled=True)
    reference = detector.predict_proba(dataset)[:, 1] >= threshold
    flagged = set(result.flagged_indices)
    return all(
        bool(ref) == (i in flagged) for i, ref in zip(indices, reference)
    )


def _layer_metric_names(detector: HotspotDetector) -> List[Tuple[str, str]]:
    """(registry histogram, benchmark stage) per network layer."""
    network = detector.network
    return [
        (
            f"nn.forward.{index:02d}_{layer.name}.seconds",
            f"nn.infer.{layer.name}",
        )
        for index, layer in enumerate(network.layers)
    ]


def traced_scan(
    trace: harness.Trace,
    farm: ScanFarm,
    layout: Layout,
    counts: Dict[str, float],
    batch_size: int = 512,
) -> ScanResult:
    """One farm scan (``workers=1``) as its public calls, each in a span.

    ``counts`` accumulates the op's window and tile counts. Raster, DCT
    and tile preparation are attached under the batch-iteration span
    from the program's own histograms; per-layer inference under each
    ``core.infer`` span from the network's profiling histograms.
    """
    detector = farm.detector
    registry = MetricsRegistry()
    previous = set_registry(registry)
    layers = _layer_metric_names(detector)
    detector.network.enable_profiling(registry)

    def total(name: str) -> float:
        return registry.histogram(name).total

    try:
        with trace.op("scan") as op:
            started = time.perf_counter()
            windows = tuple(
                iter_clip_windows(layout.region, farm.clip_nm, farm.stride_nm)
            )
            with trace.span("scanfarm.fingerprint"):
                salt = scan_salt(
                    clip_nm=farm.clip_nm,
                    pipeline="shared",
                    model_key=farm.model_key(),
                    feature=detector.extractor.config,
                )
                fingerprints = window_fingerprints(layout, windows, salt)
            with trace.span("scanfarm.cache_read"):
                cache = ScanCache(farm.cache_dir)
                hits = cache.lookup(fingerprints)
            # Reuse exactly as the farm does: cache hits, then the first
            # window of each fingerprint stands for its duplicates.
            probabilities = np.empty(len(windows), dtype=np.float64)
            known: Dict[str, float] = {}
            representatives: List[int] = []
            duplicates: List[int] = []
            for i, fp in enumerate(fingerprints):
                if fp in hits:
                    probabilities[i] = hits[fp]
                    known.setdefault(fp, hits[fp])
                elif fp in known:
                    duplicates.append(i)
                else:
                    known[fp] = np.nan
                    representatives.append(i)
            extractor = SlidingFeatureExtractor(
                detector.extractor.config,
                clip_nm=farm.clip_nm,
                tile_blocks=farm.tile_blocks,
                workers=1,
            )
            shards = plan_shards(
                windows,
                representatives,
                region=layout.region,
                block_nm=extractor.block_nm,
                shard_count=1,
            )
            for shard in shards:
                chosen = [windows[i] for i in shard.window_indices]
                scored = np.empty(len(chosen), dtype=np.float64)
                batches = harness.Span("features.slice")
                op.children.append(batches)
                grid_before = total("span.scan.grid.seconds")
                raster_before = total("scan.raster.seconds")
                dct_before = total("scan.dct.seconds")
                iterator = extractor.iter_batches(
                    layout, chosen, batch_size, region=shard.region
                )
                while True:
                    tick = time.perf_counter()
                    item = next(iterator, None)
                    batches.seconds += time.perf_counter() - tick
                    if item is None:
                        break
                    indices, tensors = item
                    layer_before = [total(h) for h, _ in layers]
                    with trace.span("core.infer") as infer:
                        scored[indices] = detector.predict_proba_tensors(
                            tensors
                        )[:, 1]
                    for (hist, stage), before in zip(layers, layer_before):
                        trace.attach(infer, stage, total(hist) - before)
                grid = trace.attach(
                    batches,
                    "features.tile_prep",
                    total("span.scan.grid.seconds") - grid_before,
                )
                trace.attach(
                    grid,
                    "geometry.raster",
                    total("scan.raster.seconds") - raster_before,
                )
                trace.attach(
                    grid, "features.dct", total("scan.dct.seconds") - dct_before
                )
                probabilities[list(shard.window_indices)] = scored
                for i, p in zip(shard.window_indices, scored):
                    known[fingerprints[i]] = float(p)
            if duplicates:
                probabilities[duplicates] = [
                    known[fingerprints[i]] for i in duplicates
                ]
            with trace.span("core.merge"):
                result = assemble_scan_result(
                    windows, probabilities, farm.threshold, started
                )
            with trace.span("scanfarm.cache_write"):
                cache.update(
                    {fp: float(probabilities[i]) for i, fp in enumerate(fingerprints)}
                )
    finally:
        detector.network.disable_profiling()
        set_registry(previous)
    counts["windows"] = counts.get("windows", 0) + len(windows)
    counts["cache_hits"] = counts.get("cache_hits", 0) + sum(
        1 for fp in fingerprints if fp in hits
    )
    counts["deduped"] = counts.get("deduped", 0) + len(duplicates)
    counts["rescored"] = counts.get("rescored", 0) + len(representatives)
    counts["tiles"] = counts.get("tiles", 0) + registry.counter("scan.tiles").value
    return result


def per_layer_values(
    trace: harness.Trace,
    counts: Dict[str, float],
    detector: HotspotDetector,
    untraced_seconds: Sequence[float],
) -> Dict[str, float]:
    """Per-op means of every scan stage, counts and ratios."""
    ops = max(len(trace.ops), 1)
    values = {
        metric: trace.per_op(stage, self_time)
        for metric, (stage, self_time) in STAGE_METRICS.items()
    }
    for _, stage in _layer_metric_names(detector):
        values[f"{stage}_s"] = trace.per_op(stage)
    windows = max(counts.get("windows", 0), 1)
    values.update(
        {
            "features.tiles_encoded": counts.get("tiles", 0) / ops,
            "scanfarm.cache_hit_ratio": counts.get("cache_hits", 0) / windows,
            "scanfarm.dedup_ratio": counts.get("deduped", 0) / windows,
            "scanfarm.windows_rescored": counts.get("rescored", 0) / ops,
            "residual_s": trace.residual_per_op(),
            "trace_overhead": sum(trace.op_seconds()) / sum(untraced_seconds)
            - 1.0,
        }
    )
    return values

