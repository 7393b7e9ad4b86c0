"""``scan``: cold full-chip scans at the block pitch.

Each op scans one seeded plain chip (no array macros) with
``ScanFarm(workers=1)`` at a 100 nm stride — the finest grid-aligned
stride, so window count, and with it inference, dominates — into a fresh
cache directory that receives every window. Checks re-score a seeded
sample of each chip's windows through the per-clip path
(``predict_proba`` on ``layout.clip_at``) and require the same flags.

An op is one chip: ``ops_per_s`` counts chips, ``p50_ms`` and
``tail_ms`` are per-chip scan times, and ``tail_ms`` is the slowest
chip (a run holds about ten). ``samples_per_s`` counts the windows the
network scored (duplicates inherit a score). ``accuracy`` and
``false_alarms`` come from :mod:`quality`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

import chipscan
import harness
import quality
from repro.data.fullchip import FullChipSpec, make_layout

STRIDE_NM = 100
SITES = 4            # chip side in 1200 nm sites: 37 x 37 = 1369 windows
TINY_SITES = 2
CHECKED_WINDOWS = 4  # per chip, through the per-clip path
SETUP_SAMPLES = 3
TAIL_PERCENTILE = 100.0


def setup(ctx: harness.Context) -> Dict[str, Any]:
    detector = chipscan.load_detector()
    farm = chipscan.build_farm(detector, STRIDE_NM)
    return {"detector": detector, "farm": farm}


def _chip(ctx: harness.Context, index: int):
    sites = TINY_SITES if ctx.tiny else SITES
    spec = FullChipSpec(
        tiles_x=sites,
        tiles_y=sites,
        seed=harness.derive_seed(ctx.seed, "scan-chip", index) % 2**32,
    )
    return make_layout(spec)


def _check(state, layout, result, ctx, index) -> bool:
    rng = np.random.default_rng(harness.derive_seed(ctx.seed, "scan-check", index))
    indices = sorted(
        rng.choice(result.window_count, size=CHECKED_WINDOWS, replace=False).tolist()
    )
    return chipscan.per_clip_flags_agree(
        state["detector"], layout, result, indices, state["farm"].threshold
    )


def run(ctx: harness.Context, state: Dict[str, Any]) -> harness.Outcome:
    farm = state["farm"]
    probe = ctx.probe
    seconds: List[float] = []
    raw: List[float] = []
    windows = 0
    failed = 0
    scanned = []
    digests = []
    scored_before = harness.scored_windows()
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds or not seconds:
        index = len(seconds)
        layout = _chip(ctx, index)
        digests.append(chipscan.layout_digest(layout))
        with harness.work_dir("scan-cache-") as cache_dir:
            farm.cache_dir = cache_dir
            result, raw_s, scaled_s = probe.scaled(lambda: farm.scan(layout))
        seconds.append(scaled_s)
        raw.append(raw_s)
        windows += result.window_count
        scanned.append((layout, result))
    scored = harness.scored_windows() - scored_before
    peak = harness.peak_rss_mb()  # before the per-clip checks
    for index, (layout, result) in enumerate(scanned):
        if not _check(state, layout, result, ctx, index):
            failed += 1
    suite = quality.held_out_suite(ctx.tiny)
    values = {
        "setup_s": harness.setup_seconds(ctx, SETUP_SAMPLES),
        "peak_rss_mb": peak,
        "ops_per_s": len(seconds) / sum(seconds),
        "windows_per_s": windows / sum(seconds),
        "samples_per_s": scored / sum(seconds),
    }
    values.update(harness.latency_metrics(seconds, TAIL_PERCENTILE))
    values.update(quality.scan_quality(state["detector"], suite))
    return harness.Outcome(
        values=values,
        attempted=len(seconds),
        failed=failed,
        inputs=harness.inputs_digest(digests, quality.suite_digest(suite)),
        extra_env={
            "chips": len(seconds),
            "windows": windows,
            "raw_windows_per_s": windows / sum(raw),
            "host_probe_ms": probe.median_ms(),
        },
    )


def trace(ctx: harness.Context, state: Dict[str, Any]) -> harness.Outcome:
    """Each chip scanned twice, fresh cache each time: the black-box farm
    call (untraced reference) and the traced decomposition, which must
    match it bit for bit."""
    farm = state["farm"]
    bench_trace = harness.Trace()
    counts: Dict[str, float] = {}
    untraced: List[float] = []
    failed = 0
    digests = []
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds or not untraced:
        layout = _chip(ctx, len(untraced))
        digests.append(chipscan.layout_digest(layout))
        with harness.work_dir("scan-cache-") as cache_dir:
            farm.cache_dir = cache_dir
            tick = time.perf_counter()
            reference = farm.scan(layout)
            untraced.append(time.perf_counter() - tick)
        with harness.work_dir("scan-cache-") as cache_dir:
            farm.cache_dir = cache_dir
            result = chipscan.traced_scan(bench_trace, farm, layout, counts)
        if not np.array_equal(result.probabilities, reference.probabilities):
            failed += 1
    if not bench_trace.reconciles():
        failed += 1
    values = chipscan.per_layer_values(
        bench_trace, counts, state["detector"], untraced
    )
    return harness.Outcome(
        values=values,
        attempted=len(untraced),
        failed=failed,
        inputs=harness.inputs_digest(digests),
        stage_table=bench_trace.stage_table(),
    )
