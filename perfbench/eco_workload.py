"""``eco``: incremental re-scans after single-site edits.

Set-up fills a scan cache with a cold scan of a seeded chip whose sites
are 75% array macros. Each op applies the next seeded edit — one added
rectangle inside a random stride cell, cumulative — and re-scans the revision at
the default half-clip stride against that cache. A re-scan re-scores
only the handful of windows the edit touched, but re-encodes every grid
tile they cover and fingerprints every window of the chip. Checks
require sampled revisions to give the same flagged windows and regions
as a cache-less scan of the same revision.

An op is one edit: ``windows_per_s`` counts the chip windows each
re-scan answers (cached or not), ``samples_per_s`` the windows the
network re-scored. ``accuracy`` and ``false_alarms`` come from
:mod:`quality`.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Any, Dict, List

import numpy as np

import chipscan
import harness
import quality
from repro.data.fullchip import FullChipSpec, make_layout
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect

TAIL_PERCENTILE = 75.0
STRIDE_NM = 600
SITES = 8
TINY_SITES = 3
SITE_NM = 1200
EDIT_MAX_NM = 200
ARRAY_FRACTION = 0.75
CHECKED_EDITS = 2
SETUP_SAMPLES = 3


def setup(ctx: harness.Context) -> Dict[str, Any]:
    detector = chipscan.load_detector()
    farm = chipscan.build_farm(detector, STRIDE_NM)
    with ctx.stopwatch.paused():
        sites = TINY_SITES if ctx.tiny else SITES
        base = make_layout(
            FullChipSpec(
                tiles_x=sites,
                tiles_y=sites,
                seed=harness.derive_seed(ctx.seed, "eco-chip") % 2**32,
                array_fraction=ARRAY_FRACTION,
            )
        )
        farm.cache_dir = ctx.exits.enter_context(harness.work_dir("eco-cache-"))
    farm.scan(base)  # the cold fill is part of set-up
    return {"detector": detector, "farm": farm, "base": base, "sites": sites}


def _edits(ctx: harness.Context, base: Layout, sites: int):
    """Endless seeded revisions, each the previous plus one rectangle.

    Each rectangle lies inside one interior stride cell (a quarter site),
    so every edit dirties the same 2 x 2 windows and re-encodes the 2 x 2
    grid tiles under them: edits differ in place and content, not in how
    much of the chip they invalidate.
    """
    rng = np.random.default_rng(harness.derive_seed(ctx.seed, "eco-edits"))
    cells = sites * SITE_NM // STRIDE_NM
    current = base
    while True:
        x = base.region.x_lo + int(rng.integers(1, cells - 1)) * STRIDE_NM
        y = base.region.y_lo + int(rng.integers(1, cells - 1)) * STRIDE_NM
        x += int(rng.integers(40, STRIDE_NM - EDIT_MAX_NM - 40))
        y += int(rng.integers(40, STRIDE_NM - EDIT_MAX_NM - 40))
        rect = Rect(
            x,
            y,
            x + int(rng.integers(60, EDIT_MAX_NM)),
            y + int(rng.integers(60, EDIT_MAX_NM)),
        )
        revision = Layout(current.region)
        for existing in current.query(current.region):
            revision.add(existing)
        revision.add(rect)
        current = revision
        yield rect.as_tuple(), revision


def _loop(ctx, state, op, needed=1):
    """Run ``op(revision)`` over seeded edits for the measured time and
    at least ``needed`` edits."""
    edits = _edits(ctx, state["base"], state["sites"])
    rects = []
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds or len(rects) < needed:
        rect, revision = next(edits)
        rects.append(rect)
        op(revision)
    return rects


def run(ctx: harness.Context, state: Dict[str, Any]) -> harness.Outcome:
    farm = state["farm"]
    probe = ctx.probe
    needed = harness.tail_sample_count(TAIL_PERCENTILE)
    rng = np.random.default_rng(harness.derive_seed(ctx.seed, "eco-checks"))
    # Checked revisions come from the edits every run makes, and only
    # they are kept: peak memory is the program's, not a revision log's.
    checked = sorted(rng.choice(needed, size=CHECKED_EDITS, replace=False).tolist())
    seconds: List[float] = []
    raw: List[float] = []
    kept = {}
    windows = [0]

    def op(revision):
        result, raw_s, scaled_s = probe.scaled(lambda: farm.scan(revision))
        if len(seconds) in checked:
            kept[len(seconds)] = (revision, result)
        seconds.append(scaled_s)
        raw.append(raw_s)
        windows[0] += result.window_count

    scored_before = harness.scored_windows()
    rects = _loop(ctx, state, op, needed)
    scored = harness.scored_windows() - scored_before
    peak = harness.peak_rss_mb()  # before the checks' cache-less scans
    cacheless = chipscan.build_farm(state["detector"], STRIDE_NM)
    failed = sum(
        not chipscan.same_flags(result, cacheless.scan(revision))
        for revision, result in kept.values()
    )
    suite = quality.held_out_suite(ctx.tiny)
    values = {
        "setup_s": harness.setup_seconds(ctx, SETUP_SAMPLES),
        "peak_rss_mb": peak,
        "ops_per_s": len(seconds) / sum(seconds),
        "windows_per_s": windows[0] / sum(seconds),
        "samples_per_s": scored / sum(seconds),
    }
    values.update(harness.latency_metrics(seconds, TAIL_PERCENTILE))
    values.update(quality.scan_quality(state["detector"], suite))
    return harness.Outcome(
        values=values,
        attempted=len(seconds),
        failed=failed,
        inputs=harness.inputs_digest(
            chipscan.layout_digest(state["base"]), rects, quality.suite_digest(suite)
        ),
        extra_env={
            "edits": len(seconds),
            "checked_edits": checked,
            "raw_p50_ms": statistics.median(raw) * 1000.0,
            "host_probe_ms": probe.median_ms(),
        },
    )


def trace(ctx: harness.Context, state: Dict[str, Any]) -> harness.Outcome:
    """Each revision re-scanned twice from identical caches: the black-box
    farm call (untraced reference) and the traced decomposition, which
    must match it bit for bit."""
    farm = state["farm"]
    cache = farm.cache_dir
    bench_trace = harness.Trace()
    counts: Dict[str, float] = {}
    untraced: List[float] = []
    failures = []

    def op(revision):
        with harness.work_dir("eco-twin-") as twin:
            shutil.copytree(cache, twin, dirs_exist_ok=True)
            farm.cache_dir = cache
            tick = time.perf_counter()
            reference = farm.scan(revision)
            untraced.append(time.perf_counter() - tick)
            farm.cache_dir = twin
            result = chipscan.traced_scan(bench_trace, farm, revision, counts)
            farm.cache_dir = cache
        failures.append(
            not np.array_equal(result.probabilities, reference.probabilities)
        )

    rects = _loop(ctx, state, op)
    failed = sum(failures) + (0 if bench_trace.reconciles() else 1)
    values = chipscan.per_layer_values(
        bench_trace, counts, state["detector"], untraced
    )
    return harness.Outcome(
        values=values,
        attempted=len(untraced),
        failed=failed,
        inputs=harness.inputs_digest(chipscan.layout_digest(state["base"]), rects),
        stage_table=bench_trace.stage_table(),
    )
