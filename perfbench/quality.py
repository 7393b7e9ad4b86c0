"""Table-2 quality on one fixed labelled suite, through each workload's path.

Every workload reports ``accuracy`` (hotspot recall, Table 2) and
``false_alarms`` on the same held-out suite of coarse-oracle-labelled
clips. ``train`` scores the detector it trained with ``evaluate``.
``scan``, ``eco`` and ``serve`` score the model fixture through their
own path: the suite's clips are tiled one per 1200 nm site onto a chip,
which ``scan`` and ``eco`` scan with a ``ScanFarm(workers=1)`` at the
clip pitch (each window is exactly one clip) and ``serve`` cuts into
tensors and posts to the server. A later change that makes a path
faster by scoring it worse moves these figures.

The suite is fixed rather than drawn from ``--seed``: Table-2 quality is
only comparable on one suite (trained on different seeded suites, recall
ranged 35-55% and false alarms 13-28).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

import harness
from repro.core.metrics import evaluate_predictions
from repro.data.dataset import HotspotDataset
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.scanfarm import ScanFarm

SUITE_SEED = 2017
SUITE = (30, 60)  # hotspots, non-hotspots
TINY_SUITE = (4, 6)
SITE_NM = 1200
THRESHOLD = 0.5


def held_out_suite(tiny: bool) -> HotspotDataset:
    """The fixed held-out suite, labelled by the coarse litho oracle."""
    generator = ClipGenerator(
        GeneratorConfig(
            seed=SUITE_SEED,
            oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8)),
        )
    )
    counts = TINY_SUITE if tiny else SUITE
    return HotspotDataset(generator.generate(*counts), name="held-out")


def suite_digest(suite: HotspotDataset) -> List:
    return [
        (clip.label, sorted(r.as_tuple() for r in clip.rects))
        for clip in suite.clips
    ]


def suite_chip(suite: HotspotDataset) -> Tuple[Layout, List[Rect]]:
    """The suite's clips tiled one per site, row by row; returns the chip
    and each clip's site window, in suite order."""
    columns = math.ceil(math.sqrt(len(suite)))
    rows = math.ceil(len(suite) / columns)
    layout = Layout(Rect(0, 0, columns * SITE_NM, rows * SITE_NM), bin_nm=SITE_NM)
    sites = []
    for index, clip in enumerate(suite.clips):
        x, y = (index % columns) * SITE_NM, (index // columns) * SITE_NM
        site = Rect(x, y, x + SITE_NM, y + SITE_NM)
        dx, dy = x - clip.window.x_lo, y - clip.window.y_lo
        for rect in clip.rects:
            placed = rect.translated(dx, dy).clipped_to(site)
            if placed is not None and placed.width > 0 and placed.height > 0:
                layout.add(placed)
        sites.append(site)
    return layout, sites


def table2(labels: Sequence[int], flags: Sequence[bool]) -> Dict[str, float]:
    metrics = evaluate_predictions(
        np.asarray(labels), np.asarray(flags, dtype=int)
    )
    return {
        "accuracy": metrics.accuracy,
        "false_alarms": float(metrics.false_alarms),
    }


def scan_quality(detector, suite: HotspotDataset) -> Dict[str, float]:
    """Quality of a cache-less single-process farm scan of the suite chip."""
    layout, sites = suite_chip(suite)
    farm = ScanFarm(detector, stride_nm=SITE_NM, workers=1, threshold=THRESHOLD)
    result = farm.scan(layout)
    position = {window: i for i, window in enumerate(result.windows)}
    flagged = set(result.flagged_indices)
    if any(site not in position for site in sites):
        raise harness.BenchError("suite chip scan missed a site window")
    return table2(suite.labels, [position[site] in flagged for site in sites])
