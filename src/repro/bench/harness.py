"""Shared benchmark plumbing.

Environment knobs (all optional):

- ``REPRO_BENCH_SCALE`` — multiplier on the paper's Table-2 clip counts
  (default 0.015; 1.0 is the full-size suites).
- ``REPRO_BENCH_ITERS`` — MGD iteration cap per training round.
- ``REPRO_DATA_CACHE`` — suite cache directory (see repro.data.benchmarks).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.config import DetectorConfig
from repro.core.metrics import DetectionMetrics
from repro.data.dataset import HotspotDataset
from repro.features.tensor import FeatureTensorConfig
from repro.nn.trainer import TrainerConfig

#: Default scale on the paper's clip counts, chosen for single-CPU runs.
DEFAULT_BENCH_SCALE = 0.015

#: Default MGD iteration cap per round at bench scale.
DEFAULT_BENCH_ITERS = 2500


def bench_scale() -> float:
    """Suite scale for benchmark runs (env-overridable)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_BENCH_SCALE))


def bench_iterations() -> int:
    """Training iteration cap for benchmark runs (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_ITERS", DEFAULT_BENCH_ITERS))


def bench_detector_config(
    bias_rounds: int = 2,
    seed: int = 0,
    max_iterations: int | None = None,
    compute_dtype: str = "float64",
) -> DetectorConfig:
    """The CNN configuration used by the benchmark experiments.

    Paper hyper-parameters (α = 0.5, δε = 0.1, 25 % validation) with the
    iteration budget and LR-decay step scaled to the suite sizes this
    reproduction trains on. ``compute_dtype`` selects the numeric
    precision of the network; the float64 default keeps the historical
    bitwise path.
    """
    iterations = max_iterations if max_iterations is not None else bench_iterations()
    return DetectorConfig(
        feature=FeatureTensorConfig(),
        compute_dtype=compute_dtype,
        learning_rate=2e-3,
        lr_alpha=0.5,
        lr_decay_every=max(1, int(iterations * 0.4)),
        epsilon_step=0.1,
        bias_rounds=bias_rounds,
        # Dihedral augmentation multiplies the minority class by up to 8x;
        # essential on the hotspot-poor ICCAD-like suite at bench scale.
        augment_hotspots=True,
        trainer=TrainerConfig(
            batch_size=64,
            max_iterations=iterations,
            validate_every=max(1, iterations // 20),
            patience=8,
            min_iterations=iterations // 2,
            seed=seed,
        ),
        seed=seed,
    )


@dataclass(frozen=True)
class DetectorRun:
    """One detector trained and evaluated on one suite."""

    detector_name: str
    suite_name: str
    train_seconds: float
    metrics: DetectionMetrics

    def row(self) -> tuple:
        """Table-2 row fragment: FA#, CPU(s), ODST(s), Accu(%)."""
        m = self.metrics
        return (
            m.false_alarms,
            round(m.evaluation_seconds, 2),
            round(m.odst_seconds, 1),
            f"{m.accuracy * 100:.1f}%",
        )


def run_detector(
    detector,
    train: HotspotDataset,
    test: HotspotDataset,
    suite_name: str = "",
) -> DetectorRun:
    """Fit ``detector`` on ``train``, evaluate on ``test``, time both."""
    start = time.perf_counter()
    detector.fit(train)
    train_seconds = time.perf_counter() - start
    metrics = detector.evaluate(test)
    return DetectorRun(
        detector_name=getattr(detector, "name", type(detector).__name__),
        suite_name=suite_name or train.name,
        train_seconds=train_seconds,
        metrics=metrics,
    )
