"""Accuracy vs label budget: active selection strategies (extension).

Not a paper table — this measures the label-scarce scenario the paper's
ODST cost model implies: ground truth costs full litho simulation (10 s
a clip), so what matters is detector quality *per simulation second*.
Three selection strategies run the :class:`repro.active.ActiveLearningLoop`
over the same pool at the same 40 % label budget:

- ``random`` — the control arm;
- ``uncertainty`` — top-B by softmax entropy;
- ``uncertainty_diversity`` — entropy pre-filter + greedy k-center in
  feature-tensor space, anchored on the labelled pool.

The acceptance pins (skipped in ``--tiny`` CI mode):

- uncertainty+diversity lands within 2 ROC-AUC points of the train-on-
  everything baseline while buying <= 40 % of its labels;
- random is demonstrably worse than uncertainty+diversity at that same
  budget.

Everything lands in ``BENCH_active.json``, whose schema
:func:`validate_active_report` checks, so later runs can be compared
against the recorded curves.

Entry points: ``pytest benchmarks/bench_active.py`` or
``python benchmarks/bench_active.py [--tiny] [--output PATH]``.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.active import ActiveLearningConfig
from repro.bench.active import (
    format_label_curves,
    full_pool_record,
    run_active_strategy,
)
from repro.bench.report import read_report, write_report
from repro.core.config import DetectorConfig
from repro.data.dataset import HotspotDataset
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.features.tensor import FeatureTensorConfig
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.nn.trainer import TrainerConfig

#: Where the label-budget record lands (repo root, next to the others).
ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_active.json"

#: Simulated litho price per label (the paper's ODST charge).
SECONDS_PER_CLIP = 10.0

#: Labels bought by each strategy arm, as a fraction of the full pool.
BUDGET_FRACTION = 0.40

STRATEGIES = ("random", "uncertainty", "uncertainty_diversity")

#: Required keys; the validator below fails the benchmark loudly if the
#: written artifact drifts from this shape (a tier-1 test also runs it
#: over the tracked BENCH_active.json).
_RESULT_KEYS = (
    "pool_size",
    "eval_size",
    "full_budget_seconds",
    "budget_fraction",
    "full_pool",
    "strategies",
)
_FULL_POOL_KEYS = (
    "labels",
    "budget_seconds",
    "roc_auc",
    "accuracy",
    "false_alarm_rate",
)
_STRATEGY_KEYS = (
    "strategy",
    "uncertainty",
    "warm_start",
    "seed",
    "labels",
    "budget_seconds",
    "budget_spent_seconds",
    "final_roc_auc",
    "final_accuracy",
    "final_false_alarm_rate",
    "stopped_reason",
    "rounds",
)
_ROUND_KEYS = (
    "round_index",
    "strategy",
    "labels_total",
    "hotspots_total",
    "budget_spent_seconds",
    "eval_accuracy",
    "eval_false_alarm_rate",
    "eval_roc_auc",
)


def validate_active_report(path):
    """Re-read BENCH_active.json and check its schema; returns the doc."""
    document = read_report(path)
    assert document["experiment"] == "active_label_budget", document
    results = document["results"]
    for key in _RESULT_KEYS:
        assert key in results, f"{path}: results missing {key!r}"
    full = results["full_pool"]
    for key in _FULL_POOL_KEYS:
        assert key in full, f"{path}: full_pool missing {key!r}"
    assert 0.0 <= full["roc_auc"] <= 1.0
    strategies = results["strategies"]
    assert isinstance(strategies, list) and strategies, (
        f"{path}: 'strategies' must be a non-empty list"
    )
    for entry in strategies:
        for key in _STRATEGY_KEYS:
            assert key in entry, (
                f"{path}: strategy entry missing {key!r}: {entry}"
            )
        assert entry["rounds"], f"{path}: {entry['strategy']} has no rounds"
        for row in entry["rounds"]:
            for key in _ROUND_KEYS:
                assert key in row, f"{path}: round entry missing {key!r}"
        assert entry["budget_spent_seconds"] <= entry["budget_seconds"] + 1e-9
        assert 0.0 <= entry["final_roc_auc"] <= 1.0
    return document


def bench_data(tiny=False):
    """(pool, eval) suites for the experiment, labelled at generation."""
    oracle = OracleConfig(optics=OpticsConfig(pixel_nm=8))
    generator = ClipGenerator(GeneratorConfig(seed=7, oracle=oracle))
    if tiny:
        pool = HotspotDataset(generator.generate(12, 24), name="active/pool")
        eval_data = HotspotDataset(
            generator.generate(8, 12), name="active/eval"
        )
    else:
        pool = HotspotDataset(generator.generate(80, 160), name="active/pool")
        eval_data = HotspotDataset(
            generator.generate(40, 80), name="active/eval"
        )
    return pool, eval_data


def bench_detector_config(tiny=False):
    """Down-scaled detector: the bench pool is small and retrained often."""
    iterations = 80 if tiny else 400
    return DetectorConfig(
        feature=FeatureTensorConfig(
            block_count=12, coefficients=16, pixel_nm=4
        ),
        learning_rate=2e-3,
        lr_decay_every=max(1, int(iterations * 0.4)),
        bias_rounds=1,
        augment_hotspots=True,
        trainer=TrainerConfig(
            batch_size=32,
            max_iterations=iterations,
            validate_every=max(1, iterations // 10),
            patience=6,
            min_iterations=iterations // 2,
            seed=0,
        ),
        seed=0,
    )


def loop_config(strategy, tiny=False):
    if tiny:
        return ActiveLearningConfig(
            strategy=strategy, seed_size=8, batch_size=4, rounds=2, seed=1
        )
    # 24 seed + 4 x 18 = 96 labels = 40% of the 240-clip pool.
    return ActiveLearningConfig(
        strategy=strategy, seed_size=24, batch_size=18, rounds=4, seed=1
    )


def run_experiment(tiny=False, output=None):
    pool, eval_data = bench_data(tiny)
    detector_config = bench_detector_config(tiny)
    budget_fraction = 0.5 if tiny else BUDGET_FRACTION
    budget_seconds = round(len(pool) * budget_fraction) * SECONDS_PER_CLIP

    full = full_pool_record(
        pool, eval_data, detector_config, SECONDS_PER_CLIP
    )
    print(
        f"\nfull pool: {full['labels']} labels "
        f"({full['budget_seconds']:g}s) -> ROC-AUC {full['roc_auc']:.4f}"
    )

    records = []
    for strategy in STRATEGIES:
        config = loop_config(strategy, tiny)
        _, record = run_active_strategy(
            pool,
            eval_data,
            detector_config,
            config,
            budget_seconds,
            SECONDS_PER_CLIP,
        )
        records.append(record)
        print(
            f"{strategy}: {record['labels']} labels "
            f"({record['budget_spent_seconds']:g}s) -> "
            f"ROC-AUC {record['final_roc_auc']:.4f}"
        )
    print("\n" + format_label_curves(records, full))

    out = Path(
        output
        or (
            Path(tempfile.mkdtemp(prefix="bench_active_tiny_"))
            / "BENCH_active.json"
            if tiny
            else ARTIFACT_PATH
        )
    )
    write_report(
        out,
        "active_label_budget",
        {
            "pool_size": len(pool),
            "eval_size": len(eval_data),
            "full_budget_seconds": float(len(pool) * SECONDS_PER_CLIP),
            "budget_fraction": budget_fraction,
            "seconds_per_clip": SECONDS_PER_CLIP,
            "full_pool": full,
            "strategies": records,
        },
        metadata={
            "pool": pool.summary(),
            "eval": eval_data.summary(),
            "tiny": tiny,
        },
    )
    validate_active_report(out)
    print(f"wrote and validated {out}")

    by_name = {r["strategy"]: r for r in records}
    for record in records:
        # Budget accounting is exact at any scale: nobody overspends, and
        # every arm stays within the configured fraction of the pool.
        assert record["budget_spent_seconds"] <= budget_seconds + 1e-9
        assert record["labels"] <= round(len(pool) * budget_fraction)
    if not tiny:
        ud = by_name["uncertainty_diversity"]
        rnd = by_name["random"]
        # The acceptance pins: informed selection closes to within 2
        # ROC-AUC points of training on every label while paying <= 40%
        # of the label bill, and beats the random control at equal spend.
        assert ud["final_roc_auc"] >= full["roc_auc"] - 0.02, (
            f"uncertainty_diversity {ud['final_roc_auc']:.4f} not within "
            f"0.02 of full-pool {full['roc_auc']:.4f}"
        )
        assert ud["final_roc_auc"] > rnd["final_roc_auc"], (
            f"uncertainty_diversity {ud['final_roc_auc']:.4f} does not "
            f"beat random {rnd['final_roc_auc']:.4f} at equal budget"
        )
    return out


def test_active_label_budget():
    """Pytest entry point: full-size experiment, writes BENCH_active.json."""
    run_experiment(tiny=False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="toy pool + 2 rounds; skips the comparative-quality asserts",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="artifact path (default: temp file in tiny mode, "
        "BENCH_active.json otherwise)",
    )
    args = parser.parse_args(argv)
    run_experiment(tiny=args.tiny, output=args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
