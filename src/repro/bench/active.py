"""Accuracy-vs-label-budget experiment plumbing.

Shared by ``benchmarks/bench_active.py`` and the ``repro-hotspot active``
CLI: run one selection strategy under a fixed simulation-seconds budget,
flatten the loop result into the JSON-friendly record shape the
``BENCH_active.json`` artifact (and the schema check in
``benchmarks/bench_active.py``) pins, and render the label curves as a
text table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.active.loop import (
    ActiveLearningConfig,
    ActiveLearningLoop,
    ActiveLearningResult,
)
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.metrics import evaluate_predictions
from repro.core.roc import rank_auc
from repro.data.dataset import HotspotDataset
from repro.litho.budget import BudgetedOracle, LabelBudget, PrelabelledOracle
from repro.litho.oracle import HotspotOracle
from repro.litho.runtime import SimulationCostModel


def strategy_record(
    result: ActiveLearningResult,
    config: ActiveLearningConfig,
    budget_seconds: float,
) -> Dict[str, Any]:
    """Flatten a loop result into one ``strategies`` artifact entry."""
    final = result.final_round
    return {
        "strategy": config.strategy,
        "uncertainty": config.uncertainty,
        "warm_start": config.warm_start,
        "seed": config.seed,
        "labels": result.labels_bought,
        "budget_seconds": float(budget_seconds),
        "budget_spent_seconds": result.budget_spent_seconds,
        "final_roc_auc": final.eval_roc_auc,
        "final_accuracy": final.eval_accuracy,
        "final_false_alarm_rate": final.eval_false_alarm_rate,
        "stopped_reason": result.stopped_reason,
        "rounds": [
            {
                "round_index": r.round_index,
                "strategy": r.strategy,
                "labels_total": r.labels_total,
                "hotspots_total": r.hotspots_total,
                "budget_spent_seconds": r.budget_spent_seconds,
                "eval_accuracy": r.eval_accuracy,
                "eval_false_alarm_rate": r.eval_false_alarm_rate,
                "eval_roc_auc": r.eval_roc_auc,
            }
            for r in result.rounds
        ],
    }


def run_active_strategy(
    pool: HotspotDataset,
    eval_data: HotspotDataset,
    detector_config: DetectorConfig,
    loop_config: ActiveLearningConfig,
    budget_seconds: float,
    seconds_per_clip: float = 10.0,
    fallback_oracle: Optional[HotspotOracle] = None,
    checkpoints=None,
    resume: bool = False,
) -> Tuple[ActiveLearningResult, Dict[str, Any]]:
    """One strategy arm: budgeted loop over ``pool`` -> (result, record).

    Labels are replayed from the pool's ground truth when present
    (:class:`~repro.litho.budget.PrelabelledOracle`) and simulated via
    ``fallback_oracle`` otherwise; either way the budget is charged at
    ``seconds_per_clip`` per label.
    """
    budget = LabelBudget(
        float(budget_seconds), SimulationCostModel(seconds_per_clip)
    )
    oracle = BudgetedOracle(PrelabelledOracle(fallback_oracle), budget)
    loop = ActiveLearningLoop(detector_config, oracle, loop_config)
    result = loop.run(
        pool, eval_data, checkpoints=checkpoints, resume=resume
    )
    return result, strategy_record(result, loop_config, budget_seconds)


def full_pool_record(
    pool: HotspotDataset,
    eval_data: HotspotDataset,
    detector_config: DetectorConfig,
    seconds_per_clip: float = 10.0,
) -> Dict[str, Any]:
    """The every-label-bought upper baseline the budget curves chase."""
    detector = HotspotDetector(detector_config)
    detector.fit(pool)
    probabilities = detector.predict_proba(eval_data)
    metrics = evaluate_predictions(
        eval_data.labels,
        probabilities.argmax(axis=1),
        simulation_seconds_per_clip=seconds_per_clip,
    )
    return {
        "labels": len(pool),
        "budget_seconds": float(len(pool) * seconds_per_clip),
        "roc_auc": rank_auc(probabilities, eval_data.labels),
        "accuracy": metrics.accuracy,
        "false_alarm_rate": metrics.false_alarm_rate,
    }


def format_label_curves(
    records: Sequence[Dict[str, Any]],
    full_pool: Optional[Dict[str, Any]] = None,
) -> str:
    """Text table of ROC-AUC per labels bought, one column per strategy."""
    if not records:
        return "(no strategies run)"
    budgets: List[int] = sorted(
        {r["labels_total"] for rec in records for r in rec["rounds"]}
    )
    names = [rec["strategy"] for rec in records]
    width = max(24, *(len(n) + 2 for n in names))
    lines = ["labels".rjust(8) + "".join(n.rjust(width) for n in names)]
    for labels in budgets:
        cells = []
        for rec in records:
            match = [
                r["eval_roc_auc"]
                for r in rec["rounds"]
                if r["labels_total"] == labels
            ]
            cells.append(f"{match[0]:.4f}" if match else "-")
        lines.append(
            f"{labels:>8}" + "".join(c.rjust(width) for c in cells)
        )
    if full_pool is not None:
        lines.append(
            f"{full_pool['labels']:>8}"
            + f"full pool: {full_pool['roc_auc']:.4f}".rjust(width)
        )
    return "\n".join(lines)
