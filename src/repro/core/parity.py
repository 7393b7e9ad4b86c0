"""Accuracy-parity gate for quantized inference.

A quantized model (``int8``/``float16``/``float32`` plans) is only
allowed to serve if its *decisions* match the bitwise-pinned float64
path on a representative sample: the ROC-AUC may not move by more than
a hair and the set of flagged windows must be nearly identical. The
gate is evaluated at publish time (:meth:`ModelRegistry.publish` stores
one :class:`ParityReport` per quantized precision inside the
checkpoint) and *enforced* at activation time — loading a version
through a registry with ``infer_precision="int8"`` refuses any version
whose stored int8 report is missing or failed
(:class:`~repro.exceptions.ParityError`).

Every evaluation emits a ``quant.parity`` event on the process event
bus, so parity drift is visible in the same JSONL/metrics pipeline as
the serving SLOs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.roc import rank_auc
from repro.exceptions import ParityError, TrainingError
from repro.obs.events import emit


@dataclass(frozen=True)
class ParityConfig:
    """Tolerances of the quantized-vs-float64 decision comparison.

    ``max_roc_auc_delta`` bounds the ranking-quality drift (only
    checked when labels are available); ``min_flag_jaccard`` bounds the
    decision drift — the Jaccard similarity of the two flag sets at
    ``threshold``. ``max_prob_delta`` is informational by default
    (``None``): the report records the worst probability deviation, but
    only a finite value turns it into a gate.
    """

    max_roc_auc_delta: float = 0.005
    min_flag_jaccard: float = 0.99
    threshold: float = 0.5
    max_prob_delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_roc_auc_delta < 0:
            raise TrainingError("max_roc_auc_delta must be >= 0")
        if not 0.0 <= self.min_flag_jaccard <= 1.0:
            raise TrainingError("min_flag_jaccard must be in [0, 1]")
        if not 0.0 < self.threshold < 1.0:
            raise TrainingError("threshold must be in (0, 1)")


@dataclass(frozen=True)
class ParityReport:
    """Outcome of one quantized-vs-float64 comparison (JSON-safe)."""

    precision: str
    samples: int
    flag_jaccard: float
    max_prob_delta: float
    roc_auc_float64: Optional[float]
    roc_auc_quant: Optional[float]
    roc_auc_delta: Optional[float]
    threshold: float
    passed: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "precision": self.precision,
            "samples": int(self.samples),
            "flag_jaccard": float(self.flag_jaccard),
            "max_prob_delta": float(self.max_prob_delta),
            "roc_auc_float64": (
                None
                if self.roc_auc_float64 is None
                else float(self.roc_auc_float64)
            ),
            "roc_auc_quant": (
                None
                if self.roc_auc_quant is None
                else float(self.roc_auc_quant)
            ),
            "roc_auc_delta": (
                None
                if self.roc_auc_delta is None
                else float(self.roc_auc_delta)
            ),
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParityReport":
        try:
            return cls(
                precision=str(data["precision"]),
                samples=int(data["samples"]),
                flag_jaccard=float(data["flag_jaccard"]),
                max_prob_delta=float(data["max_prob_delta"]),
                roc_auc_float64=(
                    None
                    if data.get("roc_auc_float64") is None
                    else float(data["roc_auc_float64"])
                ),
                roc_auc_quant=(
                    None
                    if data.get("roc_auc_quant") is None
                    else float(data["roc_auc_quant"])
                ),
                roc_auc_delta=(
                    None
                    if data.get("roc_auc_delta") is None
                    else float(data["roc_auc_delta"])
                ),
                threshold=float(data["threshold"]),
                passed=bool(data["passed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParityError(f"malformed parity report: {exc}") from exc


def check_parity(
    detector,
    tensors: np.ndarray,
    labels: Optional[np.ndarray] = None,
    precision: str = "int8",
    config: Optional[ParityConfig] = None,
) -> ParityReport:
    """Compare quantized scoring against the float64 path.

    ``tensors`` is a representative ``(N, n, n, k)`` feature-tensor
    batch (the same layout :meth:`HotspotDetector.predict_proba_tensors`
    consumes). ``labels``, when given, additionally gates the exact
    ROC-AUC delta. Emits a ``quant.parity`` event either way.
    """
    if config is None:
        config = ParityConfig()
    if precision == "float64":
        raise ParityError("parity compares a quantized precision "
                          "against float64, not float64 itself")
    tensors = np.asarray(tensors)
    if tensors.ndim != 4 or tensors.shape[0] == 0:
        raise ParityError(
            f"parity needs a non-empty (N, n, n, k) tensor batch, "
            f"got shape {tensors.shape}"
        )
    probs_ref = detector.predict_proba_tensors(tensors, precision="float64")
    probs_quant = detector.predict_proba_tensors(tensors, precision=precision)
    hot_ref = np.asarray(probs_ref)[:, 1]
    hot_quant = np.asarray(probs_quant)[:, 1]
    max_prob_delta = float(np.abs(hot_ref - hot_quant).max())

    flags_ref = hot_ref >= config.threshold
    flags_quant = hot_quant >= config.threshold
    union = int(np.logical_or(flags_ref, flags_quant).sum())
    inter = int(np.logical_and(flags_ref, flags_quant).sum())
    flag_jaccard = 1.0 if union == 0 else inter / union

    auc_ref = auc_quant = auc_delta = None
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != tensors.shape[0]:
            raise ParityError(
                f"labels ({labels.shape[0]}) do not match tensors "
                f"({tensors.shape[0]})"
            )
        # Degenerate single-class samples have no ranking to compare.
        if len(np.unique(labels)) == 2:
            auc_ref = float(rank_auc(hot_ref, labels))
            auc_quant = float(rank_auc(hot_quant, labels))
            auc_delta = abs(auc_ref - auc_quant)

    passed = flag_jaccard >= config.min_flag_jaccard
    if auc_delta is not None and auc_delta > config.max_roc_auc_delta:
        passed = False
    if (
        config.max_prob_delta is not None
        and max_prob_delta > config.max_prob_delta
    ):
        passed = False

    report = ParityReport(
        precision=precision,
        samples=int(tensors.shape[0]),
        flag_jaccard=float(flag_jaccard),
        max_prob_delta=max_prob_delta,
        roc_auc_float64=auc_ref,
        roc_auc_quant=auc_quant,
        roc_auc_delta=auc_delta,
        threshold=config.threshold,
        passed=passed,
    )
    emit(
        "quant.parity",
        level="info" if passed else "warning",
        precision=precision,
        samples=report.samples,
        flag_jaccard=report.flag_jaccard,
        max_prob_delta=report.max_prob_delta,
        roc_auc_delta=report.roc_auc_delta,
        passed=report.passed,
    )
    return report


def enforce_parity(
    reports: Optional[Mapping[str, Any]],
    precision: str,
    context: str = "model",
) -> ParityReport:
    """Activation-time gate: require a stored *passing* report.

    ``reports`` is the ``parity`` mapping of a checkpoint's quant
    subtree (precision -> report dict). Raises
    :class:`~repro.exceptions.ParityError` when the report is absent or
    failed; returns the parsed report otherwise.
    """
    if precision == "float64":
        raise ParityError("float64 needs no parity report")
    entry = (reports or {}).get(precision)
    if entry is None:
        raise ParityError(
            f"{context}: no parity report for precision {precision!r} — "
            f"publish with quantize={precision!r} and a calibration "
            f"sample first"
        )
    report = (
        entry
        if isinstance(entry, ParityReport)
        else ParityReport.from_dict(entry)
    )
    if not report.passed:
        raise ParityError(
            f"{context}: parity gate failed for {precision!r} "
            f"(flag_jaccard={report.flag_jaccard:.4f}, "
            f"roc_auc_delta={report.roc_auc_delta}, "
            f"max_prob_delta={report.max_prob_delta:.4g})",
            report=report,
        )
    return report
