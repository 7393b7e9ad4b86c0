"""The paper's contribution: deep biased learning for hotspot detection.

- :func:`build_dac17_network` — the exact Table-1 CNN.
- :class:`HotspotDetector` — the end-to-end public API: feature-tensor
  extraction + CNN + biased learning, with ``fit`` / ``predict`` /
  ``evaluate``.
- :mod:`repro.core.biased` — Algorithm 2 (biased-target fine-tuning).
- :mod:`repro.core.shift` — the decision-boundary-shifting alternative the
  paper compares against (Equation (11) / Figure 4).
- :mod:`repro.core.metrics` — Accuracy, False Alarm and ODST
  (Definitions 1-3).
"""

from repro.core.biased import BiasedLearning, BiasedRound, biased_targets
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.fullchip import (
    HotspotRegion,
    ScanResult,
    merge_windows,
    recall_against_oracle,
)
from repro.core.metrics import DetectionMetrics, evaluate_predictions
from repro.core.model import build_dac17_network
from repro.core.parity import (
    ParityConfig,
    ParityReport,
    check_parity,
    enforce_parity,
)
from repro.core.roc import (
    OperatingPoint,
    area_under_curve,
    best_odst_point,
    sweep_thresholds,
)
from repro.core.shift import calibrate_shift, shifted_predictions

__all__ = [
    "OperatingPoint",
    "sweep_thresholds",
    "area_under_curve",
    "best_odst_point",
    "HotspotRegion",
    "ScanResult",
    "merge_windows",
    "recall_against_oracle",
    "build_dac17_network",
    "HotspotDetector",
    "DetectorConfig",
    "BiasedLearning",
    "BiasedRound",
    "biased_targets",
    "DetectionMetrics",
    "evaluate_predictions",
    "shifted_predictions",
    "calibrate_shift",
    "ParityConfig",
    "ParityReport",
    "check_parity",
    "enforce_parity",
]
