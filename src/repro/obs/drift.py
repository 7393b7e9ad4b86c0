"""Model-quality drift monitoring against frozen reference profiles.

A model that keeps serving 200s can still be silently wrong: a process
shift in incoming layouts moves the feature distribution, the score
histogram drifts, and recall decays with no error in sight. This module
watches for that:

- :class:`ReferenceProfile` — a frozen statistical fingerprint of a
  model on its reference data, captured **at publish time** and embedded
  in the registry checkpoint (under the ``drift_profile`` key of the
  detector state tree): the prediction-score histogram on fixed uniform
  bins, per-channel mean/std of the DCT feature tensors, and
  calibration bins (mean predicted score vs observed hotspot fraction).
- :class:`DriftMonitor` — compares a sliding window of live traffic
  against the profile on a fixed cadence: PSI (population stability
  index) and a KS statistic over the score histogram, and the largest
  per-channel mean shift in units of the reference std. Breaches emit
  ``drift.alert`` events (level ``warning``) on the bus and bump the
  ``drift.alerts`` counter; every check also publishes
  ``drift.score_psi`` / ``drift.score_ks`` / ``drift.channel_shift``
  gauges labelled with the monitor's ``source`` and ``model_version``,
  so ``obs top`` and the OpenMetrics scrape see drift trending *before*
  it alerts.

The serving engine attaches a monitor per model version whose checkpoint
carries a profile; the scan farm (:class:`~repro.scanfarm.ScanFarm`)
accepts one for offline sweeps. Alerts are rate-limited per
metric by ``cooldown`` samples so a sustained shift does not flood the
bus.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import ObservabilityError
from repro.obs import events as _events
from repro.obs import metrics as _metrics

_EPS = 1e-6


@dataclass(frozen=True)
class DriftConfig:
    """Tunables for :class:`DriftMonitor`.

    ``window`` live samples are retained; checks run every
    ``check_every`` observed samples once ``min_samples`` have arrived.
    ``channel_sigma_threshold`` is a mean shift in units of the
    reference per-channel std (0.5 σ is a large, unambiguous shift for
    windows of hundreds of samples).
    """

    window: int = 1024
    min_samples: int = 200
    check_every: int = 256
    psi_threshold: float = 0.25
    ks_threshold: float = 0.15
    channel_sigma_threshold: float = 0.5
    cooldown: int = 2048

    def __post_init__(self) -> None:
        if self.window < 2 or self.min_samples < 2:
            raise ObservabilityError(
                "drift window and min_samples must be >= 2"
            )
        if self.min_samples > self.window:
            raise ObservabilityError(
                f"min_samples ({self.min_samples}) exceeds window "
                f"({self.window})"
            )
        if self.check_every < 1:
            raise ObservabilityError("check_every must be >= 1")


class ReferenceProfile:
    """Frozen per-model statistics captured from reference data."""

    def __init__(
        self,
        score_hist: np.ndarray,
        score_count: int,
        channel_mean: Optional[np.ndarray] = None,
        channel_std: Optional[np.ndarray] = None,
        calibration: Optional[List[Dict[str, float]]] = None,
    ) -> None:
        hist = np.asarray(score_hist, dtype=np.float64)
        if hist.ndim != 1 or hist.size < 2:
            raise ObservabilityError(
                f"score_hist must be a 1-D array of >= 2 bins, got "
                f"shape {hist.shape}"
            )
        total = float(hist.sum())
        if total <= 0:
            raise ObservabilityError("score_hist must have positive mass")
        self.score_hist = hist / total
        self.score_count = int(score_count)
        self.channel_mean = (
            None if channel_mean is None
            else np.asarray(channel_mean, dtype=np.float64)
        )
        self.channel_std = (
            None if channel_std is None
            else np.asarray(channel_std, dtype=np.float64)
        )
        self.calibration = list(calibration) if calibration else []

    @property
    def score_bins(self) -> int:
        return int(self.score_hist.size)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        scores: np.ndarray,
        tensors: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        score_bins: int = 20,
        calibration_bins: int = 10,
    ) -> "ReferenceProfile":
        """Profile a model's behaviour on reference data.

        ``scores`` are hotspot probabilities in [0, 1]; ``tensors`` the
        matching ``(N, n, n, k)`` feature tensors (per-channel stats are
        skipped when absent); ``labels`` the 0/1 ground truth enabling
        calibration bins.
        """
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        if scores.size == 0:
            raise ObservabilityError(
                "cannot build a drift profile from zero scores"
            )
        hist = score_histogram(scores, score_bins)
        channel_mean = channel_std = None
        if tensors is not None:
            tensors = np.asarray(tensors)
            if tensors.ndim != 4 or tensors.shape[0] != scores.size:
                raise ObservabilityError(
                    f"tensors must be (N, n, n, k) matching {scores.size} "
                    f"scores, got shape {tensors.shape}"
                )
            per_sample = channel_means(tensors)
            channel_mean = per_sample.mean(axis=0)
            channel_std = per_sample.std(axis=0)
        calibration = []
        if labels is not None:
            labels = np.asarray(labels, dtype=np.float64).reshape(-1)
            if labels.size != scores.size:
                raise ObservabilityError(
                    f"labels ({labels.size}) must match scores ({scores.size})"
                )
            edges = np.linspace(0.0, 1.0, calibration_bins + 1)
            for i in range(calibration_bins):
                lo, hi = float(edges[i]), float(edges[i + 1])
                mask = (
                    (scores >= lo) & (scores < hi)
                    if i < calibration_bins - 1
                    else (scores >= lo) & (scores <= hi)
                )
                count = int(mask.sum())
                calibration.append(
                    {
                        "lo": lo,
                        "hi": hi,
                        "count": count,
                        "mean_score": float(scores[mask].mean()) if count else 0.0,
                        "hotspot_fraction": (
                            float(labels[mask].mean()) if count else 0.0
                        ),
                    }
                )
        return cls(
            score_hist=hist,
            score_count=scores.size,
            channel_mean=channel_mean,
            channel_std=channel_std,
            calibration=calibration,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe serialisation (embeds in checkpoint state trees)."""
        payload: Dict[str, Any] = {
            "score_hist": [float(v) for v in self.score_hist],
            "score_count": self.score_count,
            "calibration": self.calibration,
        }
        if self.channel_mean is not None:
            payload["channel_mean"] = [float(v) for v in self.channel_mean]
        if self.channel_std is not None:
            payload["channel_std"] = [float(v) for v in self.channel_std]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReferenceProfile":
        try:
            return cls(
                score_hist=np.asarray(payload["score_hist"], dtype=np.float64),
                score_count=int(payload["score_count"]),
                channel_mean=(
                    np.asarray(payload["channel_mean"], dtype=np.float64)
                    if "channel_mean" in payload
                    else None
                ),
                channel_std=(
                    np.asarray(payload["channel_std"], dtype=np.float64)
                    if "channel_std" in payload
                    else None
                ),
                calibration=list(payload.get("calibration", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed drift profile payload: {exc}"
            ) from exc


def score_histogram(scores: np.ndarray, bins: int) -> np.ndarray:
    """Normalised histogram of scores on fixed uniform [0, 1] bins."""
    scores = np.clip(np.asarray(scores, dtype=np.float64).reshape(-1), 0.0, 1.0)
    hist, _ = np.histogram(scores, bins=bins, range=(0.0, 1.0))
    return hist.astype(np.float64)


def channel_means(tensors: np.ndarray) -> np.ndarray:
    """Per-sample per-channel spatial means: ``(N, n, n, k)`` → ``(N, k)``."""
    return np.asarray(tensors, dtype=np.float64).mean(axis=(1, 2))


def population_stability_index(
    reference: np.ndarray, observed: np.ndarray
) -> float:
    """PSI between two distributions on identical bins (lower = stabler).

    Both inputs are normalised internally; bins are floored at a small
    epsilon so empty bins contribute a large-but-finite penalty.
    """
    ref = np.asarray(reference, dtype=np.float64)
    obs = np.asarray(observed, dtype=np.float64)
    if ref.shape != obs.shape:
        raise ObservabilityError(
            f"PSI inputs need identical bins: {ref.shape} vs {obs.shape}"
        )
    ref = np.maximum(ref / max(ref.sum(), _EPS), _EPS)
    obs = np.maximum(obs / max(obs.sum(), _EPS), _EPS)
    return float(np.sum((obs - ref) * np.log(obs / ref)))


def ks_statistic(reference: np.ndarray, observed: np.ndarray) -> float:
    """Max CDF gap between two binned distributions on identical bins."""
    ref = np.asarray(reference, dtype=np.float64)
    obs = np.asarray(observed, dtype=np.float64)
    if ref.shape != obs.shape:
        raise ObservabilityError(
            f"KS inputs need identical bins: {ref.shape} vs {obs.shape}"
        )
    ref_cdf = np.cumsum(ref) / max(ref.sum(), _EPS)
    obs_cdf = np.cumsum(obs) / max(obs.sum(), _EPS)
    return float(np.max(np.abs(obs_cdf - ref_cdf)))


class DriftMonitor:
    """Sliding-window comparison of live traffic against a profile.

    Thread-safe: the serving engine's worker pool calls
    :meth:`observe` concurrently. Checks run inline on the observing
    thread every ``check_every`` samples (cheap: a couple of
    ``window``-length reductions).
    """

    def __init__(
        self,
        profile: ReferenceProfile,
        config: Optional[DriftConfig] = None,
        source: str = "serve",
        model_version: str = "",
        bus: Optional[_events.EventBus] = None,
        registry: Optional[_metrics.MetricsRegistry] = None,
    ) -> None:
        self.profile = profile
        self.config = config or DriftConfig()
        self.source = source
        self.model_version = model_version
        self._bus = bus
        self._registry = registry
        self._lock = threading.Lock()
        self._scores: Deque[float] = deque(maxlen=self.config.window)
        self._channels: Deque[np.ndarray] = deque(maxlen=self.config.window)
        self._seen = 0
        self._since_check = 0
        self._last_alert_at: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def samples_seen(self) -> int:
        return self._seen

    def _labels(self) -> Dict[str, str]:
        labels = {"source": self.source}
        if self.model_version:
            labels["model_version"] = self.model_version
        return labels

    def observe(
        self,
        scores: np.ndarray,
        tensors: Optional[np.ndarray] = None,
    ) -> List[Dict[str, Any]]:
        """Feed a batch of live scores (and optionally their tensors).

        Returns the alerts raised by any check this batch triggered
        (usually an empty list).
        """
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        per_sample = None
        if tensors is not None and self.profile.channel_mean is not None:
            per_sample = channel_means(tensors)
        due = False
        with self._lock:
            self._scores.extend(float(v) for v in scores)
            if per_sample is not None:
                self._channels.extend(per_sample)
            self._seen += scores.size
            self._since_check += scores.size
            if (
                self._since_check >= self.config.check_every
                and len(self._scores) >= self.config.min_samples
            ):
                self._since_check = 0
                due = True
        return self.check() if due else []

    # ------------------------------------------------------------------
    def check(self, force: bool = False) -> List[Dict[str, Any]]:
        """Compare the current window against the reference profile.

        With ``force=True`` the minimum-sample guard is skipped (end of
        an offline scan). Returns alert dicts; each was also emitted as
        a ``drift.alert`` event unless still in its cooldown.
        """
        config = self.config
        with self._lock:
            window = np.asarray(self._scores, dtype=np.float64)
            channel_rows = (
                np.asarray(self._channels, dtype=np.float64)
                if self._channels
                else None
            )
            seen = self._seen
        if window.size == 0 or (not force and window.size < config.min_samples):
            return []

        observed = score_histogram(window, self.profile.score_bins)
        psi = population_stability_index(self.profile.score_hist, observed)
        ks = ks_statistic(self.profile.score_hist, observed)
        breaches = [
            ("score_psi", psi, config.psi_threshold),
            ("score_ks", ks, config.ks_threshold),
        ]

        registry = self._registry or _metrics.get_registry()
        labels = self._labels()
        registry.gauge("drift.score_psi", labels=labels).set(psi)
        registry.gauge("drift.score_ks", labels=labels).set(ks)
        registry.gauge("drift.window_samples", labels=labels).set(window.size)

        worst_channel = -1
        if (
            channel_rows is not None
            and channel_rows.size
            and self.profile.channel_std is not None
        ):
            shift = np.abs(
                channel_rows.mean(axis=0) - self.profile.channel_mean
            ) / (self.profile.channel_std + _EPS)
            worst_channel = int(np.argmax(shift))
            channel_shift = float(shift[worst_channel])
            registry.gauge("drift.channel_shift", labels=labels).set(
                channel_shift
            )
            breaches.append(
                ("channel_shift", channel_shift, config.channel_sigma_threshold)
            )

        alerts = []
        bus = self._bus or _events.get_bus()
        for metric, value, threshold in breaches:
            if value <= threshold:
                continue
            alert = {
                "metric": metric,
                "value": float(value),
                "threshold": float(threshold),
                "source": self.source,
                "model_version": self.model_version,
                "window_samples": int(window.size),
            }
            if metric == "channel_shift":
                alert["channel"] = worst_channel
            alerts.append(alert)
            with self._lock:
                last = self._last_alert_at.get(metric)
                throttled = (
                    last is not None and seen - last < config.cooldown
                )
                if not throttled:
                    self._last_alert_at[metric] = seen
            if not throttled:
                registry.counter("drift.alerts", labels=labels).inc()
                bus.emit("drift.alert", level="warning", **alert)
        return alerts
