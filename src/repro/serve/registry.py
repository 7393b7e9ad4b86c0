"""Versioned model store with atomic hot swap and rollback.

A :class:`ModelRegistry` owns one directory of serving checkpoints
(``model-<version>.ckpt.npz``, written by
:meth:`~repro.core.detector.HotspotDetector.save_checkpoint` via
:meth:`ModelRegistry.publish`) and one *active* model that the inference
engine scores requests with.

Swap discipline:

- ``activate(version)`` loads and **fully verifies** the candidate
  checkpoint (magic, schema, CRC — the PR-3 ``read_checkpoint`` path)
  *before* touching the active slot, then swaps the reference under the
  registry lock. A corrupt or mismatched checkpoint therefore raises the
  existing typed :class:`~repro.exceptions.CheckpointError` family and
  leaves the old model serving.
- The engine resolves ``registry.current`` once per micro-batch, so
  in-flight batches finish on the model they started with; the swap is
  a single reference assignment — no serving gap.
- ``rollback()`` swaps back to the previously active model (one level).

``versions()`` lists candidates cheaply via
:func:`~repro.nn.serialize.peek_checkpoint` — manifest only, weights not
materialised — which is how operators audit a registry directory without
paying a full model load per file.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.core.detector import DETECTOR_CHECKPOINT_KIND, HotspotDetector
from repro.core.parity import ParityConfig, check_parity, enforce_parity
from repro.exceptions import (
    CheckpointCorruptError,
    CheckpointError,
    ModelNotFoundError,
    ObservabilityError,
    ServeError,
)
from repro.nn.serialize import (
    ArraySummary,
    peek_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.obs import emit, get_registry
from repro.obs.drift import ReferenceProfile

#: Detector-state-tree key holding the serialized drift profile.
DRIFT_PROFILE_KEY = "drift_profile"

PathLike = Union[str, Path]

_VERSION_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_FILE_PREFIX = "model-"
_FILE_SUFFIX = ".ckpt.npz"


@dataclass(frozen=True)
class ModelVersion:
    """One registry entry, described without loading its weights."""

    version: str
    path: Path
    valid: bool
    parameter_count: int = 0
    error: str = ""


@dataclass(frozen=True)
class LoadedModel:
    """The active (or previously active) model with its provenance.

    ``profile`` is the frozen drift reference captured at publish time
    (``None`` for checkpoints published without reference data); the
    inference engine uses it to spin up a
    :class:`~repro.obs.drift.DriftMonitor` per served version.
    """

    version: str
    detector: HotspotDetector
    profile: Optional[ReferenceProfile] = None


class ModelRegistry:
    """Serves a named "current" model out of a checkpoint directory."""

    def __init__(
        self,
        directory: PathLike,
        name: str = "default",
        infer_precision: Optional[str] = None,
    ):
        if not name or "/" in name:
            raise ServeError(f"bad model name {name!r}")
        if infer_precision is not None and infer_precision not in (
            "float64",
            "float32",
            "float16",
            "int8",
        ):
            raise ServeError(f"bad infer_precision {infer_precision!r}")
        self.directory = Path(directory)
        self.name = name
        #: Serving-precision override: every model loaded through this
        #: registry scores at this precision instead of its checkpoint
        #: config's. Quantized precisions require a stored *passing*
        #: parity report (see load_model).
        self.infer_precision = infer_precision
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._current: Optional[LoadedModel] = None
        self._previous: Optional[LoadedModel] = None

    # ------------------------------------------------------------------
    # Directory layout
    # ------------------------------------------------------------------
    @staticmethod
    def _check_version(version: str) -> str:
        if not _VERSION_RE.match(version or ""):
            raise ServeError(
                f"bad model version {version!r} (alphanumeric, dot, dash, "
                "underscore; must not start with a separator)"
            )
        return version

    def path_for(self, version: str) -> Path:
        return self.directory / f"{_FILE_PREFIX}{self._check_version(version)}{_FILE_SUFFIX}"

    def version_names(self) -> List[str]:
        """Registered version names, sorted (lexicographic, deterministic)."""
        found = []
        for entry in self.directory.glob(f"{_FILE_PREFIX}*{_FILE_SUFFIX}"):
            stem = entry.name[len(_FILE_PREFIX) : -len(_FILE_SUFFIX)]
            if _VERSION_RE.match(stem):
                found.append(stem)
        return sorted(found)

    def versions(self) -> List[ModelVersion]:
        """Audit every registered checkpoint via a cheap metadata peek.

        Invalid entries (corrupt, wrong kind, wrong schema) come back
        flagged rather than raising, so one bad file never hides the
        rest of the registry.
        """
        entries = []
        for version in self.version_names():
            path = self.path_for(version)
            try:
                state = peek_checkpoint(path)
                if state.get("kind") != DETECTOR_CHECKPOINT_KIND:
                    raise CheckpointCorruptError(
                        f"{path}: kind {state.get('kind')!r} is not a "
                        f"{DETECTOR_CHECKPOINT_KIND} checkpoint"
                    )
                params = sum(
                    w.size
                    for w in state.get("weights", ())
                    if isinstance(w, ArraySummary)
                )
                entries.append(
                    ModelVersion(version, path, valid=True, parameter_count=params)
                )
            except CheckpointError as exc:
                entries.append(
                    ModelVersion(version, path, valid=False, error=str(exc))
                )
        return entries

    def latest_version(self) -> str:
        """Newest *valid* version (last in sort order)."""
        valid = [entry.version for entry in self.versions() if entry.valid]
        if not valid:
            raise ModelNotFoundError(
                f"registry {self.directory} has no valid model checkpoints"
            )
        return valid[-1]

    # ------------------------------------------------------------------
    # Publish / load
    # ------------------------------------------------------------------
    def publish(
        self,
        detector: HotspotDetector,
        version: str,
        reference=None,
        profile: Optional[ReferenceProfile] = None,
        quantize=None,
        calibration: Optional[np.ndarray] = None,
        calibration_labels: Optional[np.ndarray] = None,
        observer: str = "max",
        percentile: float = 99.9,
        parity_config: Optional[ParityConfig] = None,
    ) -> Path:
        """Write ``detector`` as checkpoint ``version`` (atomic, verified).

        ``reference`` (a labelled :class:`~repro.data.dataset.HotspotDataset`,
        typically the training or validation set) freezes a drift
        :class:`ReferenceProfile` — score histogram, per-channel feature
        statistics, calibration bins — into the checkpoint metadata, so
        every later :meth:`activate` of this version can monitor live
        traffic against how the model behaved at publish time. Pass a
        pre-built ``profile`` instead to skip the reference predictions.

        ``quantize`` (one precision or a sequence of ``"int8"`` /
        ``"float16"`` / ``"float32"``) stores the quantized form of the
        model *in the same checkpoint*: the per-channel int8 payload,
        the activation-range calibration observed on ``calibration`` (a
        representative ``(N, n, n, k)`` tensor batch — required), and
        one parity report per requested precision comparing its
        decisions against the float64 path (``calibration_labels``
        additionally gates the exact ROC-AUC delta). A failing report is
        stored, not raised — activation at that precision is what the
        gate refuses.
        """
        path = self.path_for(version)
        if path.exists():
            raise ServeError(
                f"version {version!r} already published at {path}; "
                "publish under a new version instead of overwriting"
            )
        if profile is None and reference is not None:
            profile = self.build_profile(detector, reference)
        state = detector.to_state()
        if profile is not None:
            state[DRIFT_PROFILE_KEY] = profile.to_dict()
        quantized: tuple = ()
        if quantize:
            from repro.nn.quant import (
                QUANT_PRECISIONS,
                attach_quant_state,
                quantize_network,
            )

            quantized = (
                (quantize,) if isinstance(quantize, str) else tuple(quantize)
            )
            for precision in quantized:
                if precision not in QUANT_PRECISIONS:
                    raise ServeError(
                        f"cannot quantize to {precision!r} "
                        f"(choices: {QUANT_PRECISIONS})"
                    )
            if calibration is None:
                raise ServeError(
                    "quantized publish needs a representative calibration "
                    "tensor batch (calibration=...)"
                )
            tensors = np.asarray(calibration)
            calib = detector.calibrate_quant(
                tensors, observer=observer, percentile=percentile
            )
            quant_state = quantize_network(detector.network, calibration=calib)
            # Attach before scoring parity: the reports then describe the
            # exact payload bytes this checkpoint stores.
            attach_quant_state(detector.network, quant_state)
            parity = {}
            for precision in quantized:
                report = check_parity(
                    detector,
                    tensors,
                    labels=calibration_labels,
                    precision=precision,
                    config=parity_config,
                )
                parity[precision] = report.to_dict()
            quant_state["parity"] = parity
            state["quant"] = quant_state
        write_checkpoint(path, state)
        emit(
            "serve.publish",
            model=self.name,
            version=version,
            path=str(path),
            bytes=path.stat().st_size,
            drift_profile=profile is not None,
            quantized=list(quantized),
        )
        return path

    @staticmethod
    def build_profile(detector: HotspotDetector, reference) -> ReferenceProfile:
        """Profile ``detector`` on a labelled reference dataset."""
        tensors = reference.features(detector.extractor)
        scores = detector.predict_proba_tensors(tensors)[:, 1]
        return ReferenceProfile.build(
            scores, tensors=tensors, labels=reference.labels
        )

    def load(self, version: str) -> HotspotDetector:
        """Fully load + verify one version (does not change the active slot)."""
        return self.load_model(version).detector

    def load_model(self, version: str) -> LoadedModel:
        """Load + verify one version with its drift profile, if present.

        A malformed embedded profile is dropped (with a warning event)
        rather than blocking the model swap: drift monitoring is an
        observer, never an availability risk.
        """
        path = self.path_for(version)
        if not path.exists():
            raise ModelNotFoundError(
                f"model {self.name!r} has no version {version!r} at {path}"
            )
        state = read_checkpoint(path)
        detector = HotspotDetector.from_state(state)
        # Accuracy-parity gate: serving at a quantized precision (the
        # registry override, or the checkpoint's own config) requires a
        # stored *passing* parity report for exactly that precision.
        effective = self.infer_precision or detector.config.infer_precision
        if effective != "float64":
            enforce_parity(
                (state.get("quant") or {}).get("parity"),
                effective,
                context=f"model {self.name!r} version {version!r}",
            )
        if (
            self.infer_precision is not None
            and detector.config.infer_precision != self.infer_precision
        ):
            detector.set_infer_precision(self.infer_precision)
        profile = None
        payload = state.get(DRIFT_PROFILE_KEY)
        if payload is not None:
            try:
                profile = ReferenceProfile.from_dict(payload)
            except ObservabilityError as exc:
                emit(
                    "serve.profile.invalid",
                    level="warning",
                    model=self.name,
                    version=version,
                    error=str(exc),
                )
        return LoadedModel(version, detector, profile=profile)

    # ------------------------------------------------------------------
    # Active slot
    # ------------------------------------------------------------------
    @property
    def current(self) -> LoadedModel:
        """The active model; raises if nothing has been activated."""
        current = self._current  # reference read is atomic; lock not needed
        if current is None:
            raise ModelNotFoundError(f"model {self.name!r} has no active version")
        return current

    @property
    def has_current(self) -> bool:
        return self._current is not None

    def activate(self, version: Optional[str] = None) -> LoadedModel:
        """Hot-swap the active model to ``version`` (default: latest).

        The candidate is loaded and verified *outside* the swap: any
        :class:`CheckpointError` (corrupt file, schema mismatch, wrong
        kind) propagates with the old model still active and serving.
        """
        if version is None:
            version = self.latest_version()
        loaded = self.load_model(version)
        with self._lock:
            if self._current is not None and self._current.version != version:
                self._previous = self._current
            self._current = loaded
        get_registry().counter("serve.model.swaps").inc()
        emit("serve.activate", model=self.name, version=version)
        return loaded

    def rollback(self) -> LoadedModel:
        """Re-activate the previously active model (one step of history)."""
        with self._lock:
            if self._previous is None:
                raise ModelNotFoundError(
                    f"model {self.name!r} has no previous version to roll back to"
                )
            self._previous, self._current = self._current, self._previous
        get_registry().counter("serve.model.rollbacks").inc()
        emit("serve.rollback", model=self.name, version=self._current.version)
        return self._current
