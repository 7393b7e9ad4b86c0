"""The end-to-end hotspot detector (the paper's framework).

:class:`HotspotDetector` wires the pieces together exactly as Section 5
describes: feature-tensor extraction, the Table-1 CNN, mini-batch gradient
descent with learning-rate decay (Algorithm 1), and biased fine-tuning with
validation-based round selection (Algorithm 2). The public surface mirrors
familiar scikit-learn style (``fit`` / ``predict`` / ``evaluate``) plus
model persistence.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.exceptions import CheckpointCorruptError, TrainingError
from repro.core.biased import (
    BiasedLearning,
    BiasedRound,
    biased_targets,
    select_round,
)
from repro.core.config import DetectorConfig
from repro.core.metrics import DetectionMetrics, evaluate_predictions
from repro.core.model import build_dac17_network
from repro.data.augment import augment_dihedral
from repro.data.dataset import HotspotDataset
from repro.data.sampling import upsample_minority
from repro.features.scaler import ChannelScaler
from repro.features.tensor import FeatureTensorExtractor
from repro.nn.network import Sequential
from repro.nn.optim import SGD, StepDecay
from repro.nn.trainer import Trainer, TrainerConfig, TrainingHistory

PathLike = Union[str, Path]

#: ``kind`` tag of a serving checkpoint written by ``save_checkpoint``.
DETECTOR_CHECKPOINT_KIND = "hotspot-detector"


class HotspotDetector:
    """Feature tensor + CNN + deep biased learning.

    Typical use::

        detector = HotspotDetector()
        detector.fit(train_dataset)
        metrics = detector.evaluate(test_dataset)
        print(metrics.row())
    """

    name = "Ours (DAC'17)"

    def __init__(self, config: DetectorConfig = DetectorConfig()):
        self.config = config
        self.extractor = FeatureTensorExtractor(config.feature)
        self.scaler = ChannelScaler()
        self.network: Optional[Sequential] = None
        self.rounds: List[BiasedRound] = []
        self.selected_round: Optional[BiasedRound] = None

    # ------------------------------------------------------------------
    # Feature plumbing
    # ------------------------------------------------------------------
    @property
    def _compute_dtype(self) -> np.dtype:
        """Network precision from the config's dtype policy."""
        return np.dtype(self.config.compute_dtype)

    def _to_network_input(
        self, dataset: HotspotDataset, fit_scaler: bool = False
    ) -> np.ndarray:
        """Dataset -> standardised NCHW batch: (n, n, k) becomes (k, n, n).

        Channel statistics come from the training set (``fit_scaler=True``
        during :meth:`fit`); validation and test data reuse them.
        """
        tensors = dataset.features(self.extractor)  # (N, n, n, k)
        if fit_scaler:
            self.scaler.fit(tensors)
        tensors = self.scaler.transform(tensors)
        # Cast to the compute dtype up front: the batch dtype must match
        # the network's parameters or every GEMM would re-copy it.
        return np.ascontiguousarray(
            tensors.transpose(0, 3, 1, 2), dtype=self._compute_dtype
        )

    def _build_network(self) -> Sequential:
        cfg = self.config.feature
        return build_dac17_network(
            input_channels=cfg.coefficients,
            grid=cfg.block_count,
            seed=self.config.seed,
            compute_dtype=self.config.compute_dtype,
            fused_conv=self.config.fused_conv,
        )

    def _optimizer_factory(self, network: Sequential) -> SGD:
        return SGD(
            network.parameters(),
            StepDecay(
                self.config.learning_rate,
                self.config.lr_alpha,
                self.config.lr_decay_every,
            ),
        )

    def _finetune_trainer_config(self) -> TrainerConfig:
        """Shrunken budget for the ε > 0 fine-tuning rounds."""
        base = self.config.trainer
        fraction = self.config.finetune_fraction
        iterations = max(1, int(base.max_iterations * fraction))
        return TrainerConfig(
            batch_size=base.batch_size,
            max_iterations=iterations,
            validate_every=min(base.validate_every, max(1, iterations // 10)),
            patience=base.patience,
            min_iterations=min(base.min_iterations, iterations // 2),
            seed=base.seed,
            restore_best=base.restore_best,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        train_data: HotspotDataset,
        checkpoints: Optional[Union["CheckpointManager", PathLike]] = None,
        checkpoint_every: Optional[int] = None,
        resume: bool = False,
    ) -> "HotspotDetector":
        """Train with Algorithms 1 + 2 on ``train_data``.

        A ``validation_fraction`` stratified slice is held out internally
        (never trained on) to drive convergence detection and biased-round
        selection, per Section 4.2.

        ``checkpoints`` (a :class:`~repro.nn.serialize.CheckpointManager`
        or a directory path) turns on crash-safe snapshots of the whole
        Algorithm 1 + 2 state every ``checkpoint_every`` iterations;
        ``resume=True`` restarts from the newest verifiable snapshot in
        that manager — identical data and config required — and
        reproduces the uninterrupted run's weights and history. Data
        preparation (split, augmentation, upsampling, scaler fit) is
        seed-deterministic, so re-running it on resume reconstructs the
        same inputs the interrupted run trained on.
        """
        from repro.nn.serialize import CheckpointManager

        if checkpoints is not None and not isinstance(
            checkpoints, CheckpointManager
        ):
            checkpoints = CheckpointManager(checkpoints)
        if resume and checkpoints is None:
            raise TrainingError(
                "resume=True needs a checkpoints manager or directory"
            )
        if train_data.hotspot_count == 0 or train_data.non_hotspot_count == 0:
            raise TrainingError(
                f"training data needs both classes, got {train_data.summary()}"
            )
        main, holdout = train_data.split(
            self.config.validation_fraction, seed=self.config.seed
        )
        if self.config.augment_hotspots:
            main = HotspotDataset(
                augment_dihedral(main.clips), name=main.name
            )
        if self.config.balance_training:
            main = HotspotDataset(
                upsample_minority(main.clips, seed=self.config.seed),
                name=main.name,
            )
        x_train = self._to_network_input(main, fit_scaler=True)
        y_train = main.labels
        x_val = self._to_network_input(holdout)
        y_val = holdout.labels

        self.network = self._build_network()
        algorithm = BiasedLearning(
            self.network,
            self._optimizer_factory,
            trainer_config=self.config.trainer,
            epsilon_step=self.config.epsilon_step,
            rounds=self.config.bias_rounds,
            finetune_config=self._finetune_trainer_config(),
        )
        self.rounds = algorithm.run(
            x_train,
            y_train,
            x_val,
            y_val,
            checkpoints=checkpoints,
            checkpoint_every=checkpoint_every,
            resume_from=checkpoints if resume else None,
        )
        self.selected_round = select_round(
            self.rounds, self.config.max_false_alarm_increase
        )
        self.network.set_weights(self.selected_round.weights)
        return self

    # ------------------------------------------------------------------
    # Warm-start fine-tuning
    # ------------------------------------------------------------------
    def finetune(self, train_data: HotspotDataset) -> "TrainingHistory":
        """Fine-tune the already-trained network on (new) labelled data.

        The warm-start entry point for incremental workloads (the active-
        learning loop's per-round update): instead of rebuilding the
        network and re-running Algorithms 1 + 2, training continues from
        the current weights with the shrunken ε-round budget
        (``finetune_fraction``), at the bias level the validation
        procedure last accepted (``selected_round.epsilon``, 0 when the
        detector was loaded without round history). The fitted channel
        scaler is *frozen* — new data is standardised exactly as serving
        traffic would be, so fine-tuning never shifts the input
        distribution under the existing weights.

        Deterministic given (weights, auxiliary layer state, data,
        config): two detectors in identical states fine-tuned on the same
        dataset land on bitwise-identical weights.
        """
        network = self._require_trained()
        if not self.scaler.fitted:
            raise TrainingError(
                "detector has no fitted channel scaler; finetune() needs a "
                "fit() or load_checkpoint() first"
            )
        if train_data.hotspot_count == 0 or train_data.non_hotspot_count == 0:
            raise TrainingError(
                f"fine-tuning data needs both classes, got {train_data.summary()}"
            )
        main, holdout = train_data.split(
            self.config.validation_fraction, seed=self.config.seed
        )
        if self.config.augment_hotspots:
            main = HotspotDataset(augment_dihedral(main.clips), name=main.name)
        if self.config.balance_training:
            main = HotspotDataset(
                upsample_minority(main.clips, seed=self.config.seed),
                name=main.name,
            )
        x_train = self._to_network_input(main)
        x_val = self._to_network_input(holdout)
        epsilon = (
            self.selected_round.epsilon if self.selected_round is not None else 0.0
        )
        targets = biased_targets(main.labels, epsilon)
        trainer = Trainer(
            network,
            self._optimizer_factory(network),
            self._finetune_trainer_config(),
        )
        history = trainer.fit(x_train, targets, x_val, holdout.labels)
        # Weights moved in place: compiled low-precision plans are stale.
        network.invalidate_inference_plans()
        return history

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_trained(self) -> Sequential:
        if self.network is None:
            raise TrainingError("detector is not trained; call fit() first")
        return self.network

    def _resolve_precision(self, precision: Optional[str]) -> str:
        """Per-call override beats the config's ``infer_precision``."""
        return precision if precision is not None else self.config.infer_precision

    def predict_proba(
        self, dataset: HotspotDataset, precision: Optional[str] = None
    ) -> np.ndarray:
        """``(N, 2)`` softmax probabilities; column 1 is P(hotspot)."""
        network = self._require_trained()
        return network.predict_proba(
            self._to_network_input(dataset),
            precision=self._resolve_precision(precision),
        )

    def predict_proba_tensors(
        self, tensors: np.ndarray, precision: Optional[str] = None
    ) -> np.ndarray:
        """Probabilities straight from raw ``(N, n, n, k)`` feature tensors.

        The tensor-level inference path used by the full-chip scanner
        and the serving engine: tensors assembled elsewhere (e.g. sliced
        from a shared scan grid) skip clip/dataset construction
        entirely. Standardisation uses the fitted training statistics,
        exactly as :meth:`predict_proba`. ``precision`` overrides the
        config's ``infer_precision`` for this call (the parity harness
        scores the same tensors on both paths this way); the resolved
        ``"float64"`` default keeps the historical bitwise path.
        """
        network = self._require_trained()
        tensors = np.asarray(tensors)
        expected = self.extractor.output_shape
        if tensors.ndim != 4 or tensors.shape[1:] != expected:
            raise TrainingError(
                f"expected (N, {', '.join(map(str, expected))}) feature "
                f"tensors, got {tensors.shape}"
            )
        scaled = self.scaler.transform(tensors.astype(np.float32))
        resolved = self._resolve_precision(precision)
        if resolved == "float64":
            batch = np.ascontiguousarray(
                scaled.transpose(0, 3, 1, 2), dtype=self._compute_dtype
            )
            return network.predict_proba(batch)
        # Low-precision plans accumulate in float32; staging the batch
        # any wider would just be cast away at ingest.
        batch = np.ascontiguousarray(
            scaled.transpose(0, 3, 1, 2), dtype=np.float32
        )
        return network.predict_proba(batch, precision=resolved)

    def set_infer_precision(self, precision: str) -> None:
        """Re-point the serving precision (plans compile lazily)."""
        from dataclasses import replace

        self.config = replace(self.config, infer_precision=precision)

    def invalidate_inference_plans(self) -> None:
        """Drop compiled low-precision plans after in-place weight changes
        (:meth:`finetune` calls this; ``set_weights`` paths self-invalidate)."""
        if self.network is not None:
            self.network.invalidate_inference_plans()

    def calibrate_quant(
        self,
        tensors: np.ndarray,
        observer: str = "max",
        percentile: float = 99.9,
        batch_size: int = 256,
    ):
        """Observe activation ranges on a representative tensor batch.

        ``tensors`` is a raw ``(N, n, n, k)`` feature-tensor sample (the
        same layout :meth:`predict_proba_tensors` takes); it is
        standardised with the fitted scaler and run through the float
        reference forward while per-layer observers record ranges. The
        returned :class:`~repro.nn.quant.CalibrationResult` feeds
        :func:`~repro.nn.quant.quantize_network` and the float16 plans'
        overflow guard.
        """
        from repro.nn.quant import calibrate_network

        network = self._require_trained()
        tensors = np.asarray(tensors)
        expected = self.extractor.output_shape
        if tensors.ndim != 4 or tensors.shape[1:] != expected:
            raise TrainingError(
                f"expected (N, {', '.join(map(str, expected))}) feature "
                f"tensors, got {tensors.shape}"
            )
        scaled = self.scaler.transform(tensors.astype(np.float32))
        batch = np.ascontiguousarray(
            scaled.transpose(0, 3, 1, 2), dtype=np.float32
        )
        batches = (
            batch[start : start + batch_size]
            for start in range(0, batch.shape[0], batch_size)
        )
        return calibrate_network(
            network, batches, observer=observer, percentile=percentile
        )

    def predict(self, dataset: HotspotDataset) -> np.ndarray:
        """Hard labels (1 = hotspot)."""
        network = self._require_trained()
        return network.predict(self._to_network_input(dataset))

    def evaluate(
        self,
        dataset: HotspotDataset,
        simulation_seconds_per_clip: float = 10.0,
    ) -> DetectionMetrics:
        """Predict ``dataset`` and compute the Table-2 metrics.

        ``evaluation_seconds`` is the measured wall-clock of feature
        extraction plus network inference — the paper's "CPU(s)" column.
        """
        start = time.perf_counter()
        predictions = self.predict(dataset)
        elapsed = time.perf_counter() - start
        return evaluate_predictions(
            dataset.labels,
            predictions,
            evaluation_seconds=elapsed,
            simulation_seconds_per_clip=simulation_seconds_per_clip,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Save the trained weights plus the scaler statistics (npz)."""
        network = self._require_trained()
        mean, std = self.scaler.state()
        arrays = {
            f"param_{i:04d}": value for i, value in enumerate(network.get_weights())
        }
        arrays["scaler_mean"] = mean
        arrays["scaler_std"] = std
        np.savez_compressed(path, **arrays)

    # ------------------------------------------------------------------
    # Serving checkpoints (self-describing: config travels with weights)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Self-contained state tree of the trained model.

        Unlike :meth:`save` archives (weights + scaler only, architecture
        implied by the caller's config), the state tree carries the full
        :class:`DetectorConfig`, so :meth:`from_state` rebuilds an
        identical detector with no out-of-band knowledge — the property
        the serving model registry relies on.
        """
        network = self._require_trained()
        mean, std = self.scaler.state()
        return {
            "kind": DETECTOR_CHECKPOINT_KIND,
            "config": self.config.to_dict(),
            "weights": network.get_weights(),
            "scaler": {"mean": mean, "std": std},
        }

    @classmethod
    def from_state(cls, state: dict) -> "HotspotDetector":
        """Rebuild a detector from a :meth:`to_state` tree."""
        from repro.core.config import DetectorConfig

        if not isinstance(state, dict) or state.get("kind") != DETECTOR_CHECKPOINT_KIND:
            raise CheckpointCorruptError(
                f"not a {DETECTOR_CHECKPOINT_KIND} checkpoint "
                f"(kind={state.get('kind') if isinstance(state, dict) else state!r})"
            )
        try:
            config_dict = state["config"]
            weights = state["weights"]
            scaler_state = state["scaler"]
            # Dtype preserved: the scaler must transform exactly as the
            # training-time instance did (bitwise serving equivalence).
            mean = np.asarray(scaler_state["mean"])
            std = np.asarray(scaler_state["std"])
        except (KeyError, TypeError) as exc:
            raise CheckpointCorruptError(
                f"detector checkpoint missing field: {exc}"
            ) from exc
        detector = cls(DetectorConfig.from_dict(config_dict))
        detector.network = detector._build_network()
        detector.network.set_weights(weights)
        detector.scaler = ChannelScaler.from_state(mean, std)
        quant_state = state.get("quant")
        if quant_state:
            # Quantized checkpoints carry their int8 payload; binding it
            # here means an int8 plan compiled from this detector uses
            # the stored bytes verbatim (no re-quantization drift).
            from repro.nn.quant import attach_quant_state

            attach_quant_state(detector.network, quant_state)
        return detector

    def save_checkpoint(self, path: PathLike) -> None:
        """Atomically write a verified serving checkpoint (see PR-3 format)."""
        from repro.nn.serialize import write_checkpoint

        write_checkpoint(path, self.to_state())

    @classmethod
    def load_checkpoint(cls, path: PathLike) -> "HotspotDetector":
        """Load and fully verify a :meth:`save_checkpoint` file."""
        from repro.nn.serialize import read_checkpoint

        return cls.from_state(read_checkpoint(path))

    def load(self, path: PathLike) -> "HotspotDetector":
        """Load a model saved by :meth:`save` (architecture from config)."""
        if self.network is None:
            self.network = self._build_network()
        with np.load(path) as archive:
            self.scaler = ChannelScaler.from_state(
                archive["scaler_mean"], archive["scaler_std"]
            )
            param_keys = sorted(k for k in archive.files if k.startswith("param_"))
            expected = len(self.network.parameters())
            if len(param_keys) != expected:
                raise TrainingError(
                    f"{path}: archive has {len(param_keys)} parameters, "
                    f"network expects {expected}"
                )
            self.network.set_weights([archive[k] for k in param_keys])
        return self
