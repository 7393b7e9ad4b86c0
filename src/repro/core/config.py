"""Detector configuration.

All the paper's hyper-parameters in one dataclass, with the scaled-down
defaults this CPU reproduction trains with. Paper values (Section 5):
``λ = 1e-4 ... 1e-3``, ``α = 0.5``, ``k_decay = 10,000``, ``ε0 = 0``,
``δε = 0.1``, ``t = 4``, validation fraction 25 %, dropout 50 %. Iteration
counts scale with dataset size here because our suites are ~50x smaller
than the paper's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping

from repro.exceptions import ConfigError, TrainingError
from repro.features.tensor import FeatureTensorConfig
from repro.nn.trainer import TrainerConfig


#: Values of the retired ``feature.dct_backend`` key that stored configs
#: may carry; :meth:`DetectorConfig.from_dict` accepts and drops them.
_RETIRED_DCT_BACKENDS = ("scipy", "matmul")


@dataclass(frozen=True)
class DetectorConfig:
    """End-to-end configuration of :class:`~repro.core.detector.HotspotDetector`.

    Attributes
    ----------
    feature:
        Feature-tensor settings (n, k, raster resolution).
    learning_rate / lr_alpha / lr_decay_every:
        Algorithm 1's λ, α and k. The paper uses k = 10,000 on datasets of
        tens of thousands of clips; scale it with your data.
    epsilon_step / bias_rounds:
        Algorithm 2's δε and t (including the ε = 0 round).
    finetune_fraction:
        Iteration budget of each ε > 0 fine-tuning round relative to the
        initial round (the paper fine-tunes rather than retrains).
    max_false_alarm_increase:
        Validation FA-rate budget for accepting further ε-rounds.
    validation_fraction:
        Held-out fraction of the training data (paper: 25 %).
    balance_training:
        Upsample the minority class of the (post-split) training slice so
        MGD batches see both classes at comparable rates. The validation
        slice keeps its natural imbalance. Essential on ICCAD-like suites
        whose hotspot fraction is ~7 %.
    augment_hotspots:
        Expand training hotspots with their dihedral orbit (flips and 90°
        rotations preserve litho labels); used by follow-up literature.
    trainer:
        Inner MGD loop settings (batch size m, iteration caps, patience).
    seed:
        Master seed for weight init and data splits.
    compute_dtype:
        Network parameter/activation precision: ``"float64"`` (default,
        bitwise-compatible with all pre-existing checkpoints) or
        ``"float32"`` (the fast path — roughly half the memory traffic
        through every GEMM).
    fused_conv:
        Fold each post-conv ReLU into the convolution layer (same math;
        fewer buffer passes). Off by default so checkpointed layer
        structure stays identical to historical runs.
    infer_precision:
        Inference-only precision policy (training is untouched). Every
        value scores through the network's compiled
        :class:`~repro.nn.quant.InferencePlan`: ``"float64"`` (default)
        computes in ``compute_dtype``, bitwise equal to the network's
        ``forward``; ``"float32"`` over float32 casts of the weights;
        ``"float16"`` and ``"int8"`` accumulate in float32 with
        half-precision activations or per-channel int8 weights.
        Checkpoints written before this field existed load unchanged —
        the default is the pre-quantization behaviour.
    """

    feature: FeatureTensorConfig = field(default_factory=FeatureTensorConfig)
    learning_rate: float = 1e-3
    lr_alpha: float = 0.5
    lr_decay_every: int = 1500
    epsilon_step: float = 0.1
    bias_rounds: int = 4
    finetune_fraction: float = 0.4
    max_false_alarm_increase: float = 0.12
    validation_fraction: float = 0.25
    balance_training: bool = True
    augment_hotspots: bool = False
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    seed: int = 0
    compute_dtype: str = "float64"
    fused_conv: bool = False
    infer_precision: str = "float64"

    def __post_init__(self) -> None:
        if self.compute_dtype not in ("float32", "float64"):
            raise TrainingError(
                f"compute_dtype must be 'float32' or 'float64', "
                f"got {self.compute_dtype!r}"
            )
        if self.infer_precision not in (
            "float64",
            "float32",
            "float16",
            "int8",
        ):
            raise TrainingError(
                f"infer_precision must be one of 'float64', 'float32', "
                f"'float16', 'int8', got {self.infer_precision!r}"
            )
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if not 0.0 < self.lr_alpha <= 1.0:
            raise TrainingError("lr_alpha must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise TrainingError("lr_decay_every must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise TrainingError("validation_fraction must be in (0, 1)")
        if self.bias_rounds < 1:
            raise TrainingError("bias_rounds must be >= 1")
        if not 0.0 < self.finetune_fraction <= 1.0:
            raise TrainingError("finetune_fraction must be in (0, 1]")
        if self.epsilon_step < 0:
            raise TrainingError("epsilon_step must be >= 0")
        if self.max_false_alarm_increase < 0:
            raise TrainingError("max_false_alarm_increase must be >= 0")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe nested dict (checkpoint / registry manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetectorConfig":
        """Rebuild a config serialised by :meth:`to_dict`.

        Unknown keys (a checkpoint written by a newer build) raise
        :class:`~repro.exceptions.ConfigError` rather than being silently
        dropped — a served model must run under exactly the configuration
        it was trained with. The one retired key, ``feature.dct_backend``,
        is dropped when it holds a value older builds wrote (``"scipy"``
        or ``"matmul"``): both backends computed the coefficients today's
        single kernel computes, to within one float32 ulp (plus 1e-10).
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"detector config must be a mapping, got {type(data).__name__}")
        fields = dict(data)
        try:
            feature_fields = dict(fields.pop("feature", {}))
            backend = feature_fields.pop("dct_backend", "scipy")
            if backend not in _RETIRED_DCT_BACKENDS:
                raise ConfigError(
                    f"bad detector config: unknown feature.dct_backend "
                    f"{backend!r}"
                )
            feature = FeatureTensorConfig(**feature_fields)
            trainer = TrainerConfig(**fields.pop("trainer", {}))
            return cls(feature=feature, trainer=trainer, **fields)
        except TypeError as exc:
            raise ConfigError(f"bad detector config: {exc}") from exc
