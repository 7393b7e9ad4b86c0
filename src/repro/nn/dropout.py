"""Inverted dropout.

The paper applies 50 % dropout on fc1 during training to alleviate
overfitting. Inverted scaling (divide kept activations by the keep
probability at train time) makes inference a no-op, matching modern
framework behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.nn.layer import Layer


class Dropout(Layer):
    """Randomly zero a fraction ``rate`` of activations during training."""

    kind = "dropout"

    def __init__(
        self,
        rate: float = 0.5,
        rng: Optional[np.random.Generator] = None,
        name: str = "",
    ):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            # Identity at inference; cache ones so a (non-standard)
            # backward-after-eval still works.
            self._cache = np.ones_like(x)
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep) / keep
        if mask.dtype != x.dtype:
            # Keep reduced-precision activations at their dtype; the
            # float64 path is untouched (mask is already float64).
            mask = mask.astype(x.dtype)
        self._cache = mask
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cached(self._cache, "mask")
        self._cache = None
        return grad * mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape

    def extra_state(self) -> dict:
        # The mask RNG advances every training forward; bitwise-identical
        # resume requires restoring its exact position.
        return {"rng": self._rng.bit_generator.state}

    def load_extra_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
