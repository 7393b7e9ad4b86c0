"""Activation layers.

The paper uses ReLU exclusively (Equation (5)); its positivity is what the
Theorem-1 argument for biased learning relies on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layer import Layer


class ReLU(Layer):
    """Element-wise ``max(x, 0)`` (paper Equation (5))."""

    kind = "relu"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._cache = mask
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cached(self._cache, "mask")
        self._cache = None
        return grad * mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape

