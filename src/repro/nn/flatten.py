"""Flatten layer: NCHW feature maps to (N, features) vectors."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.nn.layer import Layer


class Flatten(Layer):
    """Reshape (N, C, H, W) to (N, C*H*W) between conv and FC stages."""

    kind = "flatten"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._cache: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim < 2:
            raise NetworkError(f"{self.name}: expected batched input, got {x.shape}")
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = self._require_cached(self._cache, "shape")
        self._cache = None
        return grad.reshape(shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        size = 1
        for s in input_shape:
            size *= int(s)
        return (size,)
