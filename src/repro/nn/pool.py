"""Max-pooling layer.

Table 1 uses 2 x 2 max pooling with stride 2 as the output stage of each
convolution block. The implementation requires the spatial size to be
divisible by the pool size (true everywhere in the paper's network:
12 -> 6 -> 3) which permits a fast reshape-based reduction.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.nn import kernels
from repro.nn.layer import Layer


class MaxPool2D(Layer):
    """Non-overlapping max pooling over NCHW inputs."""

    kind = "maxpool"

    def __init__(self, pool_size: int = 2, name: str = ""):
        super().__init__(name)
        if pool_size < 1:
            raise NetworkError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _tile(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise NetworkError(f"{self.name}: expected NCHW, got {x.shape}")
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise NetworkError(
                f"{self.name}: spatial size {h}x{w} not divisible by pool {p}"
            )
        return x.reshape(n, c, h // p, p, w // p, p)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        tiles = self._tile(x)
        n, c, h, w = x.shape
        p = self.pool_size
        out = kernels.scratch((n, c, h // p, w // p), x.dtype)
        tiles.max(axis=(3, 5), out=out)
        # Winner mask for the backward scatter. Ties split the gradient
        # between the tied positions, which keeps backward an exact adjoint
        # of a subgradient choice. The comparison writes 1.0/0.0 straight
        # into pooled scratch (same values as the bool astype it replaces).
        expanded = out[:, :, :, None, :, None]
        winners = kernels.scratch(tiles.shape, x.dtype)
        np.equal(tiles, expanded, out=winners)
        winners /= winners.sum(axis=(3, 5), keepdims=True)
        self._cache = (winners, np.array(x.shape))
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        winners, x_shape = self._require_cached(self._cache)
        self._cache = None
        n, c, h, w = (int(v) for v in x_shape)
        # The cached mask is dead after this call: scale it in place
        # rather than allocating the spread gradient.
        winners *= grad[:, :, :, None, :, None]
        return winners.reshape(n, c, h, w)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise NetworkError(f"{self.name}: expected (C, H, W), got {input_shape}")
        c, h, w = input_shape
        p = self.pool_size
        if h % p or w % p:
            raise NetworkError(
                f"{self.name}: spatial size {h}x{w} not divisible by pool {p}"
            )
        return (c, h // p, w // p)
