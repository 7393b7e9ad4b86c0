"""Fully connected layer.

Table 1's fc1 (250 units) and fc2 (2 units, the hotspot/non-hotspot output
scores) are instances of this layer. Forward/backward GEMMs write into
workspace-pooled scratch (:mod:`repro.nn.kernels`) so steady-state training
reuses the activation and gradient buffers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.nn import kernels
from repro.nn.init import glorot_uniform, he_normal, zeros_init
from repro.nn.layer import Layer, Parameter


class Dense(Layer):
    """Affine map ``y = x W + b`` over (N, in_features) inputs."""

    kind = "fc"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "he",
        name: str = "",
        dtype=np.float64,
    ):
        super().__init__(name)
        if in_features < 1 or out_features < 1:
            raise NetworkError("feature counts must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng(0)
        if init == "he":
            weight = he_normal(rng, (in_features, out_features), in_features)
        elif init == "glorot":
            weight = glorot_uniform(
                rng, (in_features, out_features), in_features, out_features
            )
        else:
            raise NetworkError(f"unknown init {init!r}")
        self.weight = Parameter(weight, name=f"{self.name}.weight", dtype=dtype)
        self.bias = Parameter(
            zeros_init((out_features,)), name=f"{self.name}.bias", dtype=dtype
        )
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise NetworkError(
                f"{self.name}: expected (N, {self.in_features}), got {x.shape}"
            )
        self._cache = x
        # ``x @ W + b`` computed into workspace scratch.
        out_dtype = np.result_type(x.dtype, self.weight.value.dtype)
        out = kernels.scratch((x.shape[0], self.out_features), out_dtype)
        np.matmul(x, self.weight.value, out=out)
        np.add(out, self.bias.value, out=out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._require_cached(self._cache)
        self._cache = None
        dw_dtype = np.result_type(x.dtype, grad.dtype)
        dw = kernels.scratch((self.in_features, self.out_features), dw_dtype)
        np.matmul(x.T, grad, out=dw)
        self.weight.grad += dw
        self.bias.grad += grad.sum(axis=0)
        dx_dtype = np.result_type(grad.dtype, self.weight.value.dtype)
        dx = kernels.scratch((grad.shape[0], self.in_features), dx_dtype)
        np.matmul(grad, self.weight.value.T, out=dx)
        return dx

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise NetworkError(
                f"{self.name}: expected ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)
