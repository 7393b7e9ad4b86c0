"""2-D convolution layer.

Implements the paper's Equation (4): each output map is the sum over input
channels of 2-D convolutions with a learned kernel, plus a bias. 'same'
padding keeps 12 x 12 feature maps at 12 x 12 through the 3 x 3 convolution
stages of Table 1.

The forward/backward passes run as single BLAS GEMMs over im2col patch
columns gathered directly in GEMM layout (``(C*k*k, N*P)``) into
workspace-pooled scratch (:mod:`repro.nn.kernels`), so steady-state
training allocates no column-matrix-sized buffers. With
``activation="relu"`` the bias add and ReLU are fused into the forward
buffer (mask-based backward) and the separate :class:`~repro.nn.
activations.ReLU` layer can be dropped; the fused path is bitwise
identical to the unfused one in float64.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.nn import kernels
from repro.nn.im2col import col2im_gemm, conv_output_size, im2col_gemm
from repro.nn.init import he_normal, zeros_init
from repro.nn.layer import Layer, Parameter


class Conv2D(Layer):
    """Convolution over NCHW inputs.

    Parameters
    ----------
    in_channels / out_channels:
        Channel counts; ``out_channels`` is the number of learned kernels.
    kernel_size:
        Square kernel side (3 in Table 1).
    stride:
        Spatial stride (1 in Table 1).
    padding:
        ``"same"`` (stride-1 shape-preserving, Table 1's convention),
        ``"valid"`` (no padding), or an explicit non-negative integer.
    rng:
        Weight-init RNG; defaults to a fixed seed for reproducibility.
    activation:
        ``None`` (linear output, the default) or ``"relu"`` to fuse the
        rectification into the conv forward/backward.
    dtype:
        Parameter/compute dtype (float64 default; float32 for speed).
    """

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str | int = "same",
        rng: Optional[np.random.Generator] = None,
        name: str = "",
        activation: Optional[str] = None,
        dtype=np.float64,
    ):
        super().__init__(name)
        if in_channels < 1 or out_channels < 1:
            raise NetworkError("channel counts must be >= 1")
        if kernel_size < 1 or stride < 1:
            raise NetworkError("kernel_size and stride must be >= 1")
        if activation not in (None, "relu"):
            raise NetworkError(
                f"unsupported fused activation {activation!r} (None or 'relu')"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = self._resolve_padding(padding)
        self.activation = activation
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            name=f"{self.name}.weight",
            dtype=dtype,
        )
        self.bias = Parameter(
            zeros_init((out_channels,)), name=f"{self.name}.bias", dtype=dtype
        )
        self._cache: Optional[
            Tuple[np.ndarray, Tuple[int, int], Tuple[int, ...], Optional[np.ndarray]]
        ] = None

    def _resolve_padding(self, padding: str | int) -> int:
        if isinstance(padding, int):
            if padding < 0:
                raise NetworkError(f"padding must be >= 0, got {padding}")
            return padding
        if padding == "same":
            if self.stride != 1:
                raise NetworkError("'same' padding requires stride 1")
            if self.kernel_size % 2 == 0:
                raise NetworkError("'same' padding requires an odd kernel")
            return (self.kernel_size - 1) // 2
        if padding == "valid":
            return 0
        raise NetworkError(f"unknown padding {padding!r}")

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise NetworkError(
                f"{self.name}: expected (N, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        cols_flat, (out_h, out_w) = im2col_gemm(
            x, self.kernel_size, self.stride, self.pad
        )
        w_rows = self.weight.value.reshape(self.out_channels, -1)
        # One BLAS GEMM over the whole batch: (F, K) @ (K, N*P).
        n = x.shape[0]
        patch_count = out_h * out_w
        out_dtype = np.result_type(w_rows.dtype, cols_flat.dtype)
        prod = kernels.scratch((self.out_channels, n * patch_count), out_dtype)
        np.matmul(w_rows, cols_flat, out=prod)
        out = kernels.scratch((n, self.out_channels, out_h, out_w), out_dtype)
        np.add(
            prod.reshape(self.out_channels, n, patch_count).transpose(1, 0, 2),
            self.bias.value[None, :, None],
            out=out.reshape(n, self.out_channels, patch_count),
        )
        mask: Optional[np.ndarray] = None
        if self.activation == "relu":
            mask = out > 0
            # max(x, 0) == where(x > 0, x, 0.0) value-for-value, applied
            # in place on the pooled output buffer.
            np.maximum(out, 0.0, out=out)
        self._cache = (cols_flat, (out_h, out_w), x.shape, mask)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols_flat, (out_h, out_w), x_shape, mask = self._require_cached(self._cache)
        # The im2col column matrix is by far the largest buffer in the
        # network; release the reference as soon as the gradients are
        # formed (the workspace reclaims the storage at the step boundary).
        self._cache = None
        if mask is not None:
            # Same values as ``grad * mask`` (ReLU.backward), into pooled
            # scratch instead of a fresh allocation.
            masked = kernels.scratch(grad.shape, grad.dtype)
            np.multiply(grad, mask, out=masked)
            grad = masked
        n = x_shape[0]
        patch_count = out_h * out_w
        grad_flat = kernels.scratch((self.out_channels, n, patch_count), grad.dtype)
        np.copyto(
            grad_flat,
            grad.reshape(n, self.out_channels, patch_count).transpose(1, 0, 2),
        )
        grad_flat = grad_flat.reshape(self.out_channels, n * patch_count)
        w_rows = self.weight.value.reshape(self.out_channels, -1)
        # dW: correlate upstream gradient with the cached input patches.
        dw_dtype = np.result_type(grad_flat.dtype, cols_flat.dtype)
        dw = kernels.scratch((self.out_channels, w_rows.shape[1]), dw_dtype)
        np.matmul(grad_flat, cols_flat.T, out=dw)
        self.weight.grad += dw.reshape(self.weight.value.shape)
        self.bias.grad += grad_flat.sum(axis=1)
        dcols_flat = kernels.scratch((w_rows.shape[1], n * patch_count), dw_dtype)
        np.matmul(w_rows.T, grad_flat, out=dcols_flat)
        return col2im_gemm(
            dcols_flat, x_shape, self.kernel_size, self.stride, self.pad
        )

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise NetworkError(
                f"{self.name}: expected ({self.in_channels}, H, W), got {input_shape}"
            )
        _, h, w = input_shape
        return (
            self.out_channels,
            conv_output_size(h, self.kernel_size, self.stride, self.pad),
            conv_output_size(w, self.kernel_size, self.stride, self.pad),
        )
