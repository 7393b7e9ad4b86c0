"""Quantized inference: calibrated low-precision plans for trained nets.

Training stays in float64/float32 — this module is inference-only. It
provides the three pieces of the quantized serving path:

- **Per-channel weight quantization**: :func:`quantize_per_channel`
  maps a float weight tensor to symmetric int8 (zero-point 0) with one
  float32 scale per *output channel* (axis 0 for conv ``OIHW`` kernels,
  axis 1 for dense ``(in, out)`` matrices), derived offline. The int8
  payload is ~4x smaller than float32 and deterministic: quantizing a
  dequantized payload reproduces it bitwise, which is what lets the
  registry checkpoint and every model loaded from it carry literally
  the same bytes.
- **Activation-range calibration**: :class:`MaxObserver` /
  :class:`PercentileObserver` record per-layer activation ranges from a
  representative batch (:func:`calibrate_network`). The float16 plans
  use the ranges to decide where an overflow clip is actually needed
  (activations are stored in half precision; anything calibrated above
  :data:`FP16_SAFE_MAX` gets capped in the epilogue, anything below
  skips the extra pass).
- **Compiled inference plans**: :class:`InferencePlan` walks a
  :class:`~repro.nn.network.Sequential` once and compiles it into a
  flat list of fused ops over preallocated channel-major buffers —
  slice-gather im2col, one GEMM per conv/dense with the
  dequant+bias+ReLU epilogue fused in (:func:`repro.nn.kernels.
  gemm_bias_act`), and strided-slice max-pooling. Arithmetic always
  accumulates in float32; ``precision="float16"`` stores the conv-stage
  activations in half precision, ``"int8"`` runs from the dequantized
  int8 weights. Plans are reached through
  ``Sequential.infer(x, precision=...)`` and cached per network; the
  default float64 path never touches any of this.

``precision="float32"`` deliberately maps to :class:`CastShadow` — the
*conventional* layer-by-layer pooled float32 forward (a float32 twin of
the network) — not to a fused plan. That keeps "float32" meaning what
PR 5 established (the pooled float32 forward) and makes the benchmark
claim honest: the int8 plan's speedup is measured against this path.

Thread safety: plan weights are shared, but every thread lazily gets
its own buffer set (keyed by batch size), so concurrent serving workers
can run the same plan; compilation itself is serialised by the network
container. Plans hold thread-local state and are never pickled — the
network drops them on ``__getstate__`` and recompiles on first use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import QuantizationError
from repro.nn import kernels
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.pool import MaxPool2D

#: Largest activation magnitude the float16 plans store unclipped.
#: float16 overflows at 65504; the guard sits safely below it so a
#: value that calibration barely missed still cannot reach ``inf``.
FP16_SAFE_MAX = 60000.0

#: Precisions that route through this module (everything except the
#: bitwise-pinned ``"float64"`` default).
QUANT_PRECISIONS = ("float32", "float16", "int8")

#: Every value ``Sequential.infer(precision=...)`` accepts.
INFER_PRECISIONS = ("float64",) + QUANT_PRECISIONS

#: Format tag / schema version of a quantized state subtree
#: (:func:`quantize_network`) as stored in serving checkpoints.
QUANT_STATE_FORMAT = "repro-quant"
QUANT_STATE_VERSION = 1


# ----------------------------------------------------------------------
# Per-channel symmetric int8 quantization
# ----------------------------------------------------------------------
class QuantizedTensor:
    """Symmetric per-channel int8 payload: ``value ~ q * scale``.

    ``q`` is int8 in ``[-127, 127]`` (zero-point 0 by symmetry), ``scale``
    one float32 per channel along ``axis``. Dequantization is exact
    float32 arithmetic, so it is deterministic across processes.
    """

    __slots__ = ("q", "scale", "axis")

    def __init__(self, q: np.ndarray, scale: np.ndarray, axis: int):
        self.q = np.asarray(q, dtype=np.int8)
        self.scale = np.asarray(scale, dtype=np.float32)
        self.axis = int(axis)
        if not 0 <= self.axis < self.q.ndim:
            raise QuantizationError(
                f"quant axis {self.axis} out of range for shape {self.q.shape}"
            )
        if self.scale.shape != (self.q.shape[self.axis],):
            raise QuantizationError(
                f"scale shape {self.scale.shape} does not match "
                f"{self.q.shape[self.axis]} channels along axis {self.axis}"
            )

    @property
    def nbytes(self) -> int:
        return self.q.nbytes + self.scale.nbytes

    def _broadcast_scale(self) -> np.ndarray:
        shape = [1] * self.q.ndim
        shape[self.axis] = self.scale.shape[0]
        return self.scale.reshape(shape)

    def dequantize(self) -> np.ndarray:
        """Float32 reconstruction ``q * scale`` (error <= scale/2)."""
        return self.q.astype(np.float32) * self._broadcast_scale()


def quantize_per_channel(values: np.ndarray, axis: int = 0) -> QuantizedTensor:
    """Symmetric per-channel int8 quantization of a weight tensor.

    The scale of each channel is ``amax / 127`` (``amax`` the channel's
    absolute maximum; an all-zero channel gets scale 1 so dequantization
    stays exact). Round-to-nearest-even then clip to ``[-127, 127]``.
    The reconstruction error is bounded by ``scale / 2`` per channel —
    the property the hypothesis suite pins.

    Deterministic and idempotent: ``quantize(dequantize(quantize(w)))``
    equals ``quantize(w)`` bitwise, because the stored float32 scale is
    what the rounding divides by.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim < 2:
        raise QuantizationError(
            f"per-channel quantization needs a >= 2-D tensor, got shape "
            f"{v.shape}"
        )
    if not 0 <= axis < v.ndim:
        raise QuantizationError(
            f"quant axis {axis} out of range for shape {v.shape}"
        )
    reduce_axes = tuple(a for a in range(v.ndim) if a != axis)
    amax = np.abs(v).max(axis=reduce_axes)
    scale = np.where(amax > 0.0, amax / 127.0, 1.0).astype(np.float32)
    # A subnormal channel max can underflow to 0.0 in float32; treat it
    # like an all-zero channel (scale 1, every code rounds to 0).
    scale = np.where(scale > 0.0, scale, np.float32(1.0))
    shape = [1] * v.ndim
    shape[axis] = scale.shape[0]
    # Divide by the float32 scale exactly as stored: q depends only on
    # (values, stored scale), which is what makes re-quantization of a
    # dequantized payload reproduce it bitwise.
    q = np.clip(
        np.rint(v / scale.astype(np.float64).reshape(shape)), -127, 127
    ).astype(np.int8)
    return QuantizedTensor(q, scale, axis)


def quant_axis_for(value: np.ndarray) -> int:
    """Output-channel axis convention: conv ``OIHW`` -> 0, dense
    ``(in, out)`` -> 1."""
    return 0 if np.asarray(value).ndim >= 3 else 1


# ----------------------------------------------------------------------
# Activation-range calibration
# ----------------------------------------------------------------------
class MaxObserver:
    """Tracks the absolute maximum activation seen across batches."""

    name = "max"

    def __init__(self) -> None:
        self._absmax = 0.0
        self._batches = 0

    def observe(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.size:
            self._absmax = max(self._absmax, float(np.max(np.abs(values))))
            self._batches += 1

    @property
    def batches(self) -> int:
        return self._batches

    def range(self) -> float:
        """The observed activation magnitude bound (0.0 before data)."""
        return self._absmax


class PercentileObserver:
    """Tracks a high percentile of |activation| per batch (max over
    batches) — robust to single outlier activations that would make a
    pure max observer clip everything else into a few codes."""

    name = "percentile"

    def __init__(self, percentile: float = 99.9) -> None:
        if not 0.0 < percentile <= 100.0:
            raise QuantizationError(
                f"percentile must be in (0, 100], got {percentile}"
            )
        self.percentile = float(percentile)
        self._ranges: List[float] = []

    def observe(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.size:
            self._ranges.append(
                float(np.percentile(np.abs(values), self.percentile))
            )

    @property
    def batches(self) -> int:
        return len(self._ranges)

    def range(self) -> float:
        return max(self._ranges) if self._ranges else 0.0


_OBSERVERS = {"max": MaxObserver, "percentile": PercentileObserver}


def make_observer(name: str, percentile: float = 99.9):
    """Observer factory by name (``"max"`` / ``"percentile"``)."""
    if name == "percentile":
        return PercentileObserver(percentile)
    try:
        return _OBSERVERS[name]()
    except KeyError:
        raise QuantizationError(
            f"unknown observer {name!r} (choices: {sorted(_OBSERVERS)})"
        ) from None


@dataclass
class CalibrationResult:
    """Per-layer activation ranges from a representative batch.

    ``ranges`` maps ``"<index>_<layer-name>"`` keys to the observed
    absolute activation bound after that layer. JSON-safe, so it travels
    inside checkpoints.
    """

    observer: str
    ranges: Dict[str, float] = field(default_factory=dict)
    samples: int = 0

    def to_dict(self) -> dict:
        return {
            "observer": self.observer,
            "ranges": {k: float(v) for k, v in self.ranges.items()},
            "samples": int(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationResult":
        try:
            return cls(
                observer=str(data["observer"]),
                ranges={
                    str(k): float(v) for k, v in dict(data["ranges"]).items()
                },
                samples=int(data.get("samples", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QuantizationError(
                f"bad calibration record: {exc}"
            ) from exc


def calibrate_network(
    network,
    batches,
    observer: str = "max",
    percentile: float = 99.9,
) -> CalibrationResult:
    """Observe per-layer activation ranges on representative input.

    ``batches`` is one standardized NCHW batch (what the network's
    ``infer`` takes) or an iterable of them. The forward runs on the
    reference float path, so the recorded ranges describe the
    activations the quantized plans must represent.
    """
    if isinstance(batches, np.ndarray):
        batches = [batches]
    observers = {}
    samples = 0
    saw_data = False
    for batch in batches:
        batch = np.asarray(batch)
        if batch.shape[0] == 0:
            continue
        saw_data = True
        samples += int(batch.shape[0])
        out = batch
        for index, layer in enumerate(network.layers):
            out = layer.infer(out)
            key = f"{index:02d}_{layer.name}"
            obs = observers.get(key)
            if obs is None:
                obs = observers[key] = make_observer(observer, percentile)
            obs.observe(out)
    if not saw_data:
        raise QuantizationError("calibration needs at least one sample")
    return CalibrationResult(
        observer=observer,
        ranges={key: obs.range() for key, obs in observers.items()},
        samples=samples,
    )


# ----------------------------------------------------------------------
# Quantized state trees (checkpoint payload)
# ----------------------------------------------------------------------
def quantize_network(network, calibration: Optional[CalibrationResult] = None) -> dict:
    """Quantized state subtree of a trained network.

    One entry per >= 2-D parameter (conv/dense weights; 1-D biases stay
    float). The tree nests plain ndarrays, so the PR-3 checkpoint format
    stores it as-is, and :func:`attach_quant_state` rebinds it on any
    rebuilt network with the same architecture.
    """
    entries = []
    for index, param in enumerate(network.parameters()):
        value = param.value
        if value.ndim < 2:
            continue
        axis = quant_axis_for(value)
        qt = quantize_per_channel(value, axis=axis)
        entries.append(
            {
                "index": int(index),
                "name": str(param.name),
                "axis": int(axis),
                "q": qt.q,
                "scale": qt.scale,
            }
        )
    if not entries:
        raise QuantizationError(
            "network has no quantizable (>= 2-D) parameters"
        )
    state = {
        "format": QUANT_STATE_FORMAT,
        "version": QUANT_STATE_VERSION,
        "params": entries,
    }
    if calibration is not None:
        state["calibration"] = calibration.to_dict()
    return state


def quant_state_params(state: dict) -> Dict[int, QuantizedTensor]:
    """Validate a :func:`quantize_network` tree -> {param index: tensor}."""
    if not isinstance(state, dict) or state.get("format") != QUANT_STATE_FORMAT:
        raise QuantizationError(
            f"not a {QUANT_STATE_FORMAT} state tree "
            f"(format={state.get('format') if isinstance(state, dict) else state!r})"
        )
    if int(state.get("version", 0)) != QUANT_STATE_VERSION:
        raise QuantizationError(
            f"unsupported quant state version {state.get('version')!r}"
        )
    tensors: Dict[int, QuantizedTensor] = {}
    try:
        for entry in state["params"]:
            tensors[int(entry["index"])] = QuantizedTensor(
                entry["q"], entry["scale"], int(entry["axis"])
            )
    except (KeyError, TypeError) as exc:
        raise QuantizationError(f"bad quant state entry: {exc}") from exc
    if not tensors:
        raise QuantizationError("quant state tree has no parameters")
    return tensors


def attach_quant_state(network, state: dict) -> None:
    """Bind a stored int8 payload to a network for its int8 plans.

    A plan compiled after this uses the attached payload *directly*
    instead of re-quantizing the float weights — so a model loaded from
    a checkpoint scores with byte-identical int8 weights to the
    publishing one. Calibration ranges (when the tree carries them) ride
    along for the float16 overflow guard.
    """
    tensors = quant_state_params(state)
    params = network.parameters()
    for index, qt in tensors.items():
        if index >= len(params):
            raise QuantizationError(
                f"quant state references parameter {index}, network has "
                f"{len(params)}"
            )
        if qt.q.shape != params[index].value.shape:
            raise QuantizationError(
                f"quant payload shape {qt.q.shape} does not match parameter "
                f"{params[index].name} shape {params[index].value.shape}"
            )
    network._attached_quant = tensors
    calibration = state.get("calibration")
    network._attached_calibration = (
        CalibrationResult.from_dict(calibration) if calibration else None
    )
    network.invalidate_inference_plans()


# ----------------------------------------------------------------------
# Compiled inference plans
# ----------------------------------------------------------------------
class _IngestSpec:
    """(N, C, H, W) network input -> (C, N, H, W) channel-major storage."""

    def __init__(self, channels: int, height: int, width: int, store):
        self.channels = channels
        self.height = height
        self.width = width
        self.store = np.dtype(store)

    def alloc(self, n: int):
        return (
            np.empty(
                (self.channels, n, self.height, self.width), dtype=self.store
            ),
        )

    def run(self, x: np.ndarray, bufs):
        (staging,) = bufs
        np.copyto(staging, x.transpose(1, 0, 2, 3), casting="same_kind")
        return staging


class _IngestFlatSpec:
    """(N, F) input of a dense-only network -> float32 staging."""

    def __init__(self, features: int):
        self.features = features

    def alloc(self, n: int):
        return (np.empty((n, self.features), dtype=np.float32),)

    def run(self, x: np.ndarray, bufs):
        (staging,) = bufs
        np.copyto(staging, x, casting="same_kind")
        return staging


class _ConvSpec:
    """3x3-style stride-1 conv as one GEMM over slice-gathered columns.

    With ``ingest`` set (the network's first conv), the spec accepts the
    raw ``(N, C, H, W)`` network input and transposes it straight into
    the padded staging buffer — one strided copy instead of a separate
    ingest store plus an interior copy.
    """

    def __init__(
        self,
        w2d: np.ndarray,
        bias: np.ndarray,
        pad: int,
        kernel: int,
        in_channels: int,
        out_channels: int,
        in_hw: Tuple[int, int],
        out_hw: Tuple[int, int],
        store,
        fuse: bool,
    ):
        self.w2d = np.ascontiguousarray(w2d, dtype=np.float32)
        self.bias = np.ascontiguousarray(
            bias, dtype=np.float32
        ).reshape(out_channels, 1)
        self.pad = pad
        self.kernel = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.in_hw = in_hw
        self.out_hw = out_hw
        self.store = np.dtype(store)
        self.fuse = fuse
        self.relu = False
        self.clip: Optional[float] = None
        self.ingest = False

    def alloc(self, n: int):
        h, w = self.in_hw
        oh, ow = self.out_hw
        k, p, c = self.kernel, self.pad, self.in_channels
        # Zero-filled once: the interior is overwritten every run, the
        # padding frame stays zero for the life of the buffer.
        padded = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=np.float32)
        cols = np.empty((c * k * k, n * oh * ow), dtype=np.float32)
        prod = np.empty((self.out_channels, n * oh * ow), dtype=np.float32)
        if self.store == np.float32:
            out = prod.reshape(self.out_channels, n, oh, ow)
        else:
            out = np.empty(
                (self.out_channels, n, oh, ow), dtype=self.store
            )
        return padded, cols, prod, out

    def run(self, x: np.ndarray, bufs):
        padded, cols, prod, out = bufs
        h, w = self.in_hw
        oh, ow = self.out_hw
        k, p, c = self.kernel, self.pad, self.in_channels
        if self.ingest:
            x = x.transpose(1, 0, 2, 3)
        n = x.shape[1]
        np.copyto(padded[:, :, p : p + h, p : p + w], x, casting="same_kind")
        gathered = cols.reshape(c, k, k, n, oh, ow)
        for ky in range(k):
            for kx in range(k):
                gathered[:, ky, kx] = padded[:, :, ky : ky + oh, kx : kx + ow]
        kernels.gemm_bias_act(
            self.w2d,
            cols,
            self.bias,
            prod,
            relu=self.relu and self.fuse,
            clip=self.clip,
        )
        if self.store != np.float32:
            np.copyto(
                out.reshape(self.out_channels, -1), prod, casting="same_kind"
            )
        if self.relu and not self.fuse:
            # Unfused reference: a second full pass over the stored
            # activation (what the fused epilogue saves).
            np.maximum(out, 0.0, out=out)
        return out


class _PoolSpec:
    """Strided-slice non-overlapping max pool over channel-major maps."""

    def __init__(self, pool: int, channels: int, in_hw: Tuple[int, int], store):
        self.pool = pool
        self.channels = channels
        self.in_hw = in_hw
        self.store = np.dtype(store)

    def alloc(self, n: int):
        h, w = self.in_hw
        p = self.pool
        out = np.empty(
            (self.channels, n, h // p, w // p), dtype=self.store
        )
        tmp = np.empty_like(out) if p == 2 else None
        return out, tmp

    def run(self, x: np.ndarray, bufs):
        out, tmp = bufs
        return kernels.pool_max_stride(x, self.pool, out, tmp)


class _FlattenSpec:
    """(C, N, h, w) channel-major conv output -> (N, C*h*w) float32,
    feature order matching :class:`~repro.nn.flatten.Flatten` on NCHW."""

    def __init__(self, channels: int, in_hw: Tuple[int, int]):
        self.channels = channels
        self.in_hw = in_hw

    def alloc(self, n: int):
        h, w = self.in_hw
        return (np.empty((n, self.channels * h * w), dtype=np.float32),)

    def run(self, x: np.ndarray, bufs):
        (flat,) = bufs
        h, w = self.in_hw
        n = x.shape[1]
        np.copyto(
            flat.reshape(n, self.channels, h, w),
            x.transpose(1, 0, 2, 3),
            casting="same_kind",
        )
        return flat


class _DenseSpec:
    """Dense GEMM with the fused bias(+ReLU, +clip) epilogue."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        store,
        fuse: bool,
        last: bool,
    ):
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        self.bias = np.ascontiguousarray(bias, dtype=np.float32)
        self.in_features, self.out_features = self.weight.shape
        # The incoming activation carries the plan-wide storage dtype
        # (it may be float16); the final logits always come back
        # float32, only intermediate dense outputs take the storage
        # dtype.
        self.in_store = np.dtype(store)
        self.store = np.float32 if last else np.dtype(store)
        self.fuse = fuse
        self.relu = False
        self.clip: Optional[float] = None

    def alloc(self, n: int):
        out = np.empty((n, self.out_features), dtype=np.float32)
        stage = (
            np.empty((n, self.in_features), dtype=np.float32)
            if self.in_store != np.float32
            else None
        )
        store_out = (
            np.empty((n, self.out_features), dtype=self.store)
            if self.store != np.float32
            else None
        )
        return out, stage, store_out

    def run(self, x: np.ndarray, bufs):
        out, stage, store_out = bufs
        if x.dtype != np.float32:
            # Previous activation was stored in float16: restage to
            # float32 so the GEMM accumulates in single precision.
            np.copyto(stage, x, casting="same_kind")
            x = stage
        kernels.gemm_bias_act(
            x,
            self.weight,
            self.bias,
            out,
            relu=self.relu and self.fuse,
            clip=self.clip,
        )
        result = out
        if store_out is not None:
            np.copyto(store_out, out, casting="same_kind")
            result = store_out
        if self.relu and not self.fuse:
            np.maximum(result, 0.0, out=result)
        return result


class _ActSpec:
    """Standalone in-place ReLU (a rectifier the compiler could not fold
    into the producing op — e.g. following a pooling layer)."""

    def __init__(self):
        pass

    def alloc(self, n: int):
        return ()

    def run(self, x: np.ndarray, bufs):
        np.maximum(x, 0.0, out=x)
        return x


def _weight_operand(
    value: np.ndarray,
    precision: str,
    attached: Optional[QuantizedTensor],
) -> np.ndarray:
    """The float32 GEMM operand a plan uses for one weight tensor."""
    if precision == "int8":
        qt = attached
        if qt is None:
            qt = quantize_per_channel(value, axis=quant_axis_for(value))
        elif qt.q.shape != value.shape:
            raise QuantizationError(
                f"attached int8 payload shape {qt.q.shape} does not match "
                f"weight shape {value.shape}"
            )
        return qt.dequantize()
    if precision == "float16":
        # Round through float32 first. Double rounding can differ from
        # a direct float64 -> float16 cast, and stored parity reports
        # vouch for the plan as compiled this way.
        return (
            np.asarray(value)
            .astype(np.float32)
            .astype(np.float16)
            .astype(np.float32)
        )
    return np.asarray(value, dtype=np.float32)


#: Quantized plans run the spec pipeline in fixed-size batch tiles. The
#: staging/column buffers of a large batch overflow the cache (the first
#: conv's im2col columns alone are ~10 MB at batch 64 on the Table-1
#: network), so each stage streams from memory; 16-sample tiles keep
#: every intermediate cache-resident, measurably faster end to end. The
#: tile size is a constant so a given batch always scores identically.
#: The float32 plan never tiles: its contract is bitwise equality with
#: the conventional whole-batch forward, and BLAS results are not
#: row-stable across GEMM shapes.
_BATCH_TILE = 16


class InferencePlan:
    """A Sequential network compiled for one low-precision forward.

    Built once per (network, precision); every thread binds its own
    buffer set per batch size on first use, so `run` is reentrant.
    """

    def __init__(
        self,
        network,
        precision: str,
        fuse_epilogue: bool = True,
        calibration: Optional[CalibrationResult] = None,
    ):
        if precision not in QUANT_PRECISIONS:
            raise QuantizationError(
                f"unknown plan precision {precision!r} "
                f"(choices: {QUANT_PRECISIONS})"
            )
        self.precision = precision
        self.fuse_epilogue = bool(fuse_epilogue)
        self.input_shape = tuple(network.input_shape)
        store = np.float16 if precision == "float16" else np.float32
        self.store_dtype = np.dtype(store)
        if calibration is None:
            calibration = getattr(network, "_attached_calibration", None)
        ranges = calibration.ranges if calibration is not None else None
        self._specs = self._compile(network, ranges)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _clip_for(self, ranges: Optional[Dict[str, float]], key: str):
        """Float16 overflow guard: clip only where calibration says the
        activation can overflow half precision (or always, when no
        calibration is available to prove it safe)."""
        if self.store_dtype != np.float16:
            return None
        if ranges is None:
            return FP16_SAFE_MAX
        observed = ranges.get(key)
        if observed is None or observed > FP16_SAFE_MAX:
            return FP16_SAFE_MAX
        return None

    def _compile(self, network, ranges) -> List[object]:
        store = self.store_dtype
        attached: Dict[int, QuantizedTensor] = getattr(
            network, "_attached_quant", None
        ) or {}
        shapes = network._shapes
        specs: List[object] = []
        ingest_pending = None
        if len(self.input_shape) == 3:
            channels, height, width = self.input_shape
            # Deferred: if the first layer is a conv, the transpose fuses
            # into its padded-staging copy and no ingest buffer exists.
            ingest_pending = _IngestSpec(channels, height, width, store)
            spatial = True
        elif len(self.input_shape) == 1:
            specs.append(_IngestFlatSpec(self.input_shape[0]))
            spatial = False
        else:
            raise QuantizationError(
                f"cannot compile a plan for input shape {self.input_shape}"
            )
        pending = None  # last conv/dense spec, open for a ReLU fold
        param_index = 0
        for index, layer in enumerate(network.layers):
            in_shape = shapes[index]
            out_shape = shapes[index + 1]
            key = f"{index:02d}_{layer.name}"
            if isinstance(layer, Conv2D):
                if not spatial:
                    raise QuantizationError(
                        f"{layer.name}: conv after flatten is unsupported"
                    )
                if layer.stride != 1:
                    raise QuantizationError(
                        f"{layer.name}: quantized plans require stride 1, "
                        f"got {layer.stride}"
                    )
                weight = _weight_operand(
                    layer.weight.value,
                    self.precision,
                    attached.get(param_index),
                )
                spec = _ConvSpec(
                    weight.reshape(layer.out_channels, -1),
                    np.asarray(layer.bias.value),
                    pad=layer.pad,
                    kernel=layer.kernel_size,
                    in_channels=layer.in_channels,
                    out_channels=layer.out_channels,
                    in_hw=(in_shape[1], in_shape[2]),
                    out_hw=(out_shape[1], out_shape[2]),
                    store=store,
                    fuse=self.fuse_epilogue,
                )
                spec.clip = self._clip_for(ranges, key)
                if layer.activation == "relu":
                    spec.relu = True
                if ingest_pending is not None:
                    spec.ingest = True
                    ingest_pending = None
                specs.append(spec)
                pending = spec
                param_index += 2
            elif isinstance(layer, Dense):
                if spatial:
                    raise QuantizationError(
                        f"{layer.name}: dense before flatten is unsupported"
                    )
                weight = _weight_operand(
                    layer.weight.value,
                    self.precision,
                    attached.get(param_index),
                )
                last = all(
                    isinstance(rest, Dropout)
                    for rest in network.layers[index + 1 :]
                )
                spec = _DenseSpec(
                    weight,
                    np.asarray(layer.bias.value),
                    store=store,
                    fuse=self.fuse_epilogue,
                    last=last,
                )
                spec.clip = self._clip_for(ranges, key)
                specs.append(spec)
                pending = spec
                param_index += 2
            elif isinstance(layer, MaxPool2D):
                if not spatial:
                    raise QuantizationError(
                        f"{layer.name}: pooling after flatten is unsupported"
                    )
                if ingest_pending is not None:
                    specs.append(ingest_pending)
                    ingest_pending = None
                specs.append(
                    _PoolSpec(
                        layer.pool_size,
                        in_shape[0],
                        (in_shape[1], in_shape[2]),
                        store,
                    )
                )
                pending = None
            elif isinstance(layer, Flatten):
                if spatial:
                    if ingest_pending is not None:
                        specs.append(ingest_pending)
                        ingest_pending = None
                    specs.append(
                        _FlattenSpec(in_shape[0], (in_shape[1], in_shape[2]))
                    )
                    spatial = False
                pending = None
            elif isinstance(layer, ReLU):
                if pending is not None and not pending.relu:
                    pending.relu = True
                    # The stored activation is post-ReLU: recheck the
                    # overflow guard against that layer's range.
                    pending.clip = self._clip_for(ranges, key)
                else:
                    if ingest_pending is not None:
                        specs.append(ingest_pending)
                        ingest_pending = None
                    specs.append(_ActSpec())
                pending = None
            elif isinstance(layer, Dropout):
                continue  # identity at inference
            else:
                raise QuantizationError(
                    f"precision {self.precision!r} cannot compile layer "
                    f"{layer.name!r} ({type(layer).__name__})"
                )
        return specs

    # ------------------------------------------------------------------
    def _buffers_for(self, n: int):
        by_n = getattr(self._local, "by_n", None)
        if by_n is None:
            by_n = self._local.by_n = {}
        bound = by_n.get(n)
        if bound is None:
            bound = by_n[n] = [spec.alloc(n) for spec in self._specs]
        return bound

    def run(self, x: np.ndarray) -> np.ndarray:
        """One forward pass; returns fresh float32 logits."""
        n = x.shape[0]
        if self.precision != "float32" and n > _BATCH_TILE:
            first = self._run_tile(x[:_BATCH_TILE])
            out = np.empty((n,) + first.shape[1:], dtype=np.float32)
            out[:_BATCH_TILE] = first
            for start in range(_BATCH_TILE, n, _BATCH_TILE):
                stop = min(start + _BATCH_TILE, n)
                out[start:stop] = self._run_tile(x[start:stop])
            return out
        return np.array(self._run_tile(x), dtype=np.float32, copy=True)

    def _run_tile(self, x: np.ndarray) -> np.ndarray:
        out = x
        for spec, bufs in zip(self._specs, self._buffers_for(x.shape[0])):
            out = spec.run(out, bufs)
        return out


class CastShadow:
    """The conventional pooled float32 forward: a float32 twin network.

    ``precision="float32"`` runs the same layer-by-layer inference path
    as a ``compute_dtype="float32"`` network — roughly half the memory
    traffic of float64 through every GEMM, no fused plan. It is the
    reference the quantized plans' speedups are measured against.
    """

    precision = "float32"

    def __init__(self, network):
        import copy

        self.network = copy.deepcopy(network)
        for param in self.network.parameters():
            param.value = np.asarray(param.value, dtype=np.float32)
            param.grad = np.zeros_like(param.value)

    def run(self, x: np.ndarray) -> np.ndarray:
        batch = np.ascontiguousarray(x, dtype=np.float32)
        return self.network.infer(batch)


def build_infer_plan(network, precision: str):
    """The execution object behind ``Sequential.infer(precision=...)``."""
    if precision == "float32":
        return CastShadow(network)
    if precision in ("float16", "int8"):
        return InferencePlan(network, precision)
    raise QuantizationError(
        f"unknown inference precision {precision!r} "
        f"(choices: {INFER_PRECISIONS})"
    )
