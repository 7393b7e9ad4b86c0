"""Compiled inference: the one executor behind ``Sequential.infer``.

Training stays in float64/float32 through the layers' ``forward`` and
``backward``; every inference call runs here. The module has three
pieces:

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
  use the ranges :func:`attach_quant_state` binds to the network to
  decide where an overflow clip is actually needed
  (activations are stored in half precision; anything calibrated above
  :data:`FP16_SAFE_MAX` gets capped in the epilogue, anything below
  skips the extra pass).
- **Compiled inference plans**: :class:`InferencePlan` walks a
  :class:`~repro.nn.network.Sequential` once and compiles it into a
  flat list of fused ops over channel-major buffers — slice-gather
  im2col, one GEMM per conv/dense with the dequant+bias+ReLU epilogue
  fused in (:func:`repro.nn.kernels.gemm_bias_act`), and strided-slice
  max-pooling. Plans are reached through
  ``Sequential.infer(x, precision=...)`` and cached per network and
  precision.

The precision picks the plan's dtypes. ``"float64"`` (the default)
computes in the network's own parameter dtype over the parameter arrays
themselves, so optimizer steps, which write weights in place, show up
without a recompile; it is bitwise equal to ``forward(training=False)``.
``"float32"`` computes over float32 casts of the weights, bitwise equal
to the forward of a float32 twin of the network. ``"float16"`` stores
activations in half precision and ``"int8"`` runs dequantized
per-channel int8 weights; both accumulate in float32 and score in
16-row tiles. float64 and float32 plans never split a batch, because
BLAS results are not row-stable across GEMM shapes.

Buffers live for one call. Each run lays its buffers out in one zeroed
byte block from their lifetimes, so buffers never live at the same time
share bytes (the im2col columns of one layer, the padded staging of
another); the layout is cached per row count, the memory never is. A
call thus needs about what the largest layer needs, nothing sized by
the batch outlives it, and concurrent calls share no mutable state.
Plans are never pickled: the network drops them on ``__getstate__`` and
recompiles on first use.
"""

from __future__ import annotations

import time
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
from repro.nn.layer import Layer
from repro.nn.pool import MaxPool2D

#: Largest activation magnitude the float16 plans store unclipped.
#: float16 overflows at 65504; the guard sits safely below it so a
#: value that calibration barely missed still cannot reach ``inf``.
FP16_SAFE_MAX = 60000.0

#: Reduced precisions a model can be published and served at.
QUANT_PRECISIONS = ("float32", "float16", "int8")

#: Every value ``Sequential.infer(precision=...)`` accepts; ``"float64"``
#: is the default, in the network's own parameter dtype.
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
    ``infer`` takes) or an iterable of them. Each batch runs layer by
    layer through the reference ``forward(training=False)``, so the
    recorded ranges describe the activations the quantized plans must
    represent; the forward caches are released afterwards.
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
            out = layer.forward(out, training=False)
            key = f"{index:02d}_{layer.name}"
            obs = observers.get(key)
            if obs is None:
                obs = observers[key] = make_observer(observer, percentile)
            obs.observe(out)
        network.free_caches()
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
#: Steps on the buffer-lifetime timeline per spec. A spec's buffers name
#: the steps (0-3) of its run in which they are live; the incoming
#: activation stays live through all four.
_PHASES = 4

#: Byte alignment of every buffer in a call's block (one cache line).
_ALIGN = 64

#: Quantized plans run the spec pipeline in fixed-size batch tiles. The
#: staging/column buffers of a large batch overflow the cache (the first
#: conv's im2col columns alone are ~10 MB at batch 64 on the Table-1
#: network), so each stage streams from memory; 16-sample tiles keep
#: every intermediate cache-resident, measurably faster end to end. The
#: tile size is a constant so a given batch always scores identically.
#: float64 and float32 plans never tile: their contract is bitwise
#: equality with the whole-batch forward, and BLAS results are not
#: row-stable across GEMM shapes.
_BATCH_TILE = 16


class _Spec:
    """One fused step of a compiled plan.

    ``buffers(n)`` lists the scratch a run over ``n`` rows needs, as
    ``(shape, dtype, first step, last step)`` entries (``None`` for a
    buffer this spec does without); ``run`` receives them back as views
    into the call's block. ``output`` indexes the buffer ``run`` returns
    (``None``: the spec works in place on its input). ``layer`` is the
    index of the first network layer the spec covers, under whose
    ``nn.forward`` histogram profiling records its time.
    """

    output: Optional[int] = None
    layer = 0

    def buffers(self, n: int) -> list:
        return []

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        raise NotImplementedError


class _IngestSpec(_Spec):
    """Network input -> plan storage: channel-major ``(C, N, H, W)`` for
    spatial inputs, ``(N, features)`` for everything else."""

    output = 0

    def __init__(self, shape: Tuple[int, ...], dtype: np.dtype):
        self.shape = shape
        self.dtype = dtype

    def buffers(self, n: int) -> list:
        if len(self.shape) == 3:
            c, h, w = self.shape
            return [((c, n, h, w), self.dtype, 0, 0)]
        return [((n, int(np.prod(self.shape))), self.dtype, 0, 0)]

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        (staging,) = bufs
        if len(self.shape) == 3:
            x = x.transpose(1, 0, 2, 3)
        else:
            x = x.reshape(staging.shape)
        np.copyto(staging, x, casting="same_kind")
        return staging


class _ConvSpec(_Spec):
    """A convolution as one GEMM over slice-gathered im2col columns.

    Step 0 stages the input into ``padded`` (re-zeroing its padding
    frame, whose bytes another buffer may have used), step 1 gathers the
    columns with strided slices, step 2 runs the GEMM with the fused
    bias(+ReLU, +clip) epilogue into ``prod``, and step 3 casts into
    ``out`` when activations are stored narrower than they are computed.
    With ``ingest`` set (the network's first layer), the spec takes the
    raw ``(N, C, H, W)`` input and transposes it straight into
    ``padded``.
    """

    def __init__(
        self,
        layer: Conv2D,
        w2d: np.ndarray,
        bias: np.ndarray,
        in_shape: Tuple[int, ...],
        out_shape: Tuple[int, ...],
        compute: np.dtype,
        store: np.dtype,
    ):
        self.w2d = w2d
        self.bias = bias
        self.kernel = layer.kernel_size
        self.stride = layer.stride
        self.pad = layer.pad
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.compute = compute
        self.store = store
        self.relu = False
        self.clip: Optional[float] = None
        self.ingest = False
        self.output = 2 if store == compute else 3

    def buffers(self, n: int) -> list:
        c, h, w = self.in_shape
        f, oh, ow = self.out_shape
        k, p = self.kernel, self.pad
        return [
            ((c, n, h + 2 * p, w + 2 * p), self.compute, 0, 1),
            ((c * k * k, n * oh * ow), self.compute, 1, 2),
            ((f, n * oh * ow), self.compute, 2, 3),
            ((f, n, oh, ow), self.store, 3, 3) if self.output == 3 else None,
        ]

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        padded, cols, prod, stored = bufs
        c, h, w = self.in_shape
        f, oh, ow = self.out_shape
        k, p, s = self.kernel, self.pad, self.stride
        if self.ingest:
            x = x.transpose(1, 0, 2, 3)
        n = x.shape[1]
        if p:
            padded[:, :, :p] = 0
            padded[:, :, p + h :] = 0
            padded[:, :, p : p + h, :p] = 0
            padded[:, :, p : p + h, p + w :] = 0
        np.copyto(padded[:, :, p : p + h, p : p + w], x, casting="same_kind")
        gathered = cols.reshape(c, k, k, n, oh, ow)
        for ky in range(k):
            for kx in range(k):
                gathered[:, ky, kx] = padded[
                    :, :, ky : ky + s * oh : s, kx : kx + s * ow : s
                ]
        kernels.gemm_bias_act(
            self.w2d,
            cols,
            self.bias,
            prod,
            relu=self.relu,
            clip=self.clip,
        )
        out = prod.reshape(f, n, oh, ow)
        if stored is not None:
            np.copyto(stored, out, casting="same_kind")
            out = stored
        return out


class _PoolSpec(_Spec):
    """Strided-slice non-overlapping max pool over channel-major maps."""

    output = 0

    def __init__(self, pool: int, in_shape: Tuple[int, ...], store: np.dtype):
        self.pool = pool
        self.in_shape = in_shape
        self.store = store

    def buffers(self, n: int) -> list:
        c, h, w = self.in_shape
        p = self.pool
        out = ((c, n, h // p, w // p), self.store, 0, 0)
        return [out, out if p == 2 else None]

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        out, tmp = bufs
        return kernels.pool_max_stride(x, self.pool, out, tmp)


class _FlattenSpec(_Spec):
    """(C, N, h, w) channel-major maps -> (N, C*h*w) in the compute
    dtype, feature order matching :class:`~repro.nn.flatten.Flatten` on
    NCHW."""

    output = 0

    def __init__(self, in_shape: Tuple[int, ...], compute: np.dtype):
        self.in_shape = in_shape
        self.compute = compute

    def buffers(self, n: int) -> list:
        c, h, w = self.in_shape
        return [((n, c * h * w), self.compute, 0, 0)]

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        (flat,) = bufs
        n = x.shape[1]
        np.copyto(
            flat.reshape((n,) + self.in_shape),
            x.transpose(1, 0, 2, 3),
            casting="same_kind",
        )
        return flat


class _DenseSpec(_Spec):
    """Dense GEMM with the fused bias(+ReLU, +clip) epilogue.

    An input stored narrower than the compute dtype (float16) is
    restaged first (step 0) so the GEMM (step 1) accumulates at full
    width; an intermediate output is cast back to the storage dtype
    (step 2), the final logits stay in the compute dtype.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        compute: np.dtype,
        in_dtype: np.dtype,
        out_dtype: np.dtype,
    ):
        self.weight = weight
        self.bias = bias
        self.in_features, self.out_features = weight.shape
        self.compute = compute
        self.in_dtype = in_dtype
        self.out_dtype = out_dtype
        self.relu = False
        self.clip: Optional[float] = None
        self.output = 1 if out_dtype == compute else 2

    def buffers(self, n: int) -> list:
        stage = ((n, self.in_features), self.compute, 0, 1)
        out = ((n, self.out_features), self.compute, 1, 2)
        stored = ((n, self.out_features), self.out_dtype, 2, 2)
        return [
            stage if self.in_dtype != self.compute else None,
            out,
            stored if self.output == 2 else None,
        ]

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        stage, out, stored = bufs
        if stage is not None:
            np.copyto(stage, x, casting="same_kind")
            x = stage
        kernels.gemm_bias_act(
            x,
            self.weight,
            self.bias,
            out,
            relu=self.relu,
            clip=self.clip,
        )
        if stored is not None:
            np.copyto(stored, out, casting="same_kind")
            out = stored
        return out


class _ActSpec(_Spec):
    """Standalone in-place ReLU (a rectifier the compiler could not fold
    into the producing op — e.g. following a pooling layer)."""

    def run(self, x: np.ndarray, bufs: list) -> np.ndarray:
        np.maximum(x, 0.0, out=x)
        return x


def _first_fit(records: List[List[int]]) -> Tuple[List[int], int]:
    """Byte offsets for ``[nbytes, first step, last step]`` buffers.

    Largest first, each buffer takes the lowest aligned offset clear of
    every placed buffer whose lifetime overlaps its own, so buffers that
    are never live together share bytes. Returns (offsets, block size).
    """
    sizes = [-(-nbytes // _ALIGN) * _ALIGN for nbytes, _, _ in records]
    offsets = [0] * len(records)
    placed: List[int] = []
    for r in sorted(range(len(records)), key=lambda r: -sizes[r]):
        _, first, last = records[r]
        busy = sorted(
            (offsets[q], offsets[q] + sizes[q])
            for q in placed
            if records[q][1] <= last and first <= records[q][2]
        )
        offset = 0
        for lo, hi in busy:
            if offset + sizes[r] <= lo:
                break
            offset = max(offset, hi)
        offsets[r] = offset
        placed.append(r)
    total = max((o + s for o, s in zip(offsets, sizes)), default=0)
    return offsets, total


class _Layout:
    """Where every buffer of a run over one row count lives in a block."""

    __slots__ = ("nbytes", "slots")

    def __init__(self, specs: List[_Spec], n: int):
        records: List[List[int]] = []
        entries: List[list] = []
        live: Optional[int] = None  # record holding the current activation
        for index, spec in enumerate(specs):
            base = _PHASES * index
            if live is not None:
                records[live][2] = base + _PHASES - 1
            spec_entries = []
            for buf in spec.buffers(n):
                if buf is None:
                    spec_entries.append(None)
                    continue
                shape, dtype, first, last = buf
                nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                records.append([nbytes, base + first, base + last])
                spec_entries.append((len(records) - 1, shape, dtype))
            if spec.output is not None:
                live = spec_entries[spec.output][0]
            entries.append(spec_entries)
        if live is not None:
            # The logits are copied out after the last spec.
            records[live][2] = _PHASES * len(specs)
        offsets, self.nbytes = _first_fit(records)
        self.slots = [
            [
                None if entry is None else (offsets[entry[0]],) + entry[1:]
                for entry in spec_entries
            ]
            for spec_entries in entries
        ]

    def bind(self, block: np.ndarray) -> List[list]:
        """Per-spec buffer views into ``block``."""
        return [
            [
                None
                if slot is None
                else np.ndarray(slot[1], slot[2], buffer=block, offset=slot[0])
                for slot in spec_slots
            ]
            for spec_slots in self.slots
        ]


def _unwrap(layer):
    """The layer a wrapper delegates to (:class:`repro.testing.
    FlakyLayer`): it scores as that layer, and its faults stay on
    ``forward``."""
    while isinstance(getattr(layer, "inner", None), Layer):
        layer = layer.inner
    return layer


def _weight_operand(
    value: np.ndarray,
    precision: str,
    attached: Optional[QuantizedTensor],
) -> np.ndarray:
    """The GEMM operand a plan uses for one weight tensor, before the
    cast to the plan's compute dtype.

    float32 and the default return the parameter array itself: at the
    default the cast is a no-op, so the plan holds the array and sees
    every in-place optimizer step.
    """
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
    return value


class InferencePlan:
    """A Sequential network compiled for inference at one precision.

    The precision sets the dtype the plan computes in: the network's own
    parameter dtype for ``"float64"`` (the default; the plan holds the
    parameter arrays themselves), float32 for the rest. ``"float16"``
    stores activations in half precision, ``"int8"`` runs dequantized
    per-channel int8 weights; both score in 16-row tiles.

    Every run takes its buffers from one zeroed byte block laid out from
    buffer lifetimes (:class:`_Layout`, cached per row count — offsets
    only, never memory). ``run`` makes the block itself unless handed
    one from :meth:`new_block`, so calls hold no shared mutable state and
    are reentrant.
    """

    def __init__(self, network, precision: str = "float64"):
        if precision not in INFER_PRECISIONS:
            raise QuantizationError(
                f"unknown plan precision {precision!r} "
                f"(choices: {INFER_PRECISIONS})"
            )
        self.precision = precision
        self.input_shape = tuple(network.input_shape)
        self.output_shape = tuple(network.output_shape)
        dtypes = [p.value.dtype for p in network.parameters()]
        if precision != "float64":
            self.compute_dtype = np.dtype(np.float32)
        elif dtypes:
            self.compute_dtype = np.dtype(np.result_type(*dtypes))
        else:
            self.compute_dtype = np.dtype(np.float64)
        self.store_dtype = (
            np.dtype(np.float16) if precision == "float16" else self.compute_dtype
        )
        self._tile = _BATCH_TILE if precision in ("float16", "int8") else None
        calibration = getattr(network, "_attached_calibration", None)
        ranges = calibration.ranges if calibration is not None else None
        self._metrics = [
            f"nn.forward.{index:02d}_{layer.name}.seconds"
            for index, layer in enumerate(network.layers)
        ]
        self._spatial_out = False
        self._specs = self._compile(network, ranges)
        self._layouts: Dict[int, _Layout] = {}

    # ------------------------------------------------------------------
    def _clip_for(self, ranges: Optional[Dict[str, float]], key: str):
        """Float16 overflow guard: clip only where calibration says the
        activation can overflow half precision (or always, when no
        calibration is attached to the network to prove it safe)."""
        if self.store_dtype != np.float16:
            return None
        if ranges is None:
            return FP16_SAFE_MAX
        observed = ranges.get(key)
        if observed is None or observed > FP16_SAFE_MAX:
            return FP16_SAFE_MAX
        return None

    def _compile(self, network, ranges) -> List[_Spec]:
        compute, store = self.compute_dtype, self.store_dtype
        attached: Dict[int, QuantizedTensor] = getattr(
            network, "_attached_quant", None
        ) or {}
        shapes = network._shapes
        layers = [_unwrap(layer) for layer in network.layers]
        spatial = len(self.input_shape) == 3
        # The activation's dtype as the walk goes; the caller's input is
        # staged (or, for a first conv, padded) into the plan's storage.
        current = store if spatial else compute
        ingest: Optional[_Spec] = _IngestSpec(self.input_shape, current)
        specs: List[_Spec] = []
        fold = None  # last conv/dense spec, open for a ReLU fold
        param_index = 0
        for index, layer in enumerate(layers):
            in_shape = shapes[index]
            out_shape = shapes[index + 1]
            key = f"{index:02d}_{network.layers[index].name}"
            if isinstance(layer, Dropout):
                continue  # identity at inference
            if isinstance(layer, Conv2D):
                weight = _weight_operand(
                    layer.weight.value, self.precision, attached.get(param_index)
                )
                spec = _ConvSpec(
                    layer,
                    np.ascontiguousarray(weight, dtype=compute).reshape(
                        layer.out_channels, -1
                    ),
                    np.ascontiguousarray(
                        layer.bias.value, dtype=compute
                    ).reshape(layer.out_channels, 1),
                    in_shape,
                    out_shape,
                    compute,
                    store,
                )
                spec.clip = self._clip_for(ranges, key)
                spec.relu = layer.activation == "relu"
                spec.ingest = ingest is not None
                ingest = None
                fold = spec
                current = store
                param_index += 2
            else:
                if ingest is not None:
                    ingest.layer = index
                    specs.append(ingest)
                    ingest = None
                if isinstance(layer, Dense):
                    weight = _weight_operand(
                        layer.weight.value,
                        self.precision,
                        attached.get(param_index),
                    )
                    last = all(
                        isinstance(rest, Dropout) for rest in layers[index + 1 :]
                    )
                    spec = _DenseSpec(
                        np.ascontiguousarray(weight, dtype=compute),
                        np.ascontiguousarray(layer.bias.value, dtype=compute),
                        compute,
                        in_dtype=current,
                        out_dtype=compute if last else store,
                    )
                    spec.clip = self._clip_for(ranges, key)
                    fold = spec
                    current = spec.out_dtype
                    param_index += 2
                elif isinstance(layer, MaxPool2D):
                    spec = _PoolSpec(layer.pool_size, in_shape, current)
                    fold = None
                elif isinstance(layer, Flatten):
                    fold = None
                    if not spatial:
                        continue  # already (N, features)
                    spec = _FlattenSpec(in_shape, compute)
                    spatial = False
                    current = compute
                elif isinstance(layer, ReLU):
                    if fold is not None and not fold.relu:
                        fold.relu = True
                        # The stored activation is post-ReLU: recheck the
                        # overflow guard against that layer's range.
                        fold.clip = self._clip_for(ranges, key)
                        fold = None
                        continue
                    spec = _ActSpec()
                    fold = None
                else:
                    raise QuantizationError(
                        f"no inference plan for layer {layer.name!r} "
                        f"({type(layer).__name__})"
                    )
            spec.layer = index
            specs.append(spec)
        if ingest is not None:  # nothing but dropout: stage the input
            specs.append(ingest)
        self._spatial_out = spatial
        return specs

    # ------------------------------------------------------------------
    def _layout(self, n: int) -> _Layout:
        # One small entry per distinct row count (predict_proba's chunks
        # bound those by its batch size). Threads racing on a miss compute
        # the same layout, so the last write losing costs nothing.
        layout = self._layouts.get(n)
        if layout is None:
            layout = self._layouts[n] = _Layout(self._specs, n)
        return layout

    def new_block(self, *row_counts: int) -> np.ndarray:
        """Zeroed scratch that serves a :meth:`run` over any of
        ``row_counts`` rows (one at a time)."""
        need = 0
        for n in row_counts:
            if n <= 0:
                continue
            tile = self._tile or n
            for rows in {min(tile, n), n % tile or tile}:
                need = max(need, self._layout(rows).nbytes)
        return np.zeros(need, dtype=np.uint8)

    def run(
        self,
        x: np.ndarray,
        block: Optional[np.ndarray] = None,
        registry=None,
    ) -> np.ndarray:
        """Logits of one forward pass, fresh, in the compute dtype.

        ``block`` is scratch from :meth:`new_block` covering ``x``'s row
        count (made here when omitted). With a metrics ``registry``, every
        layer's ``nn.forward`` histogram gets one observation per call:
        the wall-clock of the specs that start at it, 0 for a layer folded
        into another's spec (a fused ReLU, dropout).
        """
        n = x.shape[0]
        out = np.empty((n,) + self.output_shape, dtype=self.compute_dtype)
        if n == 0:
            return out
        if block is None:
            block = self.new_block(n)
        tile = self._tile or n
        timings = None if registry is None else [0.0] * len(self._metrics)
        for start in range(0, n, tile):
            stop = min(start + tile, n)
            out[start:stop] = self._run_rows(x[start:stop], block, timings)
        if timings is not None:
            for name, seconds in zip(self._metrics, timings):
                registry.histogram(name).observe(seconds)
        return out

    def _run_rows(self, x: np.ndarray, block: np.ndarray, timings) -> np.ndarray:
        views = self._layout(x.shape[0]).bind(block)
        out = x
        if timings is None:
            for spec, bufs in zip(self._specs, views):
                out = spec.run(out, bufs)
        else:
            for spec, bufs in zip(self._specs, views):
                started = time.perf_counter()
                out = spec.run(out, bufs)
                timings[spec.layer] += time.perf_counter() - started
        if self._spatial_out:
            return out.transpose(1, 0, 2, 3)
        return out.reshape((x.shape[0],) + self.output_shape)
