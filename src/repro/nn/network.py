"""Sequential network container."""

from __future__ import annotations

import threading
import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.nn.layer import Layer, Parameter
from repro.nn.loss import softmax

#: Serialises quantized-plan compilation (a module-level lock rather
#: than an instance attribute so networks stay picklable — the scan
#: farm ships detectors to worker processes).
_PLAN_LOCK = threading.Lock()


class Sequential:
    """A plain stack of layers with shared forward/backward plumbing.

    The container also knows the per-sample input shape, which lets it
    validate the layer stack at construction time and print a Table-1-style
    configuration summary.
    """

    def __init__(self, layers: Sequence[Layer], input_shape: Tuple[int, ...]):
        if not layers:
            raise NetworkError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        # Validate shape propagation eagerly: catches mis-sized stacks at
        # construction rather than mid-training.
        shape = self.input_shape
        self._shapes: List[Tuple[int, ...]] = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)
        # Opt-in per-layer profiling (see enable_profiling). None keeps the
        # forward/backward hot loops on their uninstrumented fast path.
        self._profile_registry = None

    # ------------------------------------------------------------------
    def enable_profiling(self, registry=None) -> None:
        """Record per-layer forward/backward wall-clock into a registry.

        ``registry`` defaults to the process-wide
        :func:`repro.obs.get_registry`. Timings land in histograms named
        ``nn.forward.<index>_<layer>.seconds`` (and ``nn.backward....``),
        one observation per layer per pass. Inference records a plan
        step's time under the first layer it covers, and 0 for a layer
        folded into another's step (a fused ReLU, dropout). Profiling is
        strictly opt-in: until this is called, every pass takes the plain
        loop.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        self._profile_registry = registry

    def disable_profiling(self) -> None:
        """Return every pass to the uninstrumented fast path."""
        self._profile_registry = None

    def _layer_metric(self, direction: str, index: int) -> str:
        layer = self.layers[index]
        return f"nn.{direction}.{index:02d}_{layer.name}.seconds"

    # ------------------------------------------------------------------
    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self._shapes[-1]

    def layer_shapes(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """``(layer name, per-sample output shape)`` for every layer."""
        return [
            (layer.name, shape)
            for layer, shape in zip(self.layers, self._shapes[1:])
        ]

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def weights_version(self) -> int:
        """A counter every weight write advances (optimizer steps,
        :meth:`set_weights`): equal readings mean unchanged weights."""
        return sum(p.version for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        out = x
        if self._profile_registry is None:
            for layer in self.layers:
                out = layer.forward(out, training=training)
            return out
        registry = self._profile_registry
        for index, layer in enumerate(self.layers):
            started = time.perf_counter()
            out = layer.forward(out, training=training)
            registry.histogram(self._layer_metric("forward", index)).observe(
                time.perf_counter() - started
            )
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = grad
        if self._profile_registry is None:
            for layer in reversed(self.layers):
                out = layer.backward(out)
            return out
        registry = self._profile_registry
        for index in range(len(self.layers) - 1, -1, -1):
            started = time.perf_counter()
            out = self.layers[index].backward(out)
            registry.histogram(self._layer_metric("backward", index)).observe(
                time.perf_counter() - started
            )
        return out

    def free_caches(self) -> None:
        """Release every layer's forward-pass buffers (see Layer.free_cache)."""
        for layer in self.layers:
            layer.free_cache()

    # ------------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> None:
        if tuple(x.shape[1:]) != self.input_shape:
            raise NetworkError(
                f"input per-sample shape {tuple(x.shape[1:])} does not match "
                f"network input {self.input_shape}"
            )

    def infer(
        self, x: np.ndarray, precision: Optional[str] = None
    ) -> np.ndarray:
        """Reentrant inference forward through a compiled plan.

        Every precision runs the network's cached
        :class:`~repro.nn.quant.InferencePlan`. With ``precision``
        ``None`` or ``"float64"`` the plan computes in the parameters'
        own dtype over the parameter arrays themselves, and its output
        is bitwise identical to ``forward(x, training=False)`` for input
        of that dtype (other input is cast on the way in). ``"float32"``
        computes over float32 casts of the weights; ``"float16"`` and
        ``"int8"`` accumulate in float32 with half-precision activations
        or dequantized per-channel int8 weights. Those three return
        float32 logits. No layer state is written and each call brings
        its own scratch, so any number of threads can score the same
        network at once (the serving engine relies on this). Per-layer
        profiling, when enabled, records each plan step under the first
        layer it covers; a ReLU fused into its conv or dense records 0.

        The default plan sees in-place optimizer steps as they happen;
        the reduced-precision plans hold weight casts and are recompiled
        after :meth:`set_weights` or :meth:`invalidate_inference_plans`.
        """
        self._check_input(x)
        return self._plan_for(precision).run(
            x, registry=self._profile_registry
        )

    # ------------------------------------------------------------------
    def _plan_for(self, precision: Optional[str]):
        """The cached inference plan for ``precision`` (compile on miss)."""
        key = "float64" if precision is None else precision
        with _PLAN_LOCK:
            plans = self.__dict__.setdefault("_plans", {})
            plan = plans.get(key)
            if plan is None:
                from repro.nn.quant import InferencePlan

                plan = plans[key] = InferencePlan(self, key)
        return plan

    def invalidate_inference_plans(self) -> None:
        """Drop every compiled inference plan (weights rebound or the
        reduced-precision casts stale)."""
        self.__dict__.pop("_plans", None)

    def __getstate__(self) -> dict:
        # Plans hold views of this network's parameter arrays, so they
        # are recompiled on first use after unpickling instead of
        # travelling across processes. The attached int8 payload and
        # calibration are dropped with them: an unpickled network
        # re-quantizes its float weights.
        state = self.__dict__.copy()
        state.pop("_plans", None)
        state.pop("_attached_quant", None)
        state.pop("_attached_calibration", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def predict_proba(
        self,
        x: np.ndarray,
        batch_size: int = 256,
        precision: Optional[str] = None,
    ) -> np.ndarray:
        """Class probabilities, scored through :meth:`infer`'s plan in
        ``batch_size``-row chunks.

        One scratch block sized for the largest chunk serves every chunk
        and is dropped on return, so concurrent calls are safe and no
        batch-sized buffer outlives the call (a full-chip scan pushes
        thousands of windows through here). An empty batch legitimately
        occurs when the serving engine flushes a drained queue; it
        short-circuits to an empty ``(0, classes)`` result.
        """
        n = x.shape[0]
        if n == 0:
            return np.zeros((0,) + self.output_shape, dtype=np.float64)
        self._check_input(x)
        plan = self._plan_for(precision)
        block = plan.new_block(min(batch_size, n), n % batch_size)
        return np.concatenate(
            [
                softmax(
                    plan.run(
                        x[start : start + batch_size],
                        block,
                        self._profile_registry,
                    )
                )
                for start in range(0, n, batch_size)
            ],
            axis=0,
        )

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Hard class predictions (argmax of the probabilities)."""
        return self.predict_proba(x, batch_size).argmax(axis=1)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Table-1-style configuration listing."""
        lines = [f"{'Layer':<14}{'Output Shape':<18}{'Params':>10}"]
        lines.append("-" * 42)
        for layer, shape in zip(self.layers, self._shapes[1:]):
            count = sum(p.size for p in layer.parameters())
            shape_text = " x ".join(str(s) for s in shape)
            lines.append(f"{layer.name:<14}{shape_text:<18}{count:>10}")
        lines.append("-" * 42)
        lines.append(f"{'total':<32}{self.parameter_count():>10}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def extra_state(self) -> List[dict]:
        """Per-layer non-parameter state, in layer order (checkpointing)."""
        return [layer.extra_state() for layer in self.layers]

    def load_extra_state(self, states: Sequence[dict]) -> None:
        """Restore a snapshot from :meth:`extra_state`."""
        states = list(states)
        if len(states) != len(self.layers):
            raise NetworkError(
                f"extra-state count mismatch: got {len(states)}, "
                f"network has {len(self.layers)} layers"
            )
        for layer, state in zip(self.layers, states):
            layer.load_extra_state(state or {})

    # ------------------------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        """Copies of all parameter values, in layer order."""
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: Iterable[np.ndarray]) -> None:
        """Load parameter values saved by :meth:`get_weights`."""
        weight_list = list(weights)
        params = self.parameters()
        if len(weight_list) != len(params):
            raise NetworkError(
                f"weight count mismatch: got {len(weight_list)}, "
                f"network has {len(params)}"
            )
        for param, value in zip(params, weight_list):
            if param.value.shape != value.shape:
                raise NetworkError(
                    f"shape mismatch for {param.name}: "
                    f"{value.shape} vs {param.value.shape}"
                )
            # Cast to the parameter's own dtype: float64 networks restore
            # float64 (the historical behaviour, bitwise), float32
            # networks stay float32.
            param.value = np.asarray(value, dtype=param.value.dtype).copy()
            param.version += 1
            param.zero_grad()
        # The arrays were rebound: every compiled plan is stale, and so
        # is any attached int8 payload (it described the old weights).
        self.invalidate_inference_plans()
        self.__dict__.pop("_attached_quant", None)
        self.__dict__.pop("_attached_calibration", None)
