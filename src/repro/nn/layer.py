"""Layer base class and trainable parameters.

Every layer implements ``forward`` and ``backward``; layers with weights
expose them as :class:`Parameter` objects so optimizers can update them
uniformly. Backward passes receive the upstream gradient and must (a)
return the gradient with respect to their input and (b) accumulate the
gradients of their own parameters into ``Parameter.grad``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.exceptions import NetworkError


class Parameter:
    """A trainable tensor with its gradient buffer.

    ``dtype`` selects the storage/compute precision (the network-wide
    ``compute_dtype`` policy); ``None`` keeps the float64 default that
    every pre-existing checkpoint was written with. ``version`` counts
    writes to ``value``: optimizer steps and ``Sequential.set_weights``
    advance it.
    """

    def __init__(self, value: np.ndarray, name: str = "", dtype=None):
        self.value = np.asarray(
            value, dtype=np.float64 if dtype is None else np.dtype(dtype)
        )
        self.grad = np.zeros_like(self.value)
        self.name = name
        self.version = 0

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    #: Short class-level identifier used in summaries.
    kind = "layer"

    def __init__(self, name: str = ""):
        self.name = name or self.kind

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output; must cache what backward needs."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``grad`` (dL/doutput) to dL/dinput."""
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Trainable parameters (empty for stateless layers)."""
        return []

    def free_cache(self) -> None:
        """Drop forward-pass buffers kept for backward.

        Layers cache whatever backward needs (im2col column matrices are
        the big one); completed backward passes and offline calibration
        call this so large batches don't pin those buffers between steps.
        """
        if hasattr(self, "_cache"):
            self._cache = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given a per-sample input shape."""
        raise NotImplementedError

    def extra_state(self) -> Dict[str, Any]:
        """Non-parameter state a resumed run must restore.

        Parameters travel through ``get_weights``/``set_weights``; layers
        with other evolving state — dropout RNGs — override this pair so
        checkpoints capture it too.
        """
        return {}

    def load_extra_state(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`extra_state`."""
        if state:
            raise NetworkError(
                f"{self.name}: unexpected extra state {sorted(state)}"
            )

    def _require_cached(self, cache, what: str = "input"):
        if cache is None:
            raise NetworkError(
                f"{self.name}: backward called before forward ({what} not cached)"
            )
        return cache
