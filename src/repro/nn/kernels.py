"""Workspace buffer pool for the compute-hot paths.

Every training step of the Table-1 network materialises the same set of
large scratch arrays: im2col column matrices, conv GEMM outputs, gradient
columns, activation buffers. Allocating them anew each iteration costs a
page-faulted memset per buffer and keeps the allocator busy on exactly the
arrays that are biggest. A :class:`Workspace` is a shape+dtype-keyed arena
that hands those buffers out (:meth:`Workspace.acquire`) and takes them all
back at a step boundary (:meth:`Workspace.step`), so after one warmup step
the training loop performs no im2col-sized allocations at all.

Usage pattern (what :class:`~repro.nn.trainer.Trainer` does)::

    workspace = Workspace()
    for batch in batches:
        with use_workspace(workspace), workspace.step():
            ...forward / backward / update...
    # every buffer acquired inside the step is back in the pool here

The active workspace travels in a :class:`contextvars.ContextVar`, so each
thread sees only its own workspace (fresh threads start with none) and the
pool never needs a lock. Code on the hot path asks for scratch via
:func:`scratch` / :func:`scratch_zeros`, which fall back to plain
``np.empty`` / ``np.zeros`` when no workspace is active — kernels behave
identically (bitwise) with and without pooling; only allocation traffic
changes.

Lifetime rules:

- A buffer acquired inside ``step()`` is valid until the step exits; the
  arena never hands the same buffer out twice within a step.
- Views of pooled buffers (reshapes, crops) must not escape the step.
  The built-in layers obey this: everything that crosses a step boundary
  (weights, returned probabilities, history) is a fresh copy.
- ``Workspace`` is not thread-safe; use one instance per thread.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import NetworkError

#: Pool key: (shape, dtype.str). Two buffers with the same key are
#: interchangeable.
_Key = Tuple[Tuple[int, ...], str]


@dataclass(frozen=True)
class WorkspaceStats:
    """Allocation accounting of one :class:`Workspace`.

    ``misses`` is the number of real ``np.empty`` allocations ever made;
    a steady-state training loop must not grow it (the no-allocation-
    after-warmup property ``tests/nn/test_kernels.py::
    TestNoAllocationAfterWarmup`` asserts). ``hits`` counts reuses.
    """

    hits: int
    misses: int
    active: int
    pooled: int
    pooled_bytes: int
    allocated_bytes: int


class Workspace:
    """Shape+dtype-keyed scratch-buffer arena with step-scoped reclaim."""

    def __init__(self) -> None:
        self._free: Dict[_Key, List[np.ndarray]] = {}
        self._lent: Dict[int, Tuple[_Key, np.ndarray]] = {}
        self._hits = 0
        self._misses = 0
        self._allocated_bytes = 0

    # ------------------------------------------------------------------
    def acquire(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous uninitialised buffer of the given shape/dtype.

        Reuses a pooled buffer when one is free, else allocates (a miss).
        The buffer stays checked out until :meth:`release`, the end of the
        enclosing :meth:`step`, or :meth:`reclaim`.
        """
        dt = np.dtype(dtype)
        key: _Key = (tuple(int(s) for s in shape), dt.str)
        stack = self._free.get(key)
        if stack:
            buffer = stack.pop()
            self._hits += 1
        else:
            buffer = np.empty(key[0], dtype=dt)
            self._misses += 1
            self._allocated_bytes += buffer.nbytes
        self._lent[id(buffer)] = (key, buffer)
        return buffer

    def release(self, buffer: np.ndarray) -> None:
        """Return one buffer to the pool before the step ends."""
        entry = self._lent.pop(id(buffer), None)
        if entry is None:
            raise NetworkError(
                "release() of a buffer this workspace did not lend"
            )
        self._free.setdefault(entry[0], []).append(entry[1])

    def reclaim(self) -> None:
        """Move every lent buffer back to the free pool (step boundary)."""
        for key, buffer in self._lent.values():
            self._free.setdefault(key, []).append(buffer)
        self._lent.clear()

    @contextlib.contextmanager
    def step(self) -> Iterator["Workspace"]:
        """Scope one compute step: all buffers acquired inside are
        reclaimed on exit, however the step ends."""
        try:
            yield self
        finally:
            self.reclaim()

    def clear(self) -> None:
        """Drop all pooled buffers (frees the memory to the allocator)."""
        self._free.clear()
        self._lent.clear()

    # ------------------------------------------------------------------
    def stats(self) -> WorkspaceStats:
        pooled = sum(len(stack) for stack in self._free.values())
        pooled_bytes = sum(
            buffer.nbytes
            for stack in self._free.values()
            for buffer in stack
        )
        return WorkspaceStats(
            hits=self._hits,
            misses=self._misses,
            active=len(self._lent),
            pooled=pooled,
            pooled_bytes=pooled_bytes,
            allocated_bytes=self._allocated_bytes,
        )


# ----------------------------------------------------------------------
# Ambient workspace (per-thread via contextvars)
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[Workspace]] = ContextVar(
    "repro_nn_workspace", default=None
)


def current_workspace() -> Optional[Workspace]:
    """The workspace active in this thread/context, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use_workspace(workspace: Workspace) -> Iterator[Workspace]:
    """Make ``workspace`` the ambient pool for code inside the block."""
    token = _ACTIVE.set(workspace)
    try:
        yield workspace
    finally:
        _ACTIVE.reset(token)


def scratch(shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Uninitialised scratch: pooled when a workspace is active."""
    workspace = _ACTIVE.get()
    if workspace is None:
        return np.empty(shape, dtype=np.dtype(dtype))
    return workspace.acquire(shape, dtype)


def scratch_zeros(shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Zero-filled scratch: pooled when a workspace is active."""
    workspace = _ACTIVE.get()
    if workspace is None:
        return np.zeros(shape, dtype=np.dtype(dtype))
    buffer = workspace.acquire(shape, dtype)
    buffer.fill(0)
    return buffer


# ----------------------------------------------------------------------
# Inference kernels
# ----------------------------------------------------------------------
# The compiled inference plans (:mod:`repro.nn.quant`) run every layer
# through these two kernels over views into one per-call buffer block:
# one GEMM with a fused dequant+bias(+ReLU, +fp16-overflow-clip)
# epilogue, and one strided-slice max-pool. Both write exclusively into
# caller-provided ``out`` buffers, so a forward allocates nothing beyond
# its block.


def gemm_bias_act(
    a: np.ndarray,
    b: np.ndarray,
    bias: np.ndarray,
    out: np.ndarray,
    relu: bool = False,
    clip: Optional[float] = None,
) -> np.ndarray:
    """``out = act(a @ b + bias)`` with the epilogue fused in place.

    ``bias`` must broadcast against ``out`` (conv uses an ``(F, 1)``
    column against ``(F, N*P)`` products, dense a flat ``(out,)`` row
    against ``(N, out)``). ``relu`` folds the rectification into the
    same pass over the product buffer; ``clip`` (the float16 plans'
    overflow guard) caps the activation at a calibrated maximum before
    it is stored in half precision.
    """
    np.matmul(a, b, out=out)
    np.add(out, bias, out=out)
    if relu:
        np.maximum(out, 0.0, out=out)
    if clip is not None:
        np.minimum(out, clip, out=out)
    return out


def pool_max_stride(
    x: np.ndarray, pool: int, out: np.ndarray, tmp: Optional[np.ndarray]
) -> np.ndarray:
    """Non-overlapping ``pool x pool`` max over the last two axes of ``x``.

    Value-for-value identical to the reshape reduction in
    :class:`~repro.nn.pool.MaxPool2D` (max is value-picking, so the
    association order cannot change the result), but built from strided
    slices so NumPy reduces whole contiguous lanes instead of tiny
    ``pool x pool`` tiles — an order of magnitude faster on the
    12x12/6x6 maps of the Table-1 network. ``tmp`` must match ``out``
    (used for the pairwise tree when ``pool == 2``).
    """
    views = [
        x[..., dy::pool, dx::pool]
        for dy in range(pool)
        for dx in range(pool)
    ]
    if len(views) == 1:
        np.copyto(out, views[0])
        return out
    if pool == 2 and tmp is not None:
        np.maximum(views[0], views[1], out=out)
        np.maximum(views[2], views[3], out=tmp)
        np.maximum(out, tmp, out=out)
        return out
    np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out
