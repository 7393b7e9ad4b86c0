"""Reusable fixtures for fault-tolerance tests.

Everything here is deterministic: layers fail on exact call numbers,
subprocesses die at exact fault points, and file corruption is byte-exact
— so "resumed run equals uninterrupted run" assertions are meaningful.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.fullchip import ScanResult, assemble_scan_result
from repro.data.dataset import HotspotDataset
from repro.features.sliding import SlidingFeatureExtractor
from repro.geometry.layout import Layout, iter_clip_windows
from repro.nn.layer import Layer, Parameter
from repro.nn.trainer import TrainingHistory
from repro.testing.faults import FAULTS_ENV, InjectedFault

PathLike = Union[str, Path]


class FlakyLayer(Layer):
    """Wraps a layer and raises :class:`InjectedFault` on chosen forwards.

    ``fail_on`` lists 1-based forward-call numbers that raise *before*
    delegating, so the wrapped layer's state is untouched by the failure.
    Every other behaviour (backward, parameters, shapes, caches) proxies
    straight through — a network trained with an exhausted FlakyLayer is
    numerically identical to one built without it. Inference plans
    compile the wrapped layer (``inner``), so scoring never faults and
    never counts as a forward call.
    """

    kind = "flaky"

    def __init__(self, inner: Layer, fail_on: Iterable[int] = ()):
        super().__init__(name=f"flaky({inner.name})")
        self.inner = inner
        self.fail_on = frozenset(int(i) for i in fail_on)
        self.forward_calls = 0

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self.forward_calls += 1
        if self.forward_calls in self.fail_on:
            raise InjectedFault(
                f"{self.name}: injected failure on forward call "
                f"{self.forward_calls}"
            )
        return self.inner.forward(x, training=training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.inner.backward(grad)

    def parameters(self) -> List[Parameter]:
        return self.inner.parameters()

    def free_cache(self) -> None:
        self.inner.free_cache()

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.inner.output_shape(input_shape)

    def extra_state(self) -> dict:
        return self.inner.extra_state()

    def load_extra_state(self, state: dict) -> None:
        self.inner.load_extra_state(state)


class CrashingWorker:
    """Runs ``target(*args)`` in a subprocess armed with a fault spec.

    The spec lands in ``REPRO_FAULTS`` inside the child, so any
    ``maybe_fail`` point it names (e.g. ``trainer.iteration:12=kill``)
    fires there — SIGKILL included, which no ``try/except`` can fake.
    """

    def __init__(self, target: Callable, args: Tuple = (), faults: str = ""):
        self.target = target
        self.args = tuple(args)
        self.faults = faults
        self.exitcode: Optional[int] = None

    def run(self, timeout: float = 120.0) -> int:
        """Execute the child and return its exit code (kills on timeout)."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        process = context.Process(
            target=_crashing_entry, args=(self.target, self.args, self.faults)
        )
        process.start()
        # Poll ``is_alive`` (waitpid) rather than ``join`` — join waits
        # on the child's sentinel pipe, and any grandchildren the child
        # forked (e.g. scan pool workers) inherit its write end, so a
        # SIGKILLed child with surviving descendants stalls join until
        # the descendants exit. waitpid sees the death immediately.
        deadline = time.monotonic() + timeout
        while process.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        if process.is_alive():  # pragma: no cover - hung child safety net
            process.kill()
            process.join()
            raise TimeoutError(
                f"subprocess still running after {timeout}s"
            )
        self.exitcode = process.exitcode
        return self.exitcode

    @property
    def was_killed(self) -> bool:
        """True when the child died to SIGKILL (the armed fault fired)."""
        return self.exitcode == -signal.SIGKILL


def _crashing_entry(target: Callable, args: Tuple, faults: str) -> None:
    """Child entry point: arm the fault spec, then run the workload."""
    if faults:
        os.environ[FAULTS_ENV] = faults
    target(*args)


class TornWriteFS:
    """Byte-level file corruption, the way real crashes leave files.

    Static methods mutate files in place to model a torn write
    (:meth:`truncate`), a stray-write header smash (:meth:`corrupt_head`),
    and bit rot inside the payload (:meth:`flip_byte`).
    """

    @staticmethod
    def truncate(path: PathLike, keep_fraction: float = 0.5) -> int:
        """Drop the file's tail, keeping ``keep_fraction`` of its bytes."""
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
        size = os.path.getsize(path)
        keep = int(size * keep_fraction)
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        return keep

    @staticmethod
    def corrupt_head(path: PathLike, nbytes: int = 8) -> None:
        """Overwrite the first ``nbytes`` with garbage (breaks any magic)."""
        with open(path, "r+b") as handle:
            handle.write(b"\xde\xad\xbe\xef" * (-(-nbytes // 4)))

    @staticmethod
    def flip_byte(path: PathLike, offset: int) -> None:
        """Invert one byte at ``offset`` (checksum-detectable corruption)."""
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            if not byte:
                raise ValueError(f"offset {offset} beyond end of {path}")
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))


class DensityProbeDetector:
    """Deterministic per-clip detector: P(hotspot) grows with clip density.

    Stateless and picklable, so scan fault tests can run it inside
    subprocesses; per-window output is independent of batch composition,
    which makes resumed-vs-clean scan comparisons exact.
    """

    def __init__(self, cutoff: float = 0.15):
        self.cutoff = cutoff

    def predict_proba(self, dataset) -> np.ndarray:
        densities = np.array([clip.density() for clip in dataset])
        p1 = np.clip(densities / (2 * self.cutoff), 0.0, 1.0)
        return np.stack([1 - p1, p1], axis=1)


class TensorProbeDetector:
    """Deterministic detector exposing the tensor-level scan fast path.

    Scores each window from its mean absolute feature magnitude — exact
    per window regardless of batching, and importable from subprocesses.
    """

    def __init__(self, config=None):
        from repro.features.tensor import (
            FeatureTensorConfig,
            FeatureTensorExtractor,
        )

        if config is None:
            config = FeatureTensorConfig(
                block_count=6, coefficients=10, pixel_nm=10
            )
        self.extractor = FeatureTensorExtractor(config)

    def predict_proba_tensors(self, tensors: np.ndarray) -> np.ndarray:
        magnitude = np.abs(np.asarray(tensors, dtype=np.float64))
        score = np.tanh(magnitude.mean(axis=(1, 2, 3)))
        return np.stack([1 - score, score], axis=1)

    def predict_proba(self, dataset) -> np.ndarray:
        tensors = np.stack(
            [self.extractor.extract(clip) for clip in dataset]
        )
        return self.predict_proba_tensors(tensors)


def reference_scan(
    detector, layout: Layout, *, per_clip: bool = False, stride_nm: int = 600
) -> ScanResult:
    """The plainest scan there is: every window scored, nothing reused.

    Windows are ``ScanFarm``'s defaults (1200 nm clips, flagged at 0.5).
    ``per_clip=True`` cuts each window out of the layout and scores it
    through ``predict_proba`` (what any detector supports); otherwise
    every window tensor is sliced from one whole-chip grid
    (:meth:`~repro.features.sliding.SlidingFeatureExtractor.extract_windows`)
    and scored through ``predict_proba_tensors``. Either way the
    probabilities go through the same
    :func:`~repro.core.fullchip.assemble_scan_result` the scan farm ends
    in — the oracle the farm's equivalence tests compare against.
    """
    started = time.perf_counter()
    windows = tuple(iter_clip_windows(layout.region, 1200, stride_nm))
    if per_clip:
        clips = [layout.clip_at(window) for window in windows]
        dataset = HotspotDataset(clips, name="reference", allow_unlabelled=True)
        scores = detector.predict_proba(dataset)
    else:
        sliding = SlidingFeatureExtractor(detector.extractor.config)
        scores = detector.predict_proba_tensors(
            sliding.extract_windows(layout, windows)
        )
    probabilities = np.asarray(scores[:, 1], dtype=np.float64)
    return assemble_scan_result(windows, probabilities, 0.5, started)


def histories_equal(
    a: TrainingHistory, b: TrainingHistory, ignore_timing: bool = True
) -> bool:
    """Bitwise equality of two training histories.

    ``elapsed_seconds`` is wall-clock and can never match across runs, so
    it is excluded unless ``ignore_timing=False``.
    """
    same = (
        a.iterations == b.iterations
        and a.val_accuracy == b.val_accuracy
        and a.train_loss == b.train_loss
        and a.learning_rate == b.learning_rate
        and a.best_val_accuracy == b.best_val_accuracy
        and a.stopped_iteration == b.stopped_iteration
        and a.validated == b.validated
    )
    if not ignore_timing:
        same = same and a.elapsed_seconds == b.elapsed_seconds
    return same


def weights_equal(
    a: Iterable[np.ndarray], b: Iterable[np.ndarray]
) -> bool:
    """Bitwise equality of two weight lists (shape and values)."""
    a_list, b_list = list(a), list(b)
    return len(a_list) == len(b_list) and all(
        x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(a_list, b_list)
    )


def scan_results_equal(a, b) -> bool:
    """Bitwise equality of two ``ScanResult``s (timing excluded)."""
    return (
        a.windows == b.windows
        and np.array_equal(a.probabilities, b.probabilities)
        and a.flagged_indices == b.flagged_indices
        and a.flagged == b.flagged
        and a.regions == b.regions
    )


def scan_results_close(a, b) -> bool:
    """Same windows, flags and regions; probabilities within 1e-9.

    The contract between the grid-slice and per-clip paths: both encode
    the same blocks, but through differently shaped DCT batches.
    """
    return (
        a.windows == b.windows
        and np.allclose(a.probabilities, b.probabilities, rtol=0.0, atol=1e-9)
        and a.flagged_indices == b.flagged_indices
        and a.flagged == b.flagged
        and [(r.bbox, r.window_count) for r in a.regions]
        == [(r.bbox, r.window_count) for r in b.regions]
        and np.allclose(
            [r.max_probability for r in a.regions],
            [r.max_probability for r in b.regions],
            rtol=0.0,
            atol=1e-9,
        )
    )
