"""Concurrent inference engine with dynamic micro-batching.

Requests (feature-tensor batches) enter a bounded, thread-safe queue;
worker threads collect them into micro-batches — up to
``max_batch`` samples or ``max_wait_ms`` after the first queued request,
whichever comes first — run **one**
:meth:`~repro.core.detector.HotspotDetector.predict_proba_tensors` call,
and fan the probability rows back out to per-request futures. Batching
amortises the network's GEMM setup over concurrent callers: one fat BLAS
call beats eight thin ones, which is the entire economics of serving the
paper's CNN online.

Contracts:

- **Backpressure** — past ``max_queue`` pending requests, ``submit``
  raises :class:`~repro.exceptions.QueueFullError` immediately (the HTTP
  layer maps it to 503 + ``Retry-After``) instead of letting latency grow
  without bound.
- **Hot swap** — the model is resolved from the
  :class:`~repro.serve.registry.ModelRegistry` once per micro-batch, so
  an ``activate()`` never tears a batch: in-flight batches finish on the
  model they started with, the next batch picks up the new version, and
  each request's future names the version that scored it.
- **Graceful drain** — :meth:`close` stops intake, lets workers flush
  every queued request (no drops, no duplicates), then joins them.
  Inference itself is safe to run from many workers at once because
  :meth:`Sequential.infer <repro.nn.network.Sequential.infer>` writes no
  shared state.

Telemetry (``repro.obs``): ``serve.queue.depth`` gauge,
``serve.batch.size`` / ``serve.batch.seconds`` / ``serve.queue_wait.seconds``
/ ``serve.request.seconds`` / ``serve.extract.seconds`` histograms, and
``serve.requests`` / ``serve.samples`` / ``serve.rejected`` /
``serve.errors`` counters, plus per-version ``serve.model.*`` counters
labelled ``model_version``.

Observability v2 additions:

- **Tracing** — :meth:`submit` captures the caller's
  :func:`~repro.obs.tracing.current_trace` on the request; the worker
  re-installs the first request's context around the ``serve.batch`` /
  ``serve.infer`` spans and emits a retroactive ``serve.queue_wait``
  span per request, so a traced HTTP request's tree shows handler →
  queue wait → batch → infer even though three threads were involved.
- **Drift** — when the active model's checkpoint carries a publish-time
  :class:`~repro.obs.drift.ReferenceProfile`, a per-version
  :class:`~repro.obs.drift.DriftMonitor` watches the live score/feature
  stream and raises ``drift.alert`` events.
- **SLOs** — every request outcome (including rejects and failures)
  feeds an :class:`~repro.obs.slo.SLOTracker`; burn rates are evaluated
  on a small time cadence and on every metrics scrape.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.detector import HotspotDetector
from repro.exceptions import (
    EngineClosedError,
    QueueFullError,
    ServeError,
)
from repro.obs import emit, get_registry
from repro.obs.drift import DriftConfig, DriftMonitor
from repro.obs.slo import SLObjective, SLOTracker, default_serve_objectives
from repro.obs.tracing import current_trace, emit_span, span, use_trace
from repro.serve.registry import LoadedModel, ModelRegistry


@dataclass(frozen=True)
class EngineConfig:
    """Micro-batching knobs.

    Attributes
    ----------
    max_batch:
        Sample cap per micro-batch. Requests are never split: a batch
        closes when admitting the next whole request would exceed the
        cap (a single oversized request still runs, alone).
    max_wait_ms:
        How long a non-full batch waits for company after its first
        request arrives. ``0`` degenerates to batch-per-request.
    max_queue:
        Pending-request cap; beyond it ``submit`` rejects (backpressure).
    workers:
        Inference worker threads. More than one only helps when batches
        are small relative to traffic — workers share the queue.
    """

    max_batch: int = 32
    max_wait_ms: float = 5.0
    max_queue: int = 256
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ServeError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")


class _Request:
    __slots__ = (
        "tensors",
        "count",
        "future",
        "submitted_at",
        "submitted_wall",
        "trace",
    )

    def __init__(self, tensors: np.ndarray):
        self.tensors = tensors
        self.count = int(tensors.shape[0])
        self.future: "Future[np.ndarray]" = Future()
        self.submitted_at = time.perf_counter()
        self.submitted_wall = time.time()
        # The submitting context's trace identity (e.g. the HTTP
        # handler's serve.request span); worker-side spans attach here.
        self.trace = current_trace()


class InferenceEngine:
    """Thread-pooled, dynamically batched scoring over one model source.

    ``model`` is either a trained :class:`HotspotDetector` (fixed) or a
    :class:`ModelRegistry` (hot-swappable ``current``).
    """

    def __init__(
        self,
        model: Union[HotspotDetector, ModelRegistry],
        config: EngineConfig = EngineConfig(),
        slo: Optional[Sequence[SLObjective]] = None,
        drift_config: Optional[DriftConfig] = None,
        slo_eval_interval_s: float = 5.0,
    ):
        if isinstance(model, ModelRegistry):
            self._registry: Optional[ModelRegistry] = model
            self._static: Optional[LoadedModel] = None
        elif isinstance(model, HotspotDetector):
            self._registry = None
            self._static = LoadedModel("static", model)
        else:
            raise ServeError(
                f"model must be a HotspotDetector or ModelRegistry, "
                f"got {type(model).__name__}"
            )
        self.config = config
        # slo=None enables the stock objectives; pass an empty sequence
        # to disable SLO tracking entirely.
        objectives = default_serve_objectives() if slo is None else list(slo)
        self.slo_tracker: Optional[SLOTracker] = (
            SLOTracker(objectives) if objectives else None
        )
        self._slo_eval_interval_s = float(slo_eval_interval_s)
        self._slo_last_eval = time.monotonic()
        self._drift_config = drift_config or DriftConfig()
        self._drift_monitors: Dict[str, DriftMonitor] = {}
        self._drift_lock = threading.Lock()
        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Model resolution
    # ------------------------------------------------------------------
    def _resolve_model(self) -> LoadedModel:
        if self._registry is not None:
            return self._registry.current
        return self._static

    @property
    def model_version(self) -> str:
        return self._resolve_model().version

    @property
    def infer_precision(self) -> str:
        """The precision the active model scores requests at."""
        return self._resolve_model().detector.config.infer_precision

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _coerce_tensors(self, tensors) -> np.ndarray:
        expected = self._resolve_model().detector.extractor.output_shape
        batch = np.asarray(tensors)
        if batch.ndim == 3:
            batch = batch[None]
        if batch.ndim != 4 or tuple(batch.shape[1:]) != expected:
            raise ServeError(
                f"expected (N, {', '.join(map(str, expected))}) feature "
                f"tensors, got {batch.shape}"
            )
        return batch

    def submit(self, tensors) -> "Future[np.ndarray]":
        """Queue feature tensors for scoring; returns a future of (N, 2).

        Raises :class:`QueueFullError` at capacity,
        :class:`EngineClosedError` after :meth:`close`, and
        :class:`ServeError` for tensors that do not match the active
        model's feature shape (rejected up front so one malformed request
        can never poison a whole micro-batch).

        A resolved future's ``version`` attribute names the model version
        that scored it — after a hot swap that can differ from
        :attr:`model_version`.
        """
        batch = self._coerce_tensors(tensors)
        registry = get_registry()
        request = _Request(batch)
        with self._cond:
            if self._closed:
                raise EngineClosedError("engine is closed to new requests")
            if len(self._queue) >= self.config.max_queue:
                registry.counter("serve.rejected").inc()
                if self.slo_tracker is not None:
                    self.slo_tracker.record(0.0, ok=False)
                raise QueueFullError(
                    f"request queue at capacity ({self.config.max_queue})"
                )
            self._queue.append(request)
            registry.gauge("serve.queue.depth").set(len(self._queue))
            self._cond.notify()
        return request.future

    def predict(self, tensors, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(tensors).result(timeout)

    # ------------------------------------------------------------------
    # Pixels -> features
    # ------------------------------------------------------------------
    def encode_images(self, images: Sequence) -> np.ndarray:
        """Rasterised clip images -> stacked feature tensors.

        The serving counterpart of the offline extraction stage: each
        square image runs through the active model's
        :class:`~repro.features.tensor.FeatureTensorExtractor`.
        """
        extractor = self._resolve_model().detector.extractor
        started = time.perf_counter()
        tensors = np.stack(
            [
                extractor.encode_image(np.asarray(image, dtype=np.float64))
                for image in images
            ]
        )
        get_registry().histogram("serve.extract.seconds").observe(
            time.perf_counter() - started
        )
        return tensors

    def submit_images(self, images: Sequence) -> "Future[np.ndarray]":
        """Extract feature tensors from raw images, then :meth:`submit`."""
        return self.submit(self.encode_images(images))

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _collect(self) -> Optional[List[_Request]]:
        """Block for the next micro-batch; ``None`` means shut down."""
        cfg = self.config
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None  # closed and fully drained
            batch = [self._queue.popleft()]
            samples = batch[0].count
            deadline = time.monotonic() + cfg.max_wait_ms / 1000.0
            while samples < cfg.max_batch:
                if self._queue:
                    if samples + self._queue[0].count > cfg.max_batch:
                        break
                    request = self._queue.popleft()
                    batch.append(request)
                    samples += request.count
                    continue
                if self._closed:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            get_registry().gauge("serve.queue.depth").set(len(self._queue))
        return batch

    def _worker_loop(self) -> None:
        # Inference scratch lives for one predict_proba call (the plan's
        # per-call block), so an idle worker holds no batch-sized memory.
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._run_batch(batch)

    def _drift_monitor(self, model: LoadedModel) -> Optional[DriftMonitor]:
        """The per-version monitor, if the model shipped with a profile."""
        if model.profile is None:
            return None
        with self._drift_lock:
            monitor = self._drift_monitors.get(model.version)
            if monitor is None:
                monitor = DriftMonitor(
                    model.profile,
                    config=self._drift_config,
                    source="serve",
                    model_version=model.version,
                )
                self._drift_monitors[model.version] = monitor
        return monitor

    def _maybe_evaluate_slos(self) -> None:
        tracker = self.slo_tracker
        if tracker is None:
            return
        now = time.monotonic()
        if now - self._slo_last_eval < self._slo_eval_interval_s:
            return
        self._slo_last_eval = now
        tracker.evaluate()

    def _run_batch(self, batch: List[_Request]) -> None:
        registry = get_registry()
        samples = sum(request.count for request in batch)
        model = self._resolve_model()
        started = time.perf_counter()
        # The queue wait is only knowable now; emit it as a retroactive
        # span parented to each request's own submitting context so the
        # trace tree shows it under that request's serve.request span.
        for request in batch:
            waited = started - request.submitted_at
            registry.histogram("serve.queue_wait.seconds").observe(waited)
            emit_span(
                "serve.queue_wait",
                waited,
                parent=request.trace,
                start_s=request.submitted_wall,
                observe=False,
            )
        first_trace = next((r.trace for r in batch if r.trace), None)
        try:
            if samples:
                x = (
                    batch[0].tensors
                    if len(batch) == 1
                    else np.concatenate([r.tensors for r in batch], axis=0)
                )
            else:
                # A drain can flush a bucket of empty requests; the
                # network handles the (0, ...) batch (returns (0, 2)).
                x = batch[0].tensors
            # serve.batch is shared by every request in the batch; it
            # joins the first traced request's tree (the others link via
            # their serve.queue_wait spans).
            with use_trace(first_trace):
                with span(
                    "serve.batch", requests=len(batch), samples=samples
                ) as record:
                    with span("serve.infer"):
                        probabilities = model.detector.predict_proba_tensors(x)
                    record.attrs["version"] = model.version
        except BaseException as exc:  # fan the failure out, keep serving
            registry.counter("serve.errors").inc(len(batch))
            emit(
                "serve.batch.error",
                level="warning",
                requests=len(batch),
                samples=samples,
                error=f"{type(exc).__name__}: {exc}",
            )
            failed = time.perf_counter()
            for request in batch:
                if self.slo_tracker is not None:
                    self.slo_tracker.record(
                        failed - request.submitted_at, ok=False
                    )
                if not request.future.set_running_or_notify_cancel():
                    continue  # pragma: no cover - futures are never cancelled
                request.future.set_exception(exc)
            return
        elapsed = time.perf_counter() - started
        finished = time.perf_counter()
        offset = 0
        for request in batch:
            rows = probabilities[offset : offset + request.count]
            offset += request.count
            if not request.future.set_running_or_notify_cancel():
                continue  # pragma: no cover - futures are never cancelled
            # Stamped before the result: a waiter woken by set_result
            # must already see the version that scored its rows.
            request.future.version = model.version
            request.future.set_result(rows)
            latency = finished - request.submitted_at
            registry.histogram("serve.request.seconds").observe(latency)
            if self.slo_tracker is not None:
                self.slo_tracker.record(latency, ok=True)
        registry.counter("serve.requests").inc(len(batch))
        registry.counter("serve.samples").inc(samples)
        registry.counter("serve.batches").inc()
        version_labels = {"model_version": model.version}
        registry.counter("serve.model.requests", labels=version_labels).inc(
            len(batch)
        )
        registry.counter("serve.model.samples", labels=version_labels).inc(
            samples
        )
        registry.histogram("serve.batch.size").observe(samples)
        registry.histogram("serve.batch.seconds").observe(elapsed)
        if samples:
            monitor = self._drift_monitor(model)
            if monitor is not None:
                monitor.observe(probabilities[:, 1], tensors=x)
        self._maybe_evaluate_slos()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Derived serving numbers for /healthz and /metrics."""
        registry = get_registry()
        batches = registry.counter("serve.batches").value
        samples = registry.counter("serve.samples").value
        return {
            "queue_depth": self.queue_depth,
            "requests": registry.counter("serve.requests").value,
            "samples": samples,
            "batches": batches,
            "rejected": registry.counter("serve.rejected").value,
            "errors": registry.counter("serve.errors").value,
            "mean_batch_size": (samples / batches) if batches else 0.0,
        }

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop intake and shut the workers down.

        ``drain=True`` (default) lets workers finish every queued
        request before exiting — no response is dropped or duplicated.
        ``drain=False`` fails queued requests with
        :class:`EngineClosedError` immediately (in-flight batches still
        complete).
        """
        rejected: List[_Request] = []
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    rejected = list(self._queue)
                    self._queue.clear()
                self._cond.notify_all()
        for request in rejected:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    EngineClosedError("engine closed before this request ran")
                )
        for worker in self._workers:
            worker.join(timeout)
        emit("serve.engine.closed", drained=drain)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
