"""Multi-process serving fleet: replica pool + shared-memory weights.

:class:`FleetEngine` is the multi-process counterpart of
:class:`~repro.serve.engine.InferenceEngine`: the same ``submit`` /
``predict`` / ``encode_images`` surface, but scoring happens in a pool
of N replica *processes*, so the fleet scales past the GIL on
multi-core hosts. Model weights are published once per version into a
POSIX shared-memory segment (:mod:`repro.serve.shm`) and attached
zero-copy by every replica — N replicas, one physical weight copy.

Request path::

    submit() ──admission (per-tenant token bucket, 429)──▶ pending deque
        │                                   (QueueFullError past max_queue, 503)
        ▼
    dispatcher thread: groups same-(version, shadow) requests into
    transport batches, picks the least-loaded replica that has ACKed
    the version, ships tensors over a per-replica pipe
        ▼
    replica process: scores each request with ONE predict_proba_tensors
    call per request (never concatenating requests — BLAS GEMMs are not
    row-stable across batch sizes, and the fleet guarantees responses
    bitwise-equal to offline scoring), returns probability rows
        ▼
    per-replica reader thread: resolves futures, records latency/SLO,
    emits shadow-diff events

Fault model: a replica may die at any instant (SIGKILL). A monitor
thread detects death via ``Process.is_alive`` (pipe EOF alone is not
reliable under ``fork``: later-forked siblings inherit the dead
replica's pipe ends), re-queues that replica's in-flight requests at the
front of the pending deque, and respawns a replacement that re-attaches
every published segment. Requests are pure functions of (payload,
version), so a redispatched request returns the identical bytes — a
crash is invisible to clients beyond added latency.

Hot swap / canary / shadow: ``activate``/``set_canary``/``set_shadow``
publish the candidate's segment, wait until every live replica ACKs the
attach (a replica that fails CRC verification refuses the version and
the operation errors with the old model still serving), then flip the
router. Segments leave ``/dev/shm`` when no routing state references
them, and always on :meth:`close`.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DetectorConfig
from repro.exceptions import (
    EngineClosedError,
    FleetError,
    ModelNotFoundError,
    QueueFullError,
    RateLimitedError,
    ServeError,
)
from repro.features.tensor import FeatureTensorExtractor
from repro.nn.kernels import Workspace, use_workspace
from repro.obs import emit, get_registry
from repro.obs.events import EventBus, set_bus
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.slo import SLObjective, SLOTracker, default_serve_objectives
from repro.scanfarm.farm import bind_worker_to_parent
from repro.serve.registry import ModelRegistry
from repro.serve.router import Router
from repro.serve.shm import SharedModel, sweep_stale_segments


@dataclass(frozen=True)
class FleetConfig:
    """Fleet sizing and batching knobs.

    ``max_batch``/``max_wait_ms`` control the *transport* batches the
    dispatcher ships to a replica — inside the replica every request is
    still scored with its own inference call (bitwise determinism), so
    batching here amortises pickling/IPC, not BLAS.
    """

    replicas: int = 2
    max_queue: int = 512
    max_batch: int = 32
    max_wait_ms: float = 2.0
    respawn: bool = True
    start_method: Optional[str] = None
    ack_timeout_s: float = 120.0
    drain_timeout_s: float = 30.0
    metrics_push_interval_s: float = 2.0
    #: Precision every published segment serves at. Quantized values
    #: require each published version to carry a passing parity report
    #: (enforced before the segment is created; see repro.core.parity).
    infer_precision: str = "float64"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {self.replicas}")
        if self.infer_precision not in (
            "float64",
            "float32",
            "float16",
            "int8",
        ):
            raise ServeError(
                f"bad infer_precision {self.infer_precision!r}"
            )
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ServeError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )


class _FleetRequest:
    __slots__ = (
        "tensors",
        "count",
        "tenant",
        "key",
        "version",
        "shadow",
        "future",
        "submitted_at",
    )

    def __init__(
        self,
        tensors: np.ndarray,
        tenant: str,
        key: str,
        version: str,
        shadow: Optional[str],
    ):
        self.tensors = tensors
        self.count = int(tensors.shape[0])
        self.tenant = tenant
        self.key = key
        self.version = version
        self.shadow = shadow
        self.future: "Future[np.ndarray]" = Future()
        self.submitted_at = time.perf_counter()


class _Replica:
    """Parent-side handle on one replica process."""

    def __init__(self, idx: int, generation: int, process, send_conn, recv_conn):
        self.idx = idx
        self.generation = generation
        self.uid = str(idx) if generation == 0 else f"{idx}.{generation}"
        self.process = process
        self.send_conn = send_conn
        self.recv_conn = recv_conn
        self.send_lock = threading.Lock()
        self.acked: set = set()
        self.ack_errors: Dict[str, str] = {}
        self.inflight: Dict[int, List[_FleetRequest]] = {}
        self.pid: Optional[int] = process.pid
        self.alive = True
        self.downed = False
        self.retired = False


# ----------------------------------------------------------------------
# Replica process
# ----------------------------------------------------------------------
def _replica_main(
    uid: str,
    requests_conn,
    results_conn,
    catalog: Sequence[Tuple[str, str]],
    push_interval_s: float = 2.0,
) -> None:
    """Replica event loop (runs in a child process)."""
    bind_worker_to_parent()
    # Fresh telemetry: the forked copy of the parent's bus/registry must
    # not double-report through inherited sinks.
    set_bus(EventBus())
    registry = MetricsRegistry()
    set_registry(registry)

    models: Dict[str, Tuple[SharedModel, object]] = {}

    def send(message) -> None:
        try:
            results_conn.send(message)
        except (OSError, ValueError):  # parent gone; nothing left to serve
            os._exit(1)

    def load(version: str, segment_name: str) -> None:
        try:
            shared = SharedModel.attach(segment_name)
            models[version] = (shared, shared.detector())
            error = None
        except Exception as exc:  # refuses to serve a bad segment
            error = f"{type(exc).__name__}: {exc}"
        send(("loaded", uid, version, error))
        registry.gauge("serve.replica.models").set(len(models))

    send(("ready", uid, os.getpid()))
    for version, segment_name in catalog:
        load(version, segment_name)

    workspace = Workspace()
    last_push = time.monotonic()

    def push(epoch: Optional[int] = None) -> None:
        nonlocal last_push
        last_push = time.monotonic()
        send(("metrics", uid, epoch, registry.snapshot()))

    with use_workspace(workspace):
        while True:
            try:
                ready = requests_conn.poll(0.5)
            except (OSError, EOFError):
                break
            if not ready:
                if time.monotonic() - last_push >= push_interval_s:
                    push()
                continue
            try:
                msg = requests_conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                push()
                try:
                    results_conn.send(("bye", uid))
                except (OSError, ValueError):
                    pass
                break
            if kind == "model":
                load(msg[1], msg[2])
                continue
            if kind == "drop":
                pair = models.pop(msg[1], None)
                if pair is not None:
                    shared, detector = pair
                    del detector
                    shared.close()
                registry.gauge("serve.replica.models").set(len(models))
                continue
            if kind == "snap":
                push(msg[1])
                continue
            if kind != "req":  # pragma: no cover - protocol guard
                continue
            _, batch_id, version, shadow_version, tensor_list = msg
            pair = models.get(version)
            shadow_pair = models.get(shadow_version) if shadow_version else None
            if pair is None or (shadow_version and shadow_pair is None):
                missing = version if pair is None else shadow_version
                send(
                    (
                        "fail",
                        uid,
                        batch_id,
                        "ModelNotFoundError",
                        f"replica {uid} has no model {missing!r}",
                    )
                )
                continue
            detector = pair[1]
            started = time.perf_counter()
            try:
                results: List[np.ndarray] = []
                shadows: Optional[List[np.ndarray]] = (
                    [] if shadow_version else None
                )
                # One inference call PER REQUEST, never concatenated:
                # BLAS GEMM output is not row-stable across batch sizes,
                # and fleet responses must be bitwise-equal to offline
                # single-request scoring regardless of co-tenancy.
                for tensors in tensor_list:
                    with workspace.step():
                        results.append(detector.predict_proba_tensors(tensors))
                    if shadows is not None:
                        with workspace.step():
                            shadows.append(
                                shadow_pair[1].predict_proba_tensors(tensors)
                            )
            except BaseException as exc:
                send(
                    ("fail", uid, batch_id, type(exc).__name__, str(exc))
                )
                continue
            elapsed = time.perf_counter() - started
            samples = sum(int(np.asarray(t).shape[0]) for t in tensor_list)
            registry.counter("serve.replica.requests").inc(len(tensor_list))
            registry.counter("serve.replica.samples").inc(samples)
            registry.counter("serve.replica.batches").inc()
            registry.histogram("serve.replica.batch.seconds").observe(elapsed)
            send(("res", uid, batch_id, version, results, shadows, shadow_version))
            if time.monotonic() - last_push >= push_interval_s:
                push()

    for shared, detector in list(models.values()):
        del detector
        shared.close()
    models.clear()
    try:
        requests_conn.close()
        results_conn.close()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Front-end engine
# ----------------------------------------------------------------------
class FleetEngine:
    """Replica-pool inference engine with the ``InferenceEngine`` surface."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: FleetConfig = FleetConfig(),
        router: Optional[Router] = None,
        slo: Optional[Sequence[SLObjective]] = None,
        version: Optional[str] = None,
    ):
        if not isinstance(registry, ModelRegistry):
            raise ServeError(
                f"FleetEngine needs a ModelRegistry, got {type(registry).__name__}"
            )
        # Reclaim /dev/shm space a SIGKILLed predecessor never freed.
        sweep_stale_segments()
        try:  # start the tracker pre-fork so children reuse it
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        self.registry = registry
        self.config = config
        self.router = router or Router()
        objectives = default_serve_objectives() if slo is None else list(slo)
        self.slo_tracker: Optional[SLOTracker] = (
            SLOTracker(objectives) if objectives else None
        )
        self._cond = threading.Condition(threading.RLock())
        self._admin_lock = threading.Lock()
        self._pending: Deque[_FleetRequest] = deque()
        self._dispatching: List[_FleetRequest] = []
        self._batches: Dict[int, List[_FleetRequest]] = {}
        self._batch_seq = itertools.count(1)
        self._segments: Dict[str, SharedModel] = {}
        self._extractors: Dict[str, FeatureTensorExtractor] = {}
        self._previous: Optional[str] = None
        self._gc_backlog: set = set()
        self._replica_snapshots: Dict[str, dict] = {}
        self._snapshot_seen: Dict[str, int] = {}
        self._snapshot_epoch = 0
        self._closed = False
        self._shut_down = False
        start_method = config.start_method or (
            "fork" if "fork" in _available_start_methods() else "spawn"
        )
        self._ctx = get_context(start_method)
        self._replicas: List[Optional[_Replica]] = [None] * config.replicas
        self._generations = [0] * config.replicas
        for idx in range(config.replicas):
            self._spawn_replica(idx)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        atexit.register(self._atexit_close)
        try:
            self.activate(version)
        except BaseException:
            self.close(drain=False)
            raise
        emit(
            "serve.fleet.started",
            replicas=config.replicas,
            start_method=start_method,
            version=self.router.stable,
        )

    # ------------------------------------------------------------------
    # Replica lifecycle
    # ------------------------------------------------------------------
    def _spawn_replica(self, idx: int) -> _Replica:
        with self._cond:
            catalog = [(v, s.name) for v, s in self._segments.items()]
            generation = self._generations[idx]
            self._generations[idx] += 1
        child_requests, parent_send = self._ctx.Pipe(duplex=False)
        parent_recv, child_results = self._ctx.Pipe(duplex=False)
        uid = str(idx) if generation == 0 else f"{idx}.{generation}"
        process = self._ctx.Process(
            target=_replica_main,
            args=(uid, child_requests, child_results, catalog),
            kwargs={"push_interval_s": self.config.metrics_push_interval_s},
            name=f"repro-replica-{uid}",
            daemon=True,
        )
        process.start()
        # Parent copies of the child's pipe ends must close so the pipes
        # tear when the child dies.
        child_requests.close()
        child_results.close()
        replica = _Replica(idx, generation, process, parent_send, parent_recv)
        with self._cond:
            self._replicas[idx] = replica
            self._cond.notify_all()
        reader = threading.Thread(
            target=self._reader_loop,
            args=(replica,),
            name=f"fleet-reader-{uid}",
            daemon=True,
        )
        reader.start()
        return replica

    def _mark_down(self, replica: _Replica) -> bool:
        """Retire a dead replica; requeue its in-flight work. Idempotent."""
        with self._cond:
            if replica.downed:
                return False
            replica.downed = True
            replica.alive = False
            requeue: List[_FleetRequest] = []
            for batch_id, batch in list(replica.inflight.items()):
                self._batches.pop(batch_id, None)
                requeue.extend(r for r in batch if not r.future.done())
            replica.inflight.clear()
            # Front of the queue: crashed-out requests have waited longest.
            self._pending.extendleft(reversed(requeue))
            self._cond.notify_all()
        get_registry().counter("serve.fleet.replica_deaths").inc()
        emit(
            "serve.fleet.replica.down",
            level="warning",
            replica=replica.uid,
            pid=replica.pid,
            requeued=len(requeue),
        )
        # Take send_lock so a dispatcher mid-send never has the handle
        # closed underneath it (a blocked send errors out fast with
        # EPIPE once the replica is dead, releasing the lock).
        with replica.send_lock:
            try:
                replica.send_conn.close()
            except OSError:  # pragma: no cover
                pass
        try:
            replica.recv_conn.close()
        except OSError:  # pragma: no cover
            pass
        return True

    def _handle_death(self, replica: _Replica) -> None:
        if not self._mark_down(replica):
            return
        if replica.retired or self._closed or not self.config.respawn:
            return
        get_registry().counter("serve.fleet.respawns").inc()
        emit("serve.fleet.replica.respawn", replica=replica.uid)
        try:
            self._spawn_replica(replica.idx)
        except Exception as exc:  # pragma: no cover - spawn failure
            emit(
                "serve.fleet.respawn.failed",
                level="error",
                replica=replica.uid,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _monitor_loop(self) -> None:
        while True:
            time.sleep(0.1)
            with self._cond:
                replicas = [r for r in self._replicas if r is not None]
                shut_down = self._shut_down
            if shut_down:
                return
            for replica in replicas:
                if (
                    replica.alive
                    and not replica.retired
                    and not replica.process.is_alive()
                ):
                    self._handle_death(replica)

    def _reader_loop(self, replica: _Replica) -> None:
        conn = replica.recv_conn
        while True:
            try:
                if not conn.poll(0.2):
                    if replica.downed or (
                        replica.retired and not replica.process.is_alive()
                    ):
                        break
                    continue
                msg = conn.recv()
            except (EOFError, OSError):
                break
            self._handle_message(replica, msg)
            if msg[0] == "bye":
                break
        if not (replica.retired or self._closed):
            self._handle_death(replica)

    # ------------------------------------------------------------------
    # Replica messages
    # ------------------------------------------------------------------
    def _handle_message(self, replica: _Replica, msg) -> None:
        kind = msg[0]
        if kind == "res":
            self._handle_result(replica, msg)
        elif kind == "fail":
            self._handle_fail(replica, msg)
        elif kind == "loaded":
            _, _, version, error = msg
            with self._cond:
                if error is None:
                    replica.acked.add(version)
                else:
                    replica.ack_errors[version] = error
                self._cond.notify_all()
            if error:
                emit(
                    "serve.fleet.load.failed",
                    level="warning",
                    replica=replica.uid,
                    version=version,
                    error=error,
                )
        elif kind == "metrics":
            _, uid, epoch, snapshot = msg
            with self._cond:
                self._replica_snapshots[uid] = snapshot
                if epoch is not None:
                    self._snapshot_seen[uid] = max(
                        self._snapshot_seen.get(uid, 0), int(epoch)
                    )
                self._cond.notify_all()
        elif kind == "ready":
            replica.pid = msg[2]

    def _handle_result(self, replica: _Replica, msg) -> None:
        _, _, batch_id, version, results, shadows, shadow_version = msg
        with self._cond:
            batch = self._batches.pop(batch_id, None)
            replica.inflight.pop(batch_id, None)
            self._cond.notify_all()
        if batch is None:  # redispatched after a crash; late duplicate
            return
        finished = time.perf_counter()
        registry = get_registry()
        samples = 0
        for request, rows in zip(batch, results):
            samples += request.count
            if not request.future.done():
                request.future.version = version
                request.future.set_result(rows)
                latency = finished - request.submitted_at
                registry.histogram("serve.request.seconds").observe(latency)
                if self.slo_tracker is not None:
                    self.slo_tracker.record(latency, ok=True)
        registry.counter("serve.requests").inc(len(batch))
        registry.counter("serve.samples").inc(samples)
        registry.counter("serve.batches").inc()
        version_labels = {"model_version": version}
        registry.counter("serve.model.requests", labels=version_labels).inc(
            len(batch)
        )
        registry.counter("serve.model.samples", labels=version_labels).inc(
            samples
        )
        for request in batch:
            registry.counter(
                "serve.tenant.requests", labels={"tenant": request.tenant}
            ).inc()
        if shadows is not None:
            for request, rows, shadow_rows in zip(batch, results, shadows):
                stable_p = [float(p) for p in np.asarray(rows)[:, 1]]
                shadow_p = [float(p) for p in np.asarray(shadow_rows)[:, 1]]
                diff = max(
                    (abs(a - b) for a, b in zip(stable_p, shadow_p)),
                    default=0.0,
                )
                registry.histogram("serve.shadow.diff").observe(diff)
                emit(
                    "serve.shadow.diff",
                    stable_version=version,
                    shadow_version=shadow_version,
                    tenant=request.tenant,
                    key=request.key,
                    stable_p_hot=stable_p,
                    shadow_p_hot=shadow_p,
                    max_abs_diff=diff,
                )

    def _handle_fail(self, replica: _Replica, msg) -> None:
        _, _, batch_id, error_type, error = msg
        with self._cond:
            batch = self._batches.pop(batch_id, None)
            replica.inflight.pop(batch_id, None)
            self._cond.notify_all()
        if batch is None:
            return
        registry = get_registry()
        registry.counter("serve.errors").inc(len(batch))
        emit(
            "serve.batch.error",
            level="warning",
            replica=replica.uid,
            requests=len(batch),
            error=f"{error_type}: {error}",
        )
        failed = time.perf_counter()
        for request in batch:
            if self.slo_tracker is not None:
                self.slo_tracker.record(failed - request.submitted_at, ok=False)
            if not request.future.done():
                request.future.set_exception(
                    ServeError(f"replica inference failed: {error_type}: {error}")
                )

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def _ensure_published(self, version: str) -> SharedModel:
        """Publish ``version`` to shm and wait until live replicas ACK it."""
        with self._cond:
            segment = self._segments.get(version)
        if segment is None:
            state = self.registry.read_state(version)
            precision = self.config.infer_precision
            if precision != "float64":
                # Same gate as registry activation: refuse to ship a
                # quantized payload that never proved decision parity.
                from repro.core.parity import enforce_parity

                enforce_parity(
                    (state.get("quant") or {}).get("parity"),
                    precision,
                    context=f"fleet model version {version!r}",
                )
            segment = SharedModel.publish(state, version, precision=precision)
            with self._cond:
                self._segments[version] = segment
                self._gc_backlog.discard(version)
        targets = []
        with self._cond:
            for replica in self._replicas:
                if (
                    replica is not None
                    and replica.alive
                    and version not in replica.acked
                    and version not in replica.ack_errors
                ):
                    targets.append(replica)
        for replica in targets:
            try:
                with replica.send_lock:
                    replica.send_conn.send(("model", version, segment.name))
            except (OSError, ValueError):
                pass  # death handled by the monitor
        deadline = time.monotonic() + self.config.ack_timeout_s
        with self._cond:
            while True:
                live = [
                    r
                    for r in self._replicas
                    if r is not None and r.alive and not r.retired
                ]
                for replica in live:
                    if version in replica.ack_errors:
                        raise FleetError(
                            f"replica {replica.uid} refused model "
                            f"{version!r}: {replica.ack_errors[version]}"
                        )
                if live and all(version in r.acked for r in live):
                    return segment
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FleetError(
                        f"timed out waiting for replicas to load {version!r}"
                    )
                self._cond.wait(min(remaining, 0.2))

    def _gc_segments(self) -> None:
        """Unlink segments no routing state references (best-effort).

        A version still referenced by queued or in-flight requests is
        deferred to the next admin operation (and to :meth:`close`),
        so a hot swap never fails requests routed a moment before it.
        """
        referenced = set(self.router.referenced_versions())
        if self._previous is not None:
            referenced.add(self._previous)
        with self._cond:
            candidates = {
                v for v in self._segments if v not in referenced
            } | {v for v in self._gc_backlog if v not in referenced}
            busy = set()
            for request in itertools.chain(
                self._pending,
                self._dispatching,
                itertools.chain.from_iterable(self._batches.values()),
            ):
                busy.add(request.version)
                if request.shadow:
                    busy.add(request.shadow)
            self._gc_backlog = {v for v in candidates if v in busy}
            drop = {
                v: self._segments.pop(v)
                for v in candidates - busy
                if v in self._segments
            }
            replicas = [r for r in self._replicas if r is not None and r.alive]
            for replica in replicas:
                for version in drop:
                    replica.acked.discard(version)
                    replica.ack_errors.pop(version, None)
        for version, segment in drop.items():
            for replica in replicas:
                try:
                    with replica.send_lock:
                        replica.send_conn.send(("drop", version))
                except (OSError, ValueError):
                    pass
            segment.unlink()
            segment.close()
            self._extractors.pop(version, None)
            emit("serve.fleet.segment.dropped", version=version)

    def activate(self, version: Optional[str] = None) -> str:
        """Publish + hot-swap the stable serving version (default: latest)."""
        if version is None:
            version = self.registry.latest_version()
        with self._admin_lock:
            self._ensure_published(version)
            previous = self.router.stable
            if previous is not None and previous != version:
                self._previous = previous
            self.router.set_stable(version)
            get_registry().counter("serve.model.swaps").inc()
            emit("serve.activate", model=self.registry.name, version=version)
            self._gc_segments()
        return version

    def rollback(self) -> str:
        """Swap back to the previously stable version (one level)."""
        with self._admin_lock:
            if self._previous is None:
                raise ModelNotFoundError(
                    f"model {self.registry.name!r} has no previous version "
                    "to roll back to"
                )
            target = self._previous
            self._ensure_published(target)
            self._previous = self.router.stable
            self.router.set_stable(target)
            get_registry().counter("serve.model.rollbacks").inc()
            emit("serve.rollback", model=self.registry.name, version=target)
            self._gc_segments()
        return target

    def set_canary(self, version: str, fraction: float) -> None:
        """Route ``fraction`` of request keys to ``version``."""
        with self._admin_lock:
            self._ensure_published(version)
            self.router.set_canary(version, fraction)
            emit("serve.canary.set", version=version, fraction=fraction)
            self._gc_segments()

    def clear_canary(self) -> None:
        with self._admin_lock:
            self.router.clear_canary()
            emit("serve.canary.cleared")
            self._gc_segments()

    def set_shadow(self, version: str) -> None:
        """Score every stable request on ``version`` too; never serve it."""
        with self._admin_lock:
            self._ensure_published(version)
            self.router.set_shadow(version)
            emit("serve.shadow.set", version=version)
            self._gc_segments()

    def clear_shadow(self) -> None:
        with self._admin_lock:
            self.router.clear_shadow()
            emit("serve.shadow.cleared")
            self._gc_segments()

    @property
    def model_version(self) -> str:
        stable = self.router.stable
        if stable is None:
            raise ModelNotFoundError("fleet has no active version")
        return stable

    @property
    def previous_version(self) -> Optional[str]:
        return self._previous

    @property
    def infer_precision(self) -> str:
        """The precision every replica scores shm-attached models at."""
        return self.config.infer_precision

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _extractor(self, version: str) -> FeatureTensorExtractor:
        with self._cond:
            segment = self._segments.get(version)
            extractor = self._extractors.get(version)
        if extractor is not None:
            return extractor
        if segment is None:
            raise ModelNotFoundError(
                f"fleet has no published segment for version {version!r}"
            )
        config = DetectorConfig.from_dict(segment.config)
        extractor = FeatureTensorExtractor(config.feature)
        with self._cond:
            self._extractors[version] = extractor
        return extractor

    def _coerce_tensors(self, tensors) -> np.ndarray:
        expected = self._extractor(self.model_version).output_shape
        batch = np.asarray(tensors)
        if batch.ndim == 3:
            batch = batch[None]
        if batch.ndim != 4 or tuple(batch.shape[1:]) != expected:
            raise ServeError(
                f"expected (N, {', '.join(map(str, expected))}) feature "
                f"tensors, got {batch.shape}"
            )
        return batch

    @staticmethod
    def _content_key(tenant: str, batch: np.ndarray) -> str:
        digest = hashlib.blake2b(digest_size=8)
        digest.update(tenant.encode("utf-8"))
        digest.update(np.ascontiguousarray(batch).tobytes())
        return digest.hexdigest()

    def submit(
        self,
        tensors,
        *,
        tenant: str = "default",
        key: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        """Queue feature tensors; returns a future of (N, 2) probabilities.

        ``tenant`` feeds per-tenant admission control
        (:class:`~repro.exceptions.RateLimitedError` above budget) and
        ``key`` pins the canary routing decision (defaults to a
        content-derived key, so identical payloads route identically).
        """
        if self._closed:
            raise EngineClosedError("fleet is closed to new requests")
        batch = self._coerce_tensors(tensors)
        registry = get_registry()
        try:
            self.router.admit(tenant)
        except RateLimitedError:
            registry.counter("serve.throttled").inc()
            registry.counter(
                "serve.tenant.throttled", labels={"tenant": tenant}
            ).inc()
            raise
        if key is None:
            key = self._content_key(tenant, batch)
        version, shadow = self.router.route(key)
        request = _FleetRequest(batch, tenant, key, version, shadow)
        with self._cond:
            if self._closed:
                raise EngineClosedError("fleet is closed to new requests")
            if len(self._pending) >= self.config.max_queue:
                registry.counter("serve.rejected").inc()
                if self.slo_tracker is not None:
                    self.slo_tracker.record(0.0, ok=False)
                raise QueueFullError(
                    f"fleet queue at capacity ({self.config.max_queue})"
                )
            self._pending.append(request)
            registry.gauge("serve.queue.depth").set(len(self._pending))
            self._cond.notify_all()
        return request.future

    def predict(
        self,
        tensors,
        timeout: Optional[float] = None,
        *,
        tenant: str = "default",
        key: Optional[str] = None,
    ) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(tensors, tenant=tenant, key=key).result(timeout)

    def encode_images(self, images: Sequence) -> np.ndarray:
        """Rasterised clip images -> stacked feature tensors."""
        extractor = self._extractor(self.model_version)
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

    def submit_images(
        self,
        images: Sequence,
        *,
        tenant: str = "default",
        key: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        return self.submit(self.encode_images(images), tenant=tenant, key=key)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
                first = self._pending.popleft()
                batch = [first]
                self._dispatching = batch
                samples = first.count
                deadline = time.monotonic() + cfg.max_wait_ms / 1000.0
                while samples < cfg.max_batch:
                    if self._pending:
                        nxt = self._pending[0]
                        if (nxt.version, nxt.shadow) != (
                            first.version,
                            first.shadow,
                        ) or samples + nxt.count > cfg.max_batch:
                            break
                        self._pending.popleft()
                        batch.append(nxt)
                        samples += nxt.count
                        continue
                    if self._closed:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                get_registry().gauge("serve.queue.depth").set(
                    len(self._pending)
                )
            self._send_batch(batch)
            with self._cond:
                self._dispatching = []

    def _pick_replica(self, versions: set) -> Optional[_Replica]:
        """Block until a live replica has ACKed every needed version."""
        with self._cond:
            while True:
                candidates = [
                    r
                    for r in self._replicas
                    if r is not None
                    and r.alive
                    and not r.retired
                    and versions <= r.acked
                ]
                if candidates:
                    return min(candidates, key=lambda r: len(r.inflight))
                if self._closed and not any(
                    r is not None and r.alive and not r.retired
                    for r in self._replicas
                ):
                    return None
                self._cond.wait(0.2)

    def _send_batch(self, batch: List[_FleetRequest]) -> None:
        first = batch[0]
        versions = {first.version}
        if first.shadow:
            versions.add(first.shadow)
        payload_tensors = [r.tensors for r in batch]
        while True:
            replica = self._pick_replica(versions)
            if replica is None:
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(
                            EngineClosedError(
                                "fleet closed before this request ran"
                            )
                        )
                return
            batch_id = next(self._batch_seq)
            with self._cond:
                if replica.downed:
                    continue
                self._batches[batch_id] = batch
                replica.inflight[batch_id] = batch
            try:
                with replica.send_lock:
                    replica.send_conn.send(
                        (
                            "req",
                            batch_id,
                            first.version,
                            first.shadow,
                            payload_tensors,
                        )
                    )
                return
            except (OSError, ValueError, TypeError):
                # Died between pick and send: undo, let the monitor
                # handle the corpse, try another replica. (TypeError:
                # a close() that slipped in nulls the fd mid-write.)
                with self._cond:
                    self._batches.pop(batch_id, None)
                    replica.inflight.pop(batch_id, None)
                continue

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        registry = get_registry()
        with self._cond:
            replicas = [
                {
                    "index": r.idx,
                    "uid": r.uid,
                    "pid": r.pid,
                    "alive": r.alive,
                    "inflight": sum(len(b) for b in r.inflight.values()),
                    "models": sorted(r.acked),
                }
                for r in self._replicas
                if r is not None
            ]
            depth = len(self._pending)
        batches = registry.counter("serve.batches").value
        samples = registry.counter("serve.samples").value
        return {
            "queue_depth": depth,
            "requests": registry.counter("serve.requests").value,
            "samples": samples,
            "batches": batches,
            "rejected": registry.counter("serve.rejected").value,
            "throttled": registry.counter("serve.throttled").value,
            "errors": registry.counter("serve.errors").value,
            "mean_batch_size": (samples / batches) if batches else 0.0,
            "replica_deaths": registry.counter(
                "serve.fleet.replica_deaths"
            ).value,
            "respawns": registry.counter("serve.fleet.respawns").value,
            "replicas": replicas,
            "routing": self.router.describe(),
        }

    def metrics_snapshot(
        self, refresh: bool = True, timeout_s: float = 2.0
    ) -> dict:
        """Front-end + per-replica metrics, merged under ``replica`` labels.

        ``refresh=True`` asks every live replica for a fresh snapshot
        (bounded by ``timeout_s``); stale pushes are used for replicas
        that do not answer in time.
        """
        if refresh and not self._closed:
            with self._cond:
                self._snapshot_epoch += 1
                epoch = self._snapshot_epoch
                replicas = [
                    r
                    for r in self._replicas
                    if r is not None and r.alive and not r.retired
                ]
            for replica in replicas:
                try:
                    with replica.send_lock:
                        replica.send_conn.send(("snap", epoch))
                except (OSError, ValueError):
                    pass
            deadline = time.monotonic() + timeout_s
            with self._cond:
                while time.monotonic() < deadline:
                    live = [
                        r
                        for r in self._replicas
                        if r is not None and r.alive and not r.retired
                    ]
                    if all(
                        self._snapshot_seen.get(r.uid, 0) >= epoch
                        for r in live
                    ):
                        break
                    self._cond.wait(0.05)
        merged = MetricsRegistry()
        merged.merge_snapshot(get_registry().snapshot())
        with self._cond:
            snapshots = dict(self._replica_snapshots)
        for uid, snapshot in snapshots.items():
            merged.merge_snapshot(snapshot, labels={"replica": uid})
        return merged.snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _atexit_close(self) -> None:  # pragma: no cover - interpreter exit
        try:
            self.close(drain=False, timeout=5.0)
        except Exception:
            pass

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop intake, drain (optionally), stop replicas, unlink segments."""
        with self._cond:
            if self._shut_down:
                return
            first_close = not self._closed
            self._closed = True
            rejected: List[_FleetRequest] = []
            if not drain:
                rejected = list(self._pending)
                self._pending.clear()
            self._cond.notify_all()
        if not first_close:
            return
        for request in rejected:
            if not request.future.done():
                request.future.set_exception(
                    EngineClosedError("fleet closed before this request ran")
                )
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.drain_timeout_s
        )
        with self._cond:
            while (
                self._pending or self._dispatching or self._batches
            ) and time.monotonic() < deadline:
                self._cond.wait(0.2)
            leftovers = list(self._pending)
            self._pending.clear()
            for batch in self._batches.values():
                leftovers.extend(batch)
            self._batches.clear()
            self._cond.notify_all()
        for request in leftovers:
            if not request.future.done():
                request.future.set_exception(
                    EngineClosedError("fleet closed before this request ran")
                )
        self._dispatcher.join(5.0)
        with self._cond:
            replicas = [r for r in self._replicas if r is not None]
            for replica in replicas:
                replica.retired = True
        for replica in replicas:
            try:
                with replica.send_lock:
                    replica.send_conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for replica in replicas:
            replica.process.join(5.0)
            if replica.process.is_alive():  # pragma: no cover - stuck replica
                replica.process.terminate()
                replica.process.join(2.0)
        with self._cond:
            self._shut_down = True
            self._cond.notify_all()
        self._monitor.join(2.0)
        for replica in replicas:
            for conn in (replica.send_conn, replica.recv_conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        with self._cond:
            segments = list(self._segments.values())
            self._segments.clear()
            self._extractors.clear()
        for segment in segments:
            segment.unlink()
            segment.close()
        try:
            atexit.unregister(self._atexit_close)
        except Exception:  # pragma: no cover
            pass
        emit("serve.fleet.closed", drained=drain)

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _available_start_methods() -> List[str]:
    import multiprocessing

    return multiprocessing.get_all_start_methods()
