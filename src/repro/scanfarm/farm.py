"""Sharded, cached full-chip scanning — the scan engine.

Production flows don't hand the detector pre-cut clips — they sweep a
layout. :class:`ScanFarm` tiles a :class:`~repro.geometry.layout.Layout`
into overlapping clip windows, scores them with a trained detector, and
merges flagged windows into hotspot regions. A detector exposing
``predict_proba_tensors`` and a feature-tensor ``extractor`` scans
against one shared block-DCT grid
(:class:`~repro.features.sliding.SlidingFeatureExtractor`): each layout
pixel is rasterised and transformed once, however many windows overlap
it. Any other detector (the baselines) is scored clip by clip. The farm
resolves that path once per scan; it is part of the journal header and
of every window fingerprint. The farm decomposes a scan three ways,
every one of them exact:

1. **Reuse** — each window gets a content fingerprint (geometry digest
   salted with feature config + model identity). Windows whose
   fingerprint already has a probability — from the persistent
   :class:`~repro.scanfarm.cache.ScanCache`, from a resumed
   :class:`~repro.core.fullchip.ScanJournal`, or from another window
   earlier in this very scan (standard-cell arrays, repeated macros) —
   are never recomputed: the known probability is replicated. Between
   scans the farm also keeps what the last one computed, keyed by
   content: its window fingerprints (only windows overlapping a rect
   added or removed are hashed again), its grid tiles (only tiles whose
   geometry digest changed are encoded again) and its open cache (only
   lines appended since are read).
2. **Sharding** — the remaining (representative) windows are split into
   contiguous row bands (:func:`~repro.scanfarm.sharding.plan_shards`),
   oversubscribed ``shards_per_worker``-fold so a shared task queue
   load-balances them across worker processes: a worker that finishes a
   cheap band steals the next one. Each shard rasterises only its own
   block-aligned sub-region, whose coefficient sub-grid is bit-identical
   to the matching slice of the full-chip grid by construction.
3. **Assembly** — probabilities stream back through the journal and
   :func:`~repro.core.fullchip.assemble_scan_result`, so a scan's
   :class:`ScanResult` depends on nothing but its probability vector.

For deterministic per-window detectors (the probe detectors, anything
whose output is independent of batch composition) the result is
therefore *bitwise* independent of worker count, shard count and cache
state — the property the equivalence tests pin against the reference
scans in :mod:`repro.testing`. The CNN's BLAS kernels pick different
instruction paths for different batch shapes, so for real detectors
equality across worker counts holds at flagged-window/region level.

``workers=1`` runs its single shard in-process, and each scored batch
lands in the result, the journal and the drift monitor as soon as it is
scored, so a killed scan resumes from its last finished batch. With
``workers > 1`` shards run on a process pool and each lands as one
journal record. A worker process that dies (SIGKILL, OOM) breaks the
pool, which is respawned once and then degraded to in-process
execution; the journal makes a killed *parent* resumable mid-scan. A
lost shard is reported per shard with a ``scan.shard.lost`` warning, and
whatever stage metrics it managed to spill before dying are merged back
under a ``shard_lost`` label — the partial work stays visible without
double-counting the re-run in the unlabelled totals.

Shard workers run under a private event bus and metrics registry; their
span events (``farm.shard`` → ``scan.extract``/``scan.inference``) ride
back in the shard result and are re-emitted on the parent bus carrying
the parent scan's trace id, so ``obs report --trace`` reassembles a
farm scan — parent and worker processes together — as one tree.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.fullchip import (
    ScanJournal,
    ScanResult,
    assemble_scan_result,
    scan_journal_header,
)
from repro.data.dataset import HotspotDataset
from repro.exceptions import FeatureError, TrainingError
from repro.features.sliding import SlidingFeatureExtractor
from repro.features.tensor import FeatureTensorExtractor
from repro.geometry.layout import Layout, iter_clip_windows
from repro.obs import MetricsRegistry, emit, get_registry, set_registry, span
from repro.obs.events import Event, EventBus, get_bus, set_bus
from repro.obs.tracing import use_trace
from repro.scanfarm.cache import ScanCache
from repro.scanfarm.fingerprint import (
    FingerprintMemo,
    model_fingerprint,
    scan_salt,
)
from repro.scanfarm.sharding import RegionShard, plan_shards
from repro.testing.faults import maybe_fail

PathLike = Union[str, Path]

#: A pool shard's outcome: (probabilities, metrics, events, seconds).
ShardResult = Tuple[np.ndarray, Dict[str, Any], List[Dict[str, Any]], float]

#: Per-process scan context installed by the pool initializer.
_WORKER: Dict[str, Any] = {}


def bind_worker_to_parent() -> None:
    """Ask the kernel to SIGTERM this worker when its parent dies.

    Without this, a scan process killed mid-run (OOM killer, operator
    SIGKILL) strands its pool workers as orphans that keep every
    inherited fd open — journal files, and pipes whose readers then
    never see EOF. PR_SET_PDEATHSIG bounds worker lifetime strictly by
    the parent's. Linux-only; elsewhere workers stay plain orphans.
    """
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return
    if os.getppid() == 1:  # pragma: no cover - fork/death race
        os._exit(1)


def _init_worker(payload: Dict[str, Any]) -> None:
    """Pool initializer: stash the shared scan context once per process.

    ``bind_worker_to_parent`` ties each worker's lifetime to the farm
    process — a farm killed mid-scan must not strand orphans holding
    the journal fd and inherited pipes open.
    """
    bind_worker_to_parent()
    _WORKER["payload"] = payload


class _EventCollector:
    """Bus sink buffering shard-local events as picklable plain dicts."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def handle(self, event: Event) -> None:
        self.events.append(
            {
                "name": event.name,
                "level": event.level,
                "attrs": dict(event.attrs),
            }
        )


def _spill_root() -> Path:
    """The directory every pooled scan's spill directory lives under."""
    return Path(tempfile.gettempdir()) / "repro-farm-spill"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    return True


def _new_spill_dir() -> str:
    """A fresh spill directory named for this process.

    A scan killed mid-run (SIGKILL, OOM) never reaches its cleanup, so
    each new one first removes the directories of processes that are
    gone.
    """
    root = _spill_root()
    root.mkdir(parents=True, exist_ok=True)
    for entry in root.iterdir():
        pid = entry.name.split("-", 1)[0]
        if pid.isdigit() and not _pid_alive(int(pid)):
            shutil.rmtree(entry, ignore_errors=True)
    return tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=root)


def _spill_path(payload: Dict[str, Any], index: int) -> Optional[str]:
    """Where shard ``index`` spills partial metrics (None: spill off)."""
    spill_dir = payload.get("spill_dir")
    if not spill_dir:
        return None
    return os.path.join(spill_dir, f"shard-{index}.json")


def _write_spill(path: str, index: int, snapshot: Dict[str, Any]) -> None:
    """Atomically persist a shard's metrics-so-far (tmp + rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"shard": index, "snapshot": snapshot}, handle)
    os.replace(tmp, path)


def _read_spill(path: Optional[str]) -> Optional[Dict[str, Any]]:
    """Load a spill file; ``None`` when absent/unreadable (best effort)."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _scan_shard(shard: RegionShard) -> ShardResult:
    """Pool entry point: scan one shard, package everything it produced.

    Module-level so it pickles. Runs under a private metrics registry
    *and* a private event bus, so stage timings (raster, DCT, inference)
    and span events travel back in the returned tuple: the parent merges
    the snapshot and re-emits the events on its own bus. The
    ``farm.shard`` span is parented (via the shipped
    :class:`~repro.obs.tracing.TraceContext`) to the farm's ``farm.scan``
    span, so worker-process spans join the parent scan's trace tree.

    When the payload names a ``spill_dir``, the running metrics snapshot
    is spilled to disk after every batch and removed on clean
    completion — a shard that dies mid-flight leaves its partial work
    on disk for the parent's lost-shard accounting.
    """
    payload = _WORKER["payload"]
    started = time.perf_counter()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    collector = _EventCollector()
    bus = EventBus()
    bus.attach(collector)
    previous_bus = set_bus(bus)
    spill = _spill_path(payload, shard.index)
    probabilities = np.empty(len(shard.window_indices), dtype=np.float64)

    def keep(positions: np.ndarray, scored: np.ndarray) -> None:
        probabilities[positions] = scored
        if spill is not None:
            _write_spill(spill, shard.index, registry.snapshot())

    try:
        with use_trace(payload.get("trace")):
            _score_shard(payload, shard, keep)
    finally:
        set_bus(previous_bus)
        set_registry(previous)
    if spill is not None:
        try:
            os.remove(spill)
        except OSError:
            pass
    return (
        probabilities,
        registry.snapshot(),
        collector.events,
        time.perf_counter() - started,
    )


def _score_shard(
    payload: Dict[str, Any],
    shard: RegionShard,
    on_batch: Callable[[np.ndarray, np.ndarray], None],
    extractor: Optional[SlidingFeatureExtractor] = None,
) -> None:
    """Score a shard's windows inside its ``farm.shard`` span.

    Each batch goes to ``on_batch(positions, probabilities)`` as soon as
    it is scored; ``positions`` index into ``shard.window_indices``.
    Shared-grid batches come from
    :meth:`~repro.features.sliding.SlidingFeatureExtractor.iter_batches`
    over the shard's own region — through ``extractor`` (the farm's held
    one, in-process) or a fresh one (pool workers); per-clip batches cut,
    rasterise and encode each window on its own.
    """
    maybe_fail("farm.shard", shard.index)
    layout: Layout = payload["layout"]
    detector = payload["detector"]
    batch_size: int = payload["batch_size"]
    windows = [payload["windows"][i] for i in shard.window_indices]
    with span("farm.shard", shard=shard.index, windows=len(windows)):
        if payload["use_shared"]:
            if extractor is None:
                extractor = SlidingFeatureExtractor(
                    detector.extractor.config,
                    clip_nm=payload["clip_nm"],
                    tile_blocks=payload["tile_blocks"],
                )
            for positions, tensors in extractor.iter_batches(
                layout, windows, batch_size, region=shard.region
            ):
                with span("scan.inference", batch=len(positions)):
                    scored = detector.predict_proba_tensors(tensors)[:, 1]
                on_batch(positions, scored)
        else:
            for lo in range(0, len(windows), batch_size):
                chunk = windows[lo : lo + batch_size]
                with span("scan.extract", batch=len(chunk)):
                    clips = [
                        layout.clip_at(w, name=f"farm_{shard.index}_{lo + i}")
                        for i, w in enumerate(chunk)
                    ]
                    batch = HotspotDataset(
                        clips, name="farm", allow_unlabelled=True
                    )
                with span("scan.inference", batch=len(clips)):
                    scored = detector.predict_proba(batch)[:, 1]
                on_batch(np.arange(lo, lo + len(chunk)), scored)


class ScanFarm:
    """Sharded, cached full-chip scanning.

    Parameters
    ----------
    detector:
        A trained object exposing ``predict_proba(HotspotDataset)`` —
        :class:`repro.core.HotspotDetector` or either baseline. Detectors
        that additionally expose ``predict_proba_tensors`` and a
        feature-tensor ``extractor`` scan against the shared block-DCT
        grid. Must be picklable when ``workers > 1`` (trained detectors
        and the probe detectors are).
    clip_nm / stride_nm:
        Window size and scan stride. A stride of half the clip size (the
        default) gives every layout point a window in whose core it lies.
    threshold:
        Hotspot-probability threshold for flagging a window.
    workers:
        Shard worker *processes*. 1 (the default) runs the scan
        in-process as a single shard — no pool is ever spun up.
    tile_blocks:
        Tile size (in blocks) for the shared raster; see
        :class:`~repro.features.sliding.SlidingFeatureExtractor`.
    shards_per_worker:
        Queue oversubscription factor: the scan is cut into about
        ``workers * shards_per_worker`` row bands so early-finishing
        workers pull extra bands instead of idling.
    cache_dir:
        Directory for the persistent :class:`ScanCache`. The farm keeps
        the cache open and, on each scan, reads only the lines appended
        since its last read (by it or any other writer). ``None``
        disables caching (fingerprints are still used for in-scan
        deduplication of repeated geometry).
    model_key:
        Overrides :func:`~repro.scanfarm.fingerprint.model_fingerprint`
        as the model identity in fingerprints — for callers that version
        models externally (e.g. the serving registry's names). Without
        it, the fingerprint follows the model: a new ``detector``, a new
        network, config or any weight write re-hashes it.
    drift_monitor:
        Optional :class:`~repro.obs.drift.DriftMonitor` fed the freshly
        computed hotspot probabilities as they land (cached/deduplicated
        windows are not re-observed), with a forced drift check once per
        completed scan, so a layout whose score distribution has shifted
        from the model's publish-time reference raises ``drift.alert``
        before anyone reads the result.

    One farm runs one scan at a time. Between scans it keeps, in memory,
    what the last scan computed — window fingerprints, encoded grid
    tiles, the open cache — and reuses whatever the next layout leaves
    untouched, keyed by content, so results stay those of a cold scan.
    Pool shard workers (``workers > 1``) encode their own tiles.
    """

    #: Pool respawns after a dead worker before degrading to in-process.
    max_pool_respawns = 1

    def __init__(
        self,
        detector,
        clip_nm: int = 1200,
        stride_nm: int = 600,
        threshold: float = 0.5,
        workers: int = 1,
        tile_blocks: int = 16,
        shards_per_worker: int = 2,
        cache_dir: Optional[PathLike] = None,
        model_key: Optional[str] = None,
        drift_monitor=None,
    ):
        if not hasattr(detector, "predict_proba"):
            raise TrainingError("detector must expose predict_proba(dataset)")
        if not 0.0 < threshold < 1.0:
            raise TrainingError(f"threshold must be in (0, 1), got {threshold}")
        if workers < 1:
            raise TrainingError(f"workers must be >= 1, got {workers}")
        if tile_blocks < 1:
            raise TrainingError(f"tile_blocks must be >= 1, got {tile_blocks}")
        if shards_per_worker < 1:
            raise TrainingError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        self.detector = detector
        self.clip_nm = clip_nm
        self.stride_nm = stride_nm
        self.threshold = threshold
        self.workers = workers
        self.tile_blocks = tile_blocks
        self.shards_per_worker = shards_per_worker
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self._fixed_model_key = model_key
        self._model_key: Optional[str] = None
        self._model_stamp: Optional[Tuple[Any, ...]] = None
        self.drift_monitor = drift_monitor
        self._fingerprints = FingerprintMemo()
        self._extractor: Optional[SlidingFeatureExtractor] = None
        self._cache: Optional[ScanCache] = None

    # ------------------------------------------------------------------
    def _grid_pitch(self) -> Optional[int]:
        """Block pitch (nm) of the shared grid; ``None``: score per clip.

        The shared grid needs ``predict_proba_tensors`` and a
        feature-tensor extractor whose block grid tiles the clip.
        """
        extractor = getattr(self.detector, "extractor", None)
        if not hasattr(self.detector, "predict_proba_tensors") or not isinstance(
            extractor, FeatureTensorExtractor
        ):
            return None
        config = extractor.config
        try:
            return config.block_size_px(self.clip_nm) * config.pixel_nm
        except FeatureError:
            return None

    def _held_extractor(self) -> SlidingFeatureExtractor:
        """The in-process grid extractor, kept across scans for its tiles.

        Rebuilt when the feature config, clip size or tile size changes:
        a tile memo is only valid for the encoding that filled it.
        """
        config = self.detector.extractor.config
        held = self._extractor
        if held is None or (held.config, held.clip_nm, held.tile_blocks) != (
            config,
            self.clip_nm,
            self.tile_blocks,
        ):
            held = SlidingFeatureExtractor(
                config, clip_nm=self.clip_nm, tile_blocks=self.tile_blocks
            )
            self._extractor = held
        return held

    def _open_cache(self) -> ScanCache:
        """The held cache for ``cache_dir``, caught up with its data file."""
        directory = Path(self.cache_dir)
        if self._cache is None or self._cache.directory != directory:
            self._cache = ScanCache(directory)
        else:
            self._cache.refresh()
        return self._cache

    def model_key(self) -> str:
        """The model identity folded into every fingerprint.

        Hashing a model costs about a millisecond, so the key is hashed
        again only when the detector object, its network, its config or
        the network's weights version (advanced by every optimizer step
        and ``set_weights``) differs from the last hash's.
        """
        if self._fixed_model_key is not None:
            return self._fixed_model_key
        detector = self.detector
        network = getattr(detector, "network", None)
        stamp = (
            detector,
            network,
            getattr(detector, "config", None),
            getattr(network, "weights_version", None),
        )
        held = self._model_stamp
        if held is None or not (
            all(a is b for a, b in zip(stamp[:3], held[:3]))
            and stamp[3] == held[3]
        ):
            self._model_key = model_fingerprint(detector)
            self._model_stamp = stamp
        return self._model_key

    def _journal_header(
        self, layout: Layout, window_count: int, resolved: str
    ) -> Dict[str, Any]:
        """Scan geometry plus the farm's path/shard/cache/model identity.

        Any drift — different scoring path, worker count, shard factor,
        cache directory or model — makes :meth:`ScanJournal.resume` raise
        :class:`~repro.exceptions.ScanJournalError` rather than silently
        splicing incompatible scans together.
        """
        return scan_journal_header(
            layout,
            window_count,
            clip_nm=self.clip_nm,
            stride_nm=self.stride_nm,
            threshold=self.threshold,
            pipeline=f"farm:{resolved}",
            farm_workers=self.workers,
            shards_per_worker=self.shards_per_worker,
            cache=None if self.cache_dir is None else str(self.cache_dir),
            model=self.model_key(),
        )

    # ------------------------------------------------------------------
    def scan(
        self,
        layout: Layout,
        batch_size: int = 512,
        journal: Optional[PathLike] = None,
        resume: bool = False,
    ) -> ScanResult:
        """Scan ``layout`` and return flagged windows + merged regions.

        ``journal`` names a :class:`ScanJournal` file that freshly scored
        windows are written to (each record fsync-ed as it lands); with
        ``resume=True`` an existing journal's windows are loaded instead
        of recomputed, so an interrupted scan continues from where it
        crashed and — the detector being deterministic per window —
        produces the same :class:`ScanResult` a clean run would.

        Windows already answered by the cache, the resumed journal, or an
        identical window earlier in the scan are not recomputed; the rest
        are scored shard by shard. The result lists windows in scan order
        with probabilities aligned.

        Telemetry: one ``farm.scan`` span (one trace) with
        ``farm.fingerprint``, ``farm.journal``, ``farm.cache_read``,
        ``farm.shard`` → ``scan.grid`` / ``scan.extract`` /
        ``scan.inference``, ``scan.merge`` and ``farm.cache_write``
        nested inside; afterwards the windows-per-second gauge is updated
        and ``farm.scan.complete`` (info) plus a full ``metrics.snapshot``
        (debug) are emitted, so a ``--log-json`` run log reconstructs the
        stage breakdown offline via ``repro-hotspot obs report``.
        """
        if resume and journal is None:
            raise TrainingError("resume=True needs a journal path")
        started = time.perf_counter()
        block_nm = self._grid_pitch()
        use_shared = block_nm is not None
        resolved = "shared" if use_shared else "per_clip"
        windows = tuple(
            iter_clip_windows(layout.region, self.clip_nm, self.stride_nm)
        )
        registry = get_registry()
        # One scan is one trace tree: every stage below, the journal and
        # the cache included, nests under this span.
        with span(
            "farm.scan",
            windows=len(windows),
            workers=self.workers,
            pipeline=resolved,
        ) as farm_span:
            with span(
                "farm.fingerprint", windows=len(windows), pipeline=resolved
            ):
                salt = scan_salt(
                    clip_nm=self.clip_nm,
                    pipeline=resolved,
                    model_key=self.model_key(),
                    feature=(
                        self.detector.extractor.config if use_shared else None
                    ),
                )
                fingerprints, fingerprints_reused = (
                    self._fingerprints.fingerprints(
                        layout, windows, salt, self.clip_nm, self.stride_nm
                    )
                )
            registry.counter("farm.fingerprints_reused").inc(
                fingerprints_reused
            )

            scan_journal: Optional[ScanJournal] = None
            done: Dict[int, float] = {}
            if journal is not None:
                with span("farm.journal", resume=resume):
                    scan_journal = ScanJournal(journal)
                    header = self._journal_header(
                        layout, len(windows), resolved
                    )
                    if resume and scan_journal.path.exists():
                        done = scan_journal.resume(header)
                        emit(
                            "scan.journal.resume",
                            completed=len(done),
                            windows=len(windows),
                            path=str(scan_journal.path),
                        )
                        registry.counter("scan.windows_resumed").inc(
                            len(done)
                        )
                    else:
                        scan_journal.start(header)

            #: fingerprint -> probability, from every source of truth we have.
            known: Dict[str, float] = {
                fingerprints[i]: p for i, p in done.items()
            }
            cache: Optional[ScanCache] = None
            if self.cache_dir is not None:
                with span("farm.cache_read"):
                    cache = self._open_cache()
                    hits = cache.lookup(fingerprints)
                cache_hits = 0
                for i, fp in enumerate(fingerprints):
                    if i not in done and fp in hits:
                        done[i] = hits[fp]
                        known.setdefault(fp, hits[fp])
                        cache_hits += 1
                registry.counter("farm.cache_hits").inc(cache_hits)
                registry.counter("farm.cache_misses").inc(
                    len(windows) - len(done)
                )

            # Deduplicate the remaining windows: the first window of each
            # fingerprint is scanned, the rest inherit its probability.
            representatives: List[int] = []
            duplicates: List[int] = []
            for i in range(len(windows)):
                if i in done:
                    continue
                fp = fingerprints[i]
                if fp in known:
                    duplicates.append(i)
                else:
                    known[fp] = np.nan  # claimed; real value filled on arrival
                    representatives.append(i)
            if duplicates:
                registry.counter("farm.windows_deduped").inc(len(duplicates))

            # Oversubscription only pays off when a pool is load-balancing;
            # in-process execution gets one shard, avoiding the duplicated
            # boundary-tile raster that adjacent overlapping bands cost.
            shard_count = (
                self.workers * self.shards_per_worker
                if self.workers > 1
                else 1
            )
            shards = plan_shards(
                windows,
                representatives,
                region=layout.region,
                # Per-clip shards have no block lattice; the clip size keeps
                # their (unused) regions window-sized.
                block_nm=block_nm if use_shared else self.clip_nm,
                shard_count=shard_count,
            )
            farm_span.attrs["shards"] = len(shards)
            payload = {
                "detector": self.detector,
                "layout": layout,
                "windows": windows,
                "use_shared": use_shared,
                "clip_nm": self.clip_nm,
                "tile_blocks": self.tile_blocks,
                "batch_size": batch_size,
            }
            probabilities = np.empty(len(windows), dtype=np.float64)
            for i, probability in done.items():
                probabilities[i] = probability
            landed = {"batches": 0}
            bus = get_bus()

            def land(indices: Sequence[int], scored: np.ndarray) -> None:
                """Freshly scored windows: result, journal, drift, fault point."""
                probabilities[indices] = scored
                for i, p in zip(indices, scored):
                    known[fingerprints[i]] = float(p)
                if scan_journal is not None:
                    scan_journal.record(indices, scored)
                if self.drift_monitor is not None:
                    self.drift_monitor.observe(scored)
                maybe_fail("farm.batch", landed["batches"])
                landed["batches"] += 1

            def shard_done(shard: RegionShard, seconds: float) -> None:
                registry.counter(
                    "farm.shard.windows", labels={"shard": str(shard.index)}
                ).inc(len(shard.window_indices))
                registry.histogram("farm.shard.seconds").observe(seconds)
                emit(
                    "farm.shard.complete",
                    level="debug",
                    shard=shard.index,
                    windows=len(shard.window_indices),
                    seconds=seconds,
                )

            def consume(shard: RegionShard, result: ShardResult) -> None:
                """Land a pool shard: one journal record for the whole band."""
                shard_probs, snapshot, events, seconds = result
                registry.merge_snapshot(snapshot)
                # Replay the shard's span events (collected on its private
                # bus in another process) onto the parent bus: their
                # trace/span ids are in the attrs, so the JSONL log
                # reassembles parent + worker spans into one trace tree.
                for event in events:
                    bus.emit(
                        event.get("name", "span"),
                        level=event.get("level", "debug"),
                        **event.get("attrs", {}),
                    )
                land(list(shard.window_indices), shard_probs)
                shard_done(shard, seconds)

            def scan_in_process(shard: RegionShard) -> None:
                """Score a shard here, landing every batch as it is scored."""
                tick = time.perf_counter()
                indices = np.asarray(shard.window_indices, dtype=np.int64)
                _score_shard(
                    payload,
                    shard,
                    lambda positions, scored: land(indices[positions], scored),
                    self._held_extractor() if use_shared else None,
                )
                shard_done(shard, time.perf_counter() - tick)

            tiles_reused = registry.counter("scan.tiles_reused").value
            spill_dir: Optional[str] = None
            try:
                completed: set = set()
                if self.workers > 1 and len(shards) > 1:
                    # Pool workers parent their farm.shard spans to this
                    # span via the shipped context.
                    payload["trace"] = farm_span.context()
                    spill_dir = _new_spill_dir()
                    payload["spill_dir"] = spill_dir
                    completed = self._run_shards_pool(payload, shards, consume)
                for shard in shards:
                    if shard.index not in completed:
                        scan_in_process(shard)
                if duplicates:
                    replicated = [
                        known[fingerprints[i]] for i in duplicates
                    ]
                    probabilities[duplicates] = replicated
                    if scan_journal is not None:
                        scan_journal.record(duplicates, np.asarray(replicated))
                result = assemble_scan_result(
                    windows, probabilities, self.threshold, started
                )
            finally:
                if scan_journal is not None:
                    scan_journal.close()
                if spill_dir is not None:
                    shutil.rmtree(spill_dir, ignore_errors=True)
            if self.drift_monitor is not None:
                self.drift_monitor.check(force=True)

            if cache is not None:
                with span("farm.cache_write"):
                    written = cache.update(
                        {
                            fp: float(probabilities[i])
                            for i, fp in enumerate(fingerprints)
                        }
                    )
                registry.counter("farm.cache_writes").inc(written)
        registry.counter("scan.windows").inc(result.window_count)
        registry.counter("scan.flagged").inc(result.flagged_count)
        registry.counter("farm.shards").inc(len(shards))
        rate = result.window_count / max(result.scan_seconds, 1e-9)
        registry.gauge("scan.windows_per_second").set(rate)
        emit(
            "farm.scan.complete",
            windows=result.window_count,
            scanned=len(representatives),
            deduped=len(duplicates),
            resumed_or_cached=len(done),
            fingerprints_reused=fingerprints_reused,
            tiles_reused=registry.counter("scan.tiles_reused").value
            - tiles_reused,
            flagged=result.flagged_count,
            regions=len(result.regions),
            shards=len(shards),
            workers=self.workers,
            seconds=result.scan_seconds,
            windows_per_second=rate,
            pipeline=resolved,
        )
        emit("metrics.snapshot", level="debug", **registry.snapshot())
        return result

    def scan_batch(
        self,
        layouts: Union[
            Mapping[str, Layout], Iterable[Tuple[str, Layout]]
        ],
        batch_size: int = 512,
    ) -> List[ScanResult]:
        """Scan several named layouts through one farm (and one shared
        cache); one result per input, in input order.

        This is the cross-layout incremental mode: each revision of a chip
        re-hashes only the windows and re-encodes only the grid tiles its
        edits touched, and with a ``cache_dir`` reuses every unchanged
        window's probability from the scans before it. Names only label
        the ``farm.batch.layout`` events; two layouts may share one.
        """
        items = (
            layouts.items() if isinstance(layouts, Mapping) else layouts
        )
        results: List[ScanResult] = []
        for name, layout in items:
            emit("farm.batch.layout", layout=name, index=len(results))
            results.append(self.scan(layout, batch_size=batch_size))
        return results

    # ------------------------------------------------------------------
    def _run_shards_pool(
        self,
        payload: Dict[str, Any],
        shards: Sequence[RegionShard],
        consume: Callable[[RegionShard, ShardResult], None],
    ) -> set:
        """Run shards on a worker pool; returns indices that completed.

        A dying worker breaks the pool (sibling futures fail with it),
        the pool is respawned once with the unfinished shards, and a
        second break degrades the remainder to in-process execution in
        the caller.
        Pool scheduling itself is the work-stealing part — shards sit in
        one shared queue and idle workers pull the next one.

        A break no longer drops the lost shards' telemetry silently:
        every shard whose future failed gets a per-shard
        ``scan.shard.lost`` warning (with its window count), bumps the
        ``farm.shards_lost`` counter, and — when the worker spilled a
        partial metrics snapshot before dying — that partial work is
        merged back under a ``shard_lost="<index>"`` label. The re-run
        of the same shard reports into the unlabelled series, so the
        unlabelled totals still reconcile with a single-process scan
        while the wasted partial work stays accounted for.
        """
        completed: set = set()
        pool_failures = 0
        pending = {shard.index: shard for shard in shards}
        while pending:
            try:
                executor = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending)),
                    initializer=_init_worker,
                    initargs=(payload,),
                )
            except (ImportError, OSError, ValueError):
                return completed  # restricted environments: no pool at all
            broken = False
            lost: List[int] = []
            try:
                futures = {
                    index: executor.submit(_scan_shard, shard)
                    for index, shard in pending.items()
                }
                for index, future in futures.items():
                    try:
                        result = future.result()
                    except (BrokenProcessPool, OSError) as exc:
                        lost.append(index)
                        if not broken:
                            broken = True
                            emit(
                                "farm.worker_dead",
                                level="warning",
                                error=str(exc),
                                completed=len(completed),
                                shards=len(shards),
                            )
                            get_registry().counter("farm.worker_deaths").inc()
                    else:
                        consume(pending[index], result)
                        completed.add(index)
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            for index in lost:
                self._report_lost_shard(payload, pending[index])
            for index in completed:
                pending.pop(index, None)
            if not broken:
                break
            pool_failures += 1
            if pool_failures > self.max_pool_respawns:
                emit(
                    "farm.degraded",
                    level="warning",
                    remaining=len(pending),
                    shards=len(shards),
                )
                break  # caller finishes the remainder in-process
        return completed

    @staticmethod
    def _report_lost_shard(
        payload: Dict[str, Any], shard: RegionShard
    ) -> None:
        """Account for a shard whose worker died before returning.

        Emits the per-shard ``scan.shard.lost`` warning and folds any
        spilled partial metrics snapshot into the parent registry under
        a ``shard_lost`` label (the shard is re-run afterwards, so the
        partial series must stay out of the unlabelled totals).
        """
        registry = get_registry()
        spill = _spill_path(payload, shard.index)
        partial = _read_spill(spill)
        if partial is not None and spill is not None:
            try:  # consumed: a re-lost shard must not merge it twice
                os.remove(spill)
            except OSError:
                pass
        snapshot = partial.get("snapshot") if partial else None
        if isinstance(snapshot, dict) and snapshot:
            registry.merge_snapshot(
                snapshot, labels={"shard_lost": str(shard.index)}
            )
        registry.counter("farm.shards_lost").inc()
        emit(
            "scan.shard.lost",
            level="warning",
            shard=shard.index,
            windows=len(shard.window_indices),
            partial_metrics=bool(snapshot),
        )
