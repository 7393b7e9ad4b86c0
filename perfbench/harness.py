"""Shared machinery of the repository benchmark.

Everything here is standard library only and imports nothing from
``repro`` or NumPy at module level: :mod:`run` times the program's
set-up from before the first heavy import, so this module must stay
cheap to import.

Pieces:

- paths inside the checkout (the benchmark reads and writes nothing
  outside it) and the scratch-directory helper;
- :class:`Stopwatch` for set-up timing with input generation paused;
- :class:`HostProbe`, which rescales CPU-bound timings to a reference
  host speed, and the median of several set-ups in fresh processes;
- latency statistics (median, the fixed tail percentile) and peak RSS;
- the environment block every run prints;
- :class:`Trace`, an in-memory span tree recorded around the benchmark's
  own calls into each layer, with the stage table, the reconciliation
  check and ``residual_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Directory holding the benchmark (``perfbench/``).
BENCH_DIR = Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs in.
ROOT = BENCH_DIR.parent
#: The program's sources; the benchmark builds nothing, it imports them.
SRC_DIR = ROOT / "src"
#: Scratch space for caches, registries and logs (removed after a run).
WORK_ROOT = ROOT / ".perfbench_work"
#: The benchmark definition whose metric names and units runs must match.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

FIXTURE_DIR = BENCH_DIR / "fixture"
FIXTURE_MODEL = FIXTURE_DIR / "model.npz"
FIXTURE_MANIFEST = FIXTURE_DIR / "model.json"

#: BLAS threads in every process the benchmark starts. Two-thread
#: OpenBLAS GEMMs spread 12% run to run on a 2-vCPU host, one thread 0.5%.
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}

#: Host-speed probe reference. The shared host's speed drifts by up to
#: half within a minute (a fixed loop: 6.7 ms in one 5 s window, 10.3 ms
#: two windows later, interpreter and BLAS alike), so raw timings of
#: CPU-bound ops spread 15-20% from run to run. Each such op is timed
#: between two probes and rescaled to a host on which the probe takes
#: this long; the raw timings are printed in the environment block.
PROBE_REFERENCE_S = 0.008

#: Largest share of an op's traced time that may stay unattributed to a
#: stage (``residual_s`` / op time) before the trace fails to reconcile.
RECONCILE_FRACTION = 0.10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad fixture)."""


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts: sources + BLAS pin."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_sources() -> None:
    """Refuse to run without the program or with a changed model fixture."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC_DIR}")
    if not FIXTURE_MODEL.is_file() or not FIXTURE_MANIFEST.is_file():
        raise BenchError(f"model fixture missing under {FIXTURE_DIR}")
    manifest = json.loads(FIXTURE_MANIFEST.read_text(encoding="utf-8"))
    actual = sha256_file(FIXTURE_MODEL)
    if actual != manifest.get("sha256"):
        raise BenchError(
            f"{FIXTURE_MODEL.name} digest {actual} does not match the "
            f"recorded {manifest.get('sha256')}; rebuild it with "
            f"fixture/make_model.py and record the new digest"
        )


@contextlib.contextmanager
def work_dir(prefix: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it


def derive_seed(seed: int, *labels: Any) -> int:
    """A 63-bit seed for one named input stream of a run."""
    text = json.dumps([seed, *labels]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def inputs_digest(*parts: Any) -> str:
    """Digest of a run's generated inputs (JSON-able or bytes parts)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            digest.update(bytes(part))
        else:
            digest.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
class Stopwatch:
    """Accumulating timer; :meth:`paused` excludes input generation."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: Optional[float] = None

    def start(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is not None:
            self.elapsed += time.perf_counter() - self._started
            self._started = None
        return self.elapsed

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        running = self._started is not None
        self.stop()
        try:
            yield
        finally:
            if running:
                self.start()


class HostProbe:
    """A fixed ~8 ms mix of interpreter, cache-resident and memory-bound
    BLAS, and FFT work that gauges how fast the host runs right now
    (median of three, so one interrupt cannot skew it)."""

    def __init__(self) -> None:
        import numpy as np
        import scipy.fft

        rng = np.random.default_rng(0)
        self._small = rng.random((160, 160))
        self._large = rng.random((384, 384))
        self._image = rng.random((256, 256))
        # 8 MiB, beyond the caches. Held for the life of the process:
        # freeing a block this size would raise the allocator's mmap
        # threshold and change how the program's own arrays are placed.
        self._stream = np.full(1 << 20, 1.0)
        self._dct = scipy.fft.dctn
        self.samples: List[float] = []

    def _once(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(3):
            self._small @ self._small
        self._large @ self._large
        self._stream.sum()
        self._dct(self._image, norm="ortho")
        return time.perf_counter() - started

    def measure(self) -> float:
        sample = statistics.median(self._once() for _ in range(3))
        self.samples.append(sample)
        return sample

    def scaled(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(fn(), raw seconds, seconds at the reference host speed)``."""
        before = self.measure()
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        after = self.measure()
        return result, raw, raw * PROBE_REFERENCE_S * 2 / (before + after)

    def run_factor(self) -> float:
        """Rescaling factor from every probe of the run so far.

        An op of several seconds outlasts the host's speed swings, so
        the two probes at its ends track its speed worse than the run's
        median probe does; short ops are better served by :meth:`scaled`.
        """
        return PROBE_REFERENCE_S / statistics.median(self.samples)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1000.0


@dataclass
class Context:
    """What a workload module needs from the command line and the run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    stopwatch: Stopwatch
    setup_only: bool = False  # a set-up sample: skip inputs set-up does not use
    probe: Optional[HostProbe] = None
    setup_s: float = 0.0  # this process's set-up, at reference host speed
    exits: contextlib.ExitStack = field(default_factory=contextlib.ExitStack)


@dataclass
class Outcome:
    """A workload's measured values and check counts, before formatting.

    An untraced run measures every end-to-end metric; a traced run the
    per-layer metrics of the layers its workload reaches.
    """

    values: Dict[str, float]
    attempted: int
    failed: int
    inputs: str
    extra_env: Dict[str, Any] = field(default_factory=dict)
    stage_table: Optional[str] = None


def tail_sample_count(percentile: float) -> int:
    """Samples needed so ``percentile`` has at least ten samples beyond it.

    The 100th percentile, the slowest op, is the tail of workloads whose
    ops are too long for a run to hold eleven of them; it needs one.
    """
    if percentile >= 100.0:
        return 1
    return math.ceil(10.0 / (1.0 - percentile / 100.0) - 1e-9)


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def latency_metrics(
    latencies_s: Sequence[float], tail_percentile: float
) -> Dict[str, float]:
    """``p50_ms`` and ``tail_ms`` (nearest rank) of per-op latencies."""
    if len(latencies_s) < tail_sample_count(tail_percentile):
        raise BenchError(
            f"{len(latencies_s)} samples cannot support p{tail_percentile:g} "
            f"with ten samples beyond it"
        )
    return {
        "p50_ms": statistics.median(latencies_s) * 1000.0,
        "tail_ms": nearest_rank(latencies_s, tail_percentile) * 1000.0,
    }


def scored_windows() -> int:
    """Windows the scan farm has sent to the network so far in this
    process: cache misses that no identical window stood in for."""
    from repro.obs import get_registry

    registry = get_registry()
    return (
        registry.counter("farm.cache_misses").value
        - registry.counter("farm.windows_deduped").value
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def setup_seconds(ctx: "Context", count: int) -> float:
    """Median of this run's set-up and ``count - 1`` more, each in a fresh
    process.

    Import time and host speed drift from one second to the next, so one
    set-up cannot repeat within a tenth; each sample is also rescaled by
    a host probe taken right after it.
    """
    samples = [ctx.setup_s]
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", ctx.workload,
        "--seed", str(ctx.seed),
        "--setup-only",
    ] + (["--tiny"] if ctx.tiny else [])
    for _ in range(count - 1):
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            raise BenchError(
                f"set-up run failed ({done.returncode}): {done.stderr[-2000:]}"
            )
        last = done.stdout.strip().splitlines()[-1]
        samples.append(float(json.loads(last)["setup_s"]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> Dict[str, Any]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):  # older NumPy: no dict mode
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """Digest of every file under ``src/`` — identifies the program when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_block(
    workload: str, seed: int, inputs: str, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """What a run needs to be compared with another: host, libraries,
    program identity, seed and the digests of inputs and model fixture."""
    import numpy as np
    import scipy

    manifest = json.loads(FIXTURE_MANIFEST.read_text(encoding="utf-8"))
    block = {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": dict(_blas_info(), threads=BLAS_THREADS),
        "blas_env": {k: os.environ.get(k) for k in sorted(BLAS_ENV)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "inputs_digest": inputs,
        "fixture_sha256": manifest["sha256"],
    }
    block.update(extra or {})
    return block


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed stage; ``glue`` spans' self time counts as residual."""

    name: str
    seconds: float = 0.0
    glue: bool = False
    children: List["Span"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(child.seconds for child in self.children)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Trace:
    """Span trees of a traced run, one root per op, kept in memory.

    Spans are recorded by the benchmark around its own calls into the
    program (:meth:`span`); stages the program times internally are
    attached afterwards from its metrics registry (:meth:`attach`).
    """

    def __init__(self) -> None:
        self.ops: List[Span] = []
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def op(self, name: str) -> Iterator[Span]:
        root = Span(name, glue=True)
        self._stack = [root]
        started = time.perf_counter()
        try:
            yield root
        finally:
            root.seconds = time.perf_counter() - started
            self._stack = []
            self.ops.append(root)

    @contextlib.contextmanager
    def span(self, name: str, glue: bool = False) -> Iterator[Span]:
        node = Span(name, glue=glue)
        self._stack[-1].children.append(node)
        self._stack.append(node)
        started = time.perf_counter()
        try:
            yield node
        finally:
            node.seconds += time.perf_counter() - started
            self._stack.pop()

    def add_op(self, name: str, seconds: float) -> Span:
        """An op timed elsewhere; attach its stages afterwards."""
        root = Span(name, seconds=seconds, glue=True)
        self.ops.append(root)
        return root

    @staticmethod
    def attach(parent: Span, name: str, seconds: float) -> Span:
        node = Span(name, seconds=seconds)
        parent.children.append(node)
        return node

    # ------------------------------------------------------------------
    def op_seconds(self) -> List[float]:
        return [op.seconds for op in self.ops]

    def per_op(self, name: str, self_time: bool = False) -> float:
        """Mean seconds per op spent in spans called ``name``."""
        total = 0.0
        for op in self.ops:
            for node in op.walk():
                if node.name == name:
                    total += node.self_seconds if self_time else node.seconds
        return total / max(len(self.ops), 1)

    def residual_per_op(self) -> float:
        """Mean per-op time no stage accounts for (glue spans' self time)."""
        total = sum(
            node.self_seconds
            for op in self.ops
            for node in op.walk()
            if node.glue
        )
        return total / max(len(self.ops), 1)

    def reconciles(self) -> bool:
        """Stages sum to op time within :data:`RECONCILE_FRACTION`, and no
        stage's children overran it."""
        wall = sum(self.op_seconds())
        if wall <= 0:
            return False
        negative = min(
            (node.self_seconds for op in self.ops for node in op.walk()),
            default=0.0,
        )
        slack = 1e-3 * wall
        return (
            abs(self.residual_per_op() * len(self.ops)) <= RECONCILE_FRACTION * wall
            and negative >= -slack
        )

    def stage_table(self) -> str:
        """Stage, count, self time and share of op wall time."""
        wall = sum(self.op_seconds())
        rows: Dict[str, List[float]] = {}
        for op in self.ops:
            for node in op.walk():
                name = "residual" if node.glue else node.name
                row = rows.setdefault(name, [0, 0.0])
                row[0] += 1
                row[1] += node.self_seconds
        lines = [
            f"{'stage':<34} {'count':>7} {'self_s':>10} {'share':>7}",
        ]
        for name, (count, seconds) in sorted(
            rows.items(), key=lambda item: -item[1][1]
        ):
            share = seconds / wall if wall > 0 else 0.0
            lines.append(
                f"{name:<34} {count:>7d} {seconds:>10.4f} {share:>7.1%}"
            )
        lines.append(
            f"{'op wall':<34} {len(self.ops):>7d} {wall:>10.4f} {1:>7.1%}"
        )
        lines.append(
            f"reconciles within {RECONCILE_FRACTION:.0%}: {self.reconciles()}"
        )
        return "\n".join(lines)


#: The end-to-end metric each per-layer metric should move, by workload
#: (``workload/metric``). Prefix entries cover the per-network-layer
#: metrics.
MOVES = {
    "geometry.raster_s": "eco/p50_ms, scan/windows_per_s",
    "features.dct_s": "eco/p50_ms, scan/windows_per_s",
    "features.tile_prep_s": "eco/p50_ms",
    "features.tiles_encoded": "eco/p50_ms",
    "features.slice_s": "scan/windows_per_s",
    "scanfarm.fingerprint_s": "eco/p50_ms",
    "scanfarm.cache_read_s": "eco/p50_ms",
    "scanfarm.cache_hit_ratio": "eco/p50_ms",
    "scanfarm.windows_rescored": "eco/p50_ms",
    "scanfarm.cache_write_s": "scan/windows_per_s",
    "scanfarm.dedup_ratio": "scan/windows_per_s",
    "core.infer_s": "scan/windows_per_s",
    "core.merge_s": "scan/windows_per_s",
    "nn.infer.": "scan/windows_per_s",
    "data.prepare_s": "train/samples_per_s",
    "features.extract_s": "train/samples_per_s",
    "features.scale_s": "train/samples_per_s",
    "core.build_s": "train/samples_per_s",
    "core.validate_s": "train/samples_per_s",
    "nn.forward": "train/samples_per_s",
    "nn.backward": "train/samples_per_s",
    "nn.optim_s": "train/samples_per_s",
    "serve.": "serve/p50_ms, serve/tail_ms, serve/ops_per_s",
    "residual_s": "none (unattributed op time)",
    "trace_overhead": "none (cost of tracing)",
}


def moves(metric: str) -> str:
    """The end-to-end metrics ``metric`` should move (longest key match)."""
    keys = [k for k in MOVES if metric == k or metric.startswith(k)]
    if not keys:
        raise BenchError(f"no end-to-end metric recorded for {metric}")
    return MOVES[max(keys, key=len)]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def metric_names(kind: str) -> List[str]:
    """Names of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    return [entry["name"] for entry in load_benchmark()[kind]]


def metric_units() -> Dict[str, str]:
    """``{metric: unit}`` over every metric ``BENCHMARK.json`` declares."""
    spec = load_benchmark()
    return {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }


def complete_metrics(values: Dict[str, float], trace: bool) -> Dict[str, float]:
    """Every metric of the run's kind, in ``BENCHMARK.json`` order.

    An untraced run must have measured every end-to-end metric. A traced
    run reports 0 for the per-layer metrics of layers its workload never
    reaches (``serve`` rasterises nothing, only ``train`` runs backward
    passes); :func:`not_exercised` names them.
    """
    names = metric_names("per_layer" if trace else "end_to_end")
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    unmeasured = sorted(set(names) - set(values))
    if not trace and unmeasured:
        raise BenchError(f"end-to-end metrics not measured: {unmeasured}")
    return {name: values.get(name, 0.0) for name in names}


def not_exercised(values: Dict[str, float]) -> List[str]:
    """Per-layer metrics a traced run's workload did not measure."""
    return [name for name in metric_names("per_layer") if name not in values]


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
) -> Dict[str, Any]:
    """The final JSON object; units come from ``BENCHMARK.json``."""
    units = metric_units()
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }
