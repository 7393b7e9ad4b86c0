"""``serve``: the HTTP service under a closed loop of tensor requests.

``python -m repro serve`` runs in its own process with its default
single-process engine settings, serving the fixture published to a
fresh ``ModelRegistry``. The client — this process, two threads, one
keep-alive connection each, ``TCP_NODELAY`` on its own sockets — sends
pre-encoded ``/v1/predict`` bodies of 1–8 feature tensors (eight bodies
of each size, every body once per seeded shuffle) cut from a seeded
chip, and sends its next request only after the previous reply. Every
request must answer 200 with probabilities within 1e-9 of offline
``predict_proba_tensors`` on the same tensors. No raster or DCT work
happens while the clock runs, and latencies are not rescaled by the
host probe: most of a request is a fixed delayed-ACK wait that does not
scale with host speed.

An op is one request: ``windows_per_s`` and ``samples_per_s`` both
count the windows the server scored. ``accuracy`` and ``false_alarms``
are those of the server's answers on the :mod:`quality` suite, posted
after the timed loop.

Set-up is launch to the first 200 from ``/healthz``, measured over
several launches. The traced run splits each request at the client into
send, wait for headers and body read, and matches it (by trace id) to
the server's ``--log-json`` spans: handler, engine queue wait, batch.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import chipscan
import harness
import quality
from repro.data.fullchip import FullChipSpec, make_layout
from repro.features.sliding import SlidingFeatureExtractor
from repro.geometry.layout import iter_clip_windows
from repro.serve import ModelRegistry

TAIL_PERCENTILE = 98.0
CONNECTIONS = 2
BODIES = 64
MAX_WINDOWS = 8
SITES = 4
TOLERANCE = 1e-9
LAUNCHES = 3
HEADERS = {"Content-Type": "application/json"}
PR_SET_PDEATHSIG = 1


def setup(ctx: harness.Context) -> Dict[str, Any]:
    """Inputs only: set-up for this workload is the server's launch."""
    detector = chipscan.load_detector()
    rng = np.random.default_rng(harness.derive_seed(ctx.seed, "serve-bodies"))
    sites = 2 if ctx.tiny else SITES
    layout = make_layout(
        FullChipSpec(
            tiles_x=sites,
            tiles_y=sites,
            seed=harness.derive_seed(ctx.seed, "serve-chip") % 2**32,
        )
    )
    windows = list(iter_clip_windows(layout.region))
    extractor = SlidingFeatureExtractor(detector.extractor.config)
    tensors = extractor.extract_windows(layout, windows)
    bodies: List[bytes] = []
    expected: List[np.ndarray] = []
    for index in range(MAX_WINDOWS if ctx.tiny else BODIES):
        # Sizes cycle through 1..MAX_WINDOWS, so every seed sends the same
        # mix of request sizes; the seed picks the windows.
        count = 1 + index % MAX_WINDOWS
        chosen = tensors[rng.choice(len(windows), size=count, replace=True)]
        bodies.append(json.dumps({"tensors": chosen.tolist()}).encode("utf-8"))
        expected.append(detector.predict_proba_tensors(chosen))
    suite = quality.held_out_suite(ctx.tiny)
    suite_layout, sites = quality.suite_chip(suite)
    suite_tensors = extractor.extract_windows(suite_layout, sites)
    suite_bodies = [
        json.dumps({"tensors": suite_tensors[i : i + MAX_WINDOWS].tolist()})
        .encode("utf-8")
        for i in range(0, len(sites), MAX_WINDOWS)
    ]
    registry_dir = ctx.exits.enter_context(harness.work_dir("serve-registry-"))
    ModelRegistry(registry_dir).publish(detector, version="fixture")
    return {
        "bodies": bodies,
        "expected": expected,
        "registry": registry_dir,
        "windows": [len(e) for e in expected],
        "suite": suite,
        "suite_bodies": suite_bodies,
    }


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _die_with_parent() -> None:
    """Ask the kernel to end the server if the benchmark dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``repro serve`` process; :meth:`start` returns launch→healthz."""

    def __init__(self, registry: Path, log_json: Optional[Path] = None):
        self.registry = registry
        self.log_json = log_json
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        command = [sys.executable, "-m", "repro"]
        if self.log_json is not None:
            command += ["--log-json", str(self.log_json)]
        command += [
            "serve",
            "--checkpoint-dir", str(self.registry),
            "--host", "127.0.0.1",
            "--port", str(self.port),
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=harness.ROOT,
            env=harness.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            preexec_fn=_die_with_parent,
        )
        while time.perf_counter() - started < timeout_s:
            if self.process.poll() is not None:
                raise harness.BenchError(
                    f"serve exited with {self.process.returncode} at start"
                )
            try:
                status, _ = self.get("/healthz", timeout=1.0)
            except OSError:
                time.sleep(0.005)
                continue
            if status == 200:
                return time.perf_counter() - started
        raise harness.BenchError("serve did not become healthy")

    def get(self, path: str, timeout: float = 10.0) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, Any]:
        status, body = self.get("/metrics.json")
        if status != 200:
            raise harness.BenchError(f"/metrics.json answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return harness.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=20)


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------
#: One request: body index, status, perf_counter marks (start, sent,
#: headers, done), wall clock when the send finished, response bytes.
Record = Tuple[int, int, float, float, float, float, float, bytes]


def _connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def closed_loop(
    port: int,
    bodies: List[bytes],
    seconds: float,
    needed: int,
    seed: int,
) -> Tuple[List[Record], float]:
    """Drive ``CONNECTIONS`` clients for ``seconds`` and ``needed``
    requests; returns the records and the loop's wall time."""
    records: List[Record] = []
    errors: List[BaseException] = []
    started = time.perf_counter()

    def client(index: int) -> None:
        rng = np.random.default_rng(harness.derive_seed(seed, "serve-order", index))
        # Every body once per seeded shuffle: each seed sends the same mix
        # of request sizes, so the seed moves the order, not the load.
        order: List[int] = []
        try:
            conn = _connect(port)
        except OSError as exc:
            errors.append(exc)
            return
        try:
            while (
                time.perf_counter() - started < seconds or len(records) < needed
            ):
                if not order:
                    order = rng.permutation(len(bodies)).tolist()
                body = order.pop()
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/v1/predict", bodies[body], HEADERS)
                    t1 = time.perf_counter()
                    wall = time.time()
                    response = conn.getresponse()
                    t2 = time.perf_counter()
                    data = response.read()
                    t3 = time.perf_counter()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = _connect(port)
                    now = time.perf_counter()
                    records.append((body, 0, t0, now, now, now, time.time(), b""))
                    continue
                records.append((body, response.status, t0, t1, t2, t3, wall, data))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150)
    if errors or any(thread.is_alive() for thread in threads):
        raise harness.BenchError(f"client failed: {errors}")
    return records, time.perf_counter() - started


def _correct(record: Record, expected: List[np.ndarray]) -> bool:
    body, status = record[0], record[1]
    if status != 200:
        return False
    answer = np.asarray(json.loads(record[7])["probabilities"], dtype=np.float64)
    reference = expected[body]
    return answer.shape == reference.shape and bool(
        np.all(np.abs(answer - reference) <= TOLERANCE)
    )


def _suite_quality(server: Server, state) -> Tuple[Dict[str, float], int]:
    """The server's Table-2 quality on the suite, and its failed posts
    (a failed post's windows count as not flagged)."""
    flags: List[bool] = []
    failed = 0
    conn = _connect(server.port)
    try:
        for body in state["suite_bodies"]:
            count = len(json.loads(body)["tensors"])
            conn.request("POST", "/v1/predict", body, HEADERS)
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                failed += 1
                flags += [False] * count
                continue
            probabilities = json.loads(data)["probabilities"]
            flags += [row[1] >= quality.THRESHOLD for row in probabilities]
    finally:
        conn.close()
    return quality.table2(state["suite"].labels, flags), failed


def _run_phase(ctx, state, server: Server, seconds: float, needed: int):
    records, wall = closed_loop(
        server.port, state["bodies"], seconds, needed, ctx.seed
    )
    failed = sum(not _correct(r, state["expected"]) for r in records)
    return records, wall, failed


def _inputs(state) -> str:
    return harness.inputs_digest(
        *state["bodies"], quality.suite_digest(state["suite"])
    )


def run(ctx: harness.Context, state: Dict[str, Any]) -> harness.Outcome:
    probe = ctx.probe
    setups = []
    server = None
    for launch in range(LAUNCHES):
        server = Server(state["registry"])
        ctx.exits.callback(server.stop)
        raw_s = server.start()
        setups.append(raw_s * harness.PROBE_REFERENCE_S / probe.measure())
        if launch < LAUNCHES - 1:
            server.stop()
    records, wall, failed = _run_phase(
        ctx, state, server, ctx.seconds, harness.tail_sample_count(TAIL_PERCENTILE)
    )
    peak = server.peak_rss_mb()
    table2, failed_posts = _suite_quality(server, state)
    server.stop()
    windows = sum(state["windows"][r[0]] for r in records if r[1] == 200)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "ops_per_s": len(records) / wall,
        "windows_per_s": windows / wall,
        "samples_per_s": windows / wall,
    }
    values.update(
        harness.latency_metrics([r[5] - r[2] for r in records], TAIL_PERCENTILE)
    )
    values.update(table2)
    return harness.Outcome(
        values=values,
        attempted=len(records) + len(state["suite_bodies"]),
        failed=failed + failed_posts,
        inputs=_inputs(state),
        extra_env={
            "requests": len(records),
            "connections": CONNECTIONS,
            "windows_per_request": statistics.mean(state["windows"]),
            "host_probe_ms": probe.median_ms(),
        },
    )


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _server_spans(log: Path) -> Dict[str, Dict[str, float]]:
    """Per trace id: handler span (seconds, end wall time), queue wait and
    the seconds of the batch that scored the request."""
    spans: Dict[str, Dict[str, float]] = {}
    waiting: List[str] = []
    with open(log, encoding="utf-8") as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # a line torn by the server's termination
            attrs = event.get("attrs", {})
            name = attrs.get("span") if event.get("name") == "span" else None
            trace_id = attrs.get("trace_id")
            if name == "serve.request" and trace_id:
                entry = spans.setdefault(trace_id, {})
                entry["handler"] = attrs["seconds"]
                entry["end"] = event["time_s"]
            elif name == "serve.queue_wait" and trace_id:
                spans.setdefault(trace_id, {})["queue_wait"] = attrs["seconds"]
                waiting.append(trace_id)
            elif name == "serve.batch":
                # The engine's one worker emits a batch's queue-wait spans
                # and then the batch span itself.
                for member in waiting:
                    spans[member]["batch"] = attrs["seconds"]
                waiting = []
    return spans


def _histogram_mean(snapshot: Dict[str, Any], name: str) -> float:
    state = snapshot["histograms"].get(name)
    return state["total"] / state["count"] if state and state["count"] else 0.0


def trace(ctx: harness.Context, state: Dict[str, Any]) -> harness.Outcome:
    """Half the time untraced (reference for ``trace_overhead``), half
    against a server writing ``--log-json`` spans."""
    half = ctx.seconds / 2
    plain = Server(state["registry"])
    ctx.exits.callback(plain.stop)
    plain.start()
    reference, _, failed_a = _run_phase(ctx, state, plain, half, 1)
    plain.stop()

    log = ctx.exits.enter_context(harness.work_dir("serve-log-")) / "serve.jsonl"
    traced = Server(state["registry"], log_json=log)
    ctx.exits.callback(traced.stop)
    traced.start()
    records, _, failed_b = _run_phase(ctx, state, traced, half, 1)
    snapshot = traced.metrics()
    traced.stop()

    spans = _server_spans(log)
    bench_trace = harness.Trace()
    handlers: List[float] = []
    unmatched = 0
    for body, status, t0, t1, t2, t3, wall, data in records:
        server = {}
        if status == 200:
            server = spans.get(json.loads(data)["trace_id"], {})
        if not {"handler", "end", "queue_wait", "batch"} <= set(server):
            unmatched += 1
            continue
        handlers.append(server["handler"])
        op = bench_trace.add_op("request", t3 - t0)
        bench_trace.attach(op, "serve.client.send", t1 - t0)
        headers = bench_trace.attach(op, "serve.client.headers", t2 - t1)
        # The handler span starts while the body is still arriving; the
        # part after the client finished sending nests in the header wait.
        handler = bench_trace.attach(
            headers,
            "serve.http.handler",
            min(server["handler"], server["end"] - wall),
        )
        bench_trace.attach(
            handler, "serve.engine.queue_wait", server["queue_wait"]
        )
        bench_trace.attach(handler, "serve.engine.batch", server["batch"])
        bench_trace.attach(op, "serve.client.body", t3 - t2)

    def client_ms(start: int, end: int, rows=records) -> float:
        return statistics.mean(r[end] - r[start] for r in rows) * 1000.0

    metrics = snapshot["metrics"]
    engine_request = _histogram_mean(metrics, "serve.request.seconds")
    values = {
        "serve.client.send_ms": client_ms(2, 3),
        "serve.client.headers_ms": client_ms(3, 4),
        "serve.client.body_ms": client_ms(4, 5),
        "serve.engine.request_ms": engine_request * 1000.0,
        "serve.engine.queue_wait_ms": _histogram_mean(
            metrics, "serve.queue_wait.seconds"
        ) * 1000.0,
        "serve.engine.batch_ms": _histogram_mean(metrics, "serve.batch.seconds")
        * 1000.0,
        "serve.engine.batch_windows": _histogram_mean(metrics, "serve.batch.size"),
        "serve.http.handler_ms": (statistics.mean(handlers) - engine_request)
        * 1000.0
        if handlers
        else 0.0,
        "serve.errors": float(snapshot["serve"].get("errors", 0)),
        "serve.rejected": float(snapshot["serve"].get("rejected", 0)),
        "residual_s": bench_trace.residual_per_op(),
        "trace_overhead": client_ms(2, 5) / client_ms(2, 5, reference) - 1.0,
    }
    failed = failed_a + failed_b + unmatched + (0 if bench_trace.reconciles() else 1)
    return harness.Outcome(
        values=values,
        attempted=len(reference) + len(records),
        failed=failed,
        inputs=_inputs(state),
        stage_table=bench_trace.stage_table(),
    )
