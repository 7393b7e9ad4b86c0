"""Stdlib-only JSON HTTP front end for the inference engine.

Endpoints (all JSON in/out):

- ``POST /v1/predict`` — body ``{"tensors": [[...]]}`` (one or more
  ``(n, n, k)`` feature tensors) **or** ``{"images": [[...]]}`` (square
  rasterised clip images; the engine runs the active model's
  ``FeatureTensorExtractor``). Responds
  ``{"probabilities": [[p_non, p_hot], ...], "model": ..., "version": ...}``.
- ``POST /v1/models/<name>/reload`` — body optional
  ``{"version": "..."}`` (default: newest valid in the registry).
  Atomic hot swap; a corrupt candidate gets a typed error back and the
  old model keeps serving.
- ``POST /v1/models/<name>/rollback`` — swap back to the previously
  active version.
- ``GET /healthz`` — liveness + active model.
- ``GET /metrics`` — OpenMetrics/Prometheus text exposition of the
  ``repro.obs`` registry (content-negotiated: ``Accept:
  application/json`` gets the JSON payload instead).
- ``GET /metrics.json`` — the JSON form unconditionally: full registry
  snapshot plus derived serving stats (mean dynamic batch size,
  rejects, errors) and current SLO burn status.

Error mapping: malformed input 400, unknown model/version 404,
checkpoint corruption/schema mismatch 409 (old model still serving),
backpressure 503 with ``Retry-After``, scoring timeout 504.

Tracing: every request honours an inbound W3C ``traceparent`` header
(the handler's ``serve.request`` span joins that trace) and the predict
response carries a ``traceparent`` header naming the handler span, so
callers can correlate their logs with ``obs report --trace``.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly the concurrency the engine's micro-batcher
feeds on: simultaneous handler threads block on their futures while the
worker scores them as one batch.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import (
    CheckpointError,
    EngineClosedError,
    FeatureError,
    ModelNotFoundError,
    QueueFullError,
    ReproError,
    ServeError,
)
from repro.obs import emit, get_registry
from repro.obs.export import OPENMETRICS_CONTENT_TYPE, render_openmetrics
from repro.obs.tracing import (
    format_traceparent,
    parse_traceparent,
    span,
    use_trace,
)
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry

#: Largest accepted request body (64 MiB of JSON tensors).
MAX_BODY_BYTES = 64 * 1024 * 1024


class HotspotHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the engine/registry for its handlers."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        engine: InferenceEngine,
        registry: Optional[ModelRegistry] = None,
        request_timeout_s: float = 30.0,
    ):
        super().__init__(address, ServeHandler)
        self.engine = engine
        self.registry = registry
        self.request_timeout_s = request_timeout_s

    @property
    def port(self) -> int:
        return self.server_address[1]


class ServeHandler(BaseHTTPRequestHandler):
    server: HotspotHTTPServer  # narrowed for readability

    # Keep-alive so load generators and the client can reuse sockets.
    protocol_version = "HTTP/1.1"
    # A response goes out as two sends (headers, then body). Without
    # TCP_NODELAY the body waits for the client's delayed ACK of the
    # headers, ~40 ms per request on a keep-alive connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        emit("serve.http", level="debug", line=format % args)

    def _send_json(
        self,
        status: int,
        payload: dict,
        retry_after_s: Optional[int] = None,
        trace=None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(retry_after_s))
        if trace is not None:
            self.send_header("traceparent", format_traceparent(trace.context()))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, exc: BaseException) -> None:
        get_registry().counter("serve.http.errors").inc()
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        # A 503 (backpressure, draining) is transient: say when to retry.
        self._send_json(
            status, payload, retry_after_s=1 if status == 503 else None
        )

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServeError(f"request body {length} bytes exceeds {MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"malformed JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        """Run one route, translating typed errors to status codes.

        An inbound ``traceparent`` header is installed as the ambient
        trace context for the whole route, so every span the handler
        (and, via request capture, the engine workers) opens joins the
        caller's trace. Absent/invalid headers yield ``None`` and spans
        start a fresh trace.
        """
        try:
            with use_trace(parse_traceparent(self.headers.get("traceparent"))):
                handler()
        except QueueFullError as exc:
            self._send_error_json(503, exc)
        except EngineClosedError as exc:
            self._send_error_json(503, exc)
        except ModelNotFoundError as exc:
            self._send_error_json(404, exc)
        except CheckpointError as exc:
            # Bad candidate checkpoint: the previously active model is
            # untouched and still serving — hence 409, not 500.
            self._send_error_json(409, exc)
        except FutureTimeoutError as exc:
            self._send_error_json(504, exc)
        except (ServeError, FeatureError, ValueError, TypeError) as exc:
            self._send_error_json(400, exc)
        except ReproError as exc:
            self._send_error_json(500, exc)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._dispatch(self._handle_health)
        elif self.path == "/metrics":
            self._dispatch(self._handle_metrics)
        elif self.path == "/metrics.json":
            self._dispatch(self._handle_metrics_json)
        else:
            self._send_json(404, {"error": "NotFound", "detail": self.path})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/v1/predict":
            self._dispatch(self._handle_predict)
            return
        parts = [p for p in self.path.split("/") if p]
        if len(parts) == 4 and parts[:2] == ["v1", "models"]:
            name, action = parts[2], parts[3]
            if action == "reload":
                self._dispatch(lambda: self._handle_reload(name))
                return
            if action == "rollback":
                self._dispatch(lambda: self._handle_rollback(name))
                return
        self._send_json(404, {"error": "NotFound", "detail": self.path})

    # ------------------------------------------------------------------
    def _handle_health(self) -> None:
        engine = self.server.engine
        try:
            version = engine.model_version
        except ModelNotFoundError as exc:
            self._send_error_json(503, exc)
            return
        self._send_json(
            200,
            {
                "status": "ok",
                "model": self.server.registry.name if self.server.registry else "static",
                "version": version,
                "infer_precision": engine.infer_precision,
                "queue_depth": engine.queue_depth,
            },
        )

    def _refresh_slos(self) -> list:
        tracker = self.server.engine.slo_tracker
        if tracker is None:
            return []
        return [
            {
                "objective": status.objective.name,
                "target": status.objective.target,
                "burning": status.burning,
                "worst_burn": status.worst_burn,
                "burn_rates": {
                    f"{window:g}s": status.burn_rates[window]
                    for window in status.objective.windows_s
                },
            }
            for status in tracker.evaluate()
        ]

    def _metrics_payload(self) -> dict:
        # Evaluating SLOs before the snapshot keeps the exported burn
        # gauges as fresh as the scrape that reads them.
        slos = self._refresh_slos()
        return {
            "serve": self.server.engine.stats(),
            "slo": slos,
            "metrics": get_registry().snapshot(),
        }

    def _handle_metrics(self) -> None:
        accept = self.headers.get("Accept", "")
        if "application/json" in accept:
            self._handle_metrics_json()
            return
        payload = self._metrics_payload()
        self._send_text(
            200,
            render_openmetrics(payload["metrics"]),
            OPENMETRICS_CONTENT_TYPE,
        )

    def _handle_metrics_json(self) -> None:
        self._send_json(200, self._metrics_payload())

    def _handle_predict(self) -> None:
        engine = self.server.engine
        with span("serve.request", thread=threading.get_ident()) as record:
            payload = self._read_json_body()
            tensors = payload.get("tensors")
            images = payload.get("images")
            if (tensors is None) == (images is None):
                raise ServeError(
                    "body must have exactly one of 'tensors' or 'images'"
                )
            if tensors is not None:
                future = engine.submit(np.asarray(tensors, dtype=np.float32))
            else:
                future = engine.submit_images(images)
            probabilities = future.result(self.server.request_timeout_s)
        self._send_json(
            200,
            {
                "probabilities": probabilities.tolist(),
                "count": int(probabilities.shape[0]),
                "model": self.server.registry.name if self.server.registry else "static",
                # The version that scored these rows, which a hot swap
                # may already have replaced as the active one.
                "version": future.version,
                "trace_id": record.trace_id,
            },
            trace=record,
        )

    def _require_registry(self, name: str) -> ModelRegistry:
        registry = self.server.registry
        if registry is None:
            raise ServeError("server is running a fixed model; no registry attached")
        if name != registry.name:
            raise ModelNotFoundError(f"no model named {name!r} (serving {registry.name!r})")
        return registry

    def _handle_reload(self, name: str) -> None:
        registry = self._require_registry(name)
        payload = self._read_json_body()
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise ServeError(f"'version' must be a string, got {type(version).__name__}")
        previous = registry.current.version if registry.has_current else None
        loaded = registry.activate(version)
        self._send_json(
            200,
            {
                "model": registry.name,
                "version": loaded.version,
                "previous": previous,
                "infer_precision": loaded.detector.config.infer_precision,
            },
        )

    def _handle_rollback(self, name: str) -> None:
        registry = self._require_registry(name)
        rolled = registry.rollback()
        self._send_json(200, {"model": registry.name, "version": rolled.version})


def make_server(
    engine: InferenceEngine,
    registry: Optional[ModelRegistry] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    request_timeout_s: float = 30.0,
) -> HotspotHTTPServer:
    """Bind a serving HTTP server (``port=0`` picks a free port)."""
    server = HotspotHTTPServer(
        (host, port), engine, registry, request_timeout_s=request_timeout_s
    )
    emit("serve.listening", host=host, port=server.port)
    return server
