"""Minimal urllib client for the serving HTTP API.

Used by the tests, the CI smoke drive, and the serving benchmark — and
small enough to paste into any tool that needs to score clips against a
running ``repro serve`` instance without extra dependencies.

Every call opens a ``client.request`` span and sends its identity as a
W3C ``traceparent`` header, so a request traced from here shows up in
the server's JSONL log as one tree: ``client.request`` →
``serve.request`` → queue wait / batch / infer. The predict response's
``trace_id`` (also echoed in the ``traceparent`` response header) is
returned to callers via :meth:`ServeClient.last_trace_id` for feeding
``obs report --trace``.

Retries: with ``retries > 0`` the client treats 503 (queue backpressure,
an engine draining) as transient. The wait honours the server's
``Retry-After`` header when present, otherwise falls back to capped
exponential backoff (``backoff_base_s * 2**n``, clamped to
``backoff_cap_s``). Other statuses surface immediately — retrying a 400
would just re-send a malformed request.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ServeError
from repro.obs.tracing import format_traceparent, span

#: Statuses the client may transparently retry (with backoff).
RETRYABLE_STATUSES = (503,)


class ServeClientError(ServeError):
    """Non-2xx response from the serving API."""

    def __init__(
        self,
        status: int,
        payload: dict,
        retry_after: Optional[float] = None,
    ):
        self.status = status
        self.payload = payload
        self.retry_after = retry_after
        detail = payload.get("detail", "") if isinstance(payload, dict) else payload
        error = payload.get("error", "error") if isinstance(payload, dict) else "error"
        super().__init__(f"HTTP {status}: {error}: {detail}")


def _parse_retry_after(value) -> Optional[float]:
    """Delay seconds from a ``Retry-After`` header (None if unusable)."""
    if value is None:
        return None
    try:
        seconds = float(str(value).strip())
    except ValueError:
        return None  # HTTP-date form unsupported; fall back to backoff
    return max(0.0, seconds)


def _urllib_transport(
    request: urllib.request.Request, timeout_s: float
) -> Tuple[int, dict, bytes]:
    """Default transport: ``(status, headers, body)`` via urllib."""
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()


class ServeClient:
    """Blocking JSON client over ``urllib`` (no external dependencies).

    ``transport`` and ``sleep`` are injectable for tests: a transport is
    any callable ``(urllib.request.Request, timeout_s) -> (status,
    headers, body_bytes)``.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retries: int = 0,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        transport: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        if backoff_base_s <= 0 or backoff_cap_s <= 0:
            raise ServeError("backoff base/cap must be > 0")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._transport = transport or _urllib_transport
        self._sleep = sleep
        #: Trace id of the most recent request.
        self.last_trace_id = ""
        #: Retries performed by the most recent call (observability aid).
        self.last_retries = 0

    # ------------------------------------------------------------------
    def _retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        if retry_after is not None:
            return min(retry_after, self.backoff_cap_s)
        return min(self.backoff_base_s * (2.0 ** attempt), self.backoff_cap_s)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        raw: bool = False,
        accept: Optional[str] = None,
    ):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        base_headers = {"Content-Type": "application/json"} if data else {}
        if accept:
            base_headers["Accept"] = accept
        self.last_retries = 0
        with span("client.request", method=method, target=path) as record:
            base_headers["traceparent"] = format_traceparent(record.context())
            self.last_trace_id = record.trace_id
            attempt = 0
            while True:
                request = urllib.request.Request(
                    f"{self.base_url}{path}",
                    data=data,
                    method=method,
                    headers=dict(base_headers),
                )
                status, response_headers, payload_bytes = self._transport(
                    request, self.timeout_s
                )
                if 200 <= status < 300:
                    text = payload_bytes.decode("utf-8")
                    return text if raw else json.loads(text)
                try:
                    payload = json.loads(payload_bytes.decode("utf-8"))
                except Exception:
                    payload = {"error": "HTTPError", "detail": f"HTTP {status}"}
                retry_after = _parse_retry_after(
                    _header_get(response_headers, "Retry-After")
                )
                error = ServeClientError(status, payload, retry_after=retry_after)
                if status not in RETRYABLE_STATUSES or attempt >= self.retries:
                    record.attrs["retries"] = attempt
                    raise error
                self._sleep(self._retry_delay(attempt, retry_after))
                attempt += 1
                self.last_retries = attempt

    # ------------------------------------------------------------------
    def predict_tensors(self, tensors) -> np.ndarray:
        """Score feature tensors; returns the ``(N, 2)`` probability rows."""
        payload = self.predict_tensors_detail(tensors)
        return np.asarray(payload["probabilities"], dtype=np.float64)

    def predict_tensors_detail(self, tensors) -> dict:
        """Like :meth:`predict_tensors` but returns the full response
        (probabilities plus the ``version`` that scored the request)."""
        tensors = np.asarray(tensors, dtype=np.float32)
        if tensors.ndim == 3:
            tensors = tensors[None]
        return self._request(
            "POST", "/v1/predict", {"tensors": tensors.tolist()}
        )

    def predict_images(self, images: Sequence) -> np.ndarray:
        """Score raw square clip images (server runs feature extraction)."""
        payload = self._request(
            "POST",
            "/v1/predict",
            {"images": [np.asarray(image).tolist() for image in images]},
        )
        return np.asarray(payload["probabilities"], dtype=np.float64)

    def reload(self, version: Optional[str] = None, model: str = "default") -> dict:
        """Hot-swap the served model (default: newest valid version)."""
        body = {"version": version} if version is not None else {}
        return self._request("POST", f"/v1/models/{model}/reload", body)

    def rollback(self, model: str = "default") -> dict:
        """Swap back to the previously served version."""
        return self._request("POST", f"/v1/models/{model}/rollback", {})

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """The JSON metrics payload (stats + SLOs + registry snapshot)."""
        return self._request(
            "GET", "/metrics.json", accept="application/json"
        )

    def metrics_text(self) -> str:
        """The OpenMetrics text exposition scraped from ``/metrics``."""
        return self._request("GET", "/metrics", raw=True)


def _header_get(headers: dict, name: str):
    """Case-insensitive header lookup over a plain dict."""
    for key, value in headers.items():
        if key.lower() == name.lower():
            return value
    return None
