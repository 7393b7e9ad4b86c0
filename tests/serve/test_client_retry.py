"""ServeClient retry behaviour against a scripted fake transport: honors
Retry-After on 503, falls back to capped exponential backoff, and
never retries non-transient statuses."""

import json

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.serve.client import (
    RETRYABLE_STATUSES,
    ServeClient,
    ServeClientError,
    _parse_retry_after,
)


class FakeTransport:
    """Returns scripted ``(status, headers, payload)`` responses in order
    and records every request it saw."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, request, timeout_s):
        self.requests.append(request)
        if not self.responses:
            raise AssertionError("transport exhausted")
        status, headers, payload = self.responses.pop(0)
        return status, dict(headers), json.dumps(payload).encode("utf-8")


def _ok_predict():
    return 200, {}, {"probabilities": [[0.25, 0.75]], "version": "v1"}


def _client(transport, **kwargs):
    sleeps = []
    client = ServeClient(
        "http://fake",
        transport=transport,
        sleep=sleeps.append,
        **kwargs,
    )
    return client, sleeps


BATCH = np.zeros((1, 2, 2, 2), dtype=np.float32)


class TestRetryAfter:
    def test_honors_retry_after_header(self):
        transport = FakeTransport(
            [
                (503, {"Retry-After": "3"}, {"error": "QueueFullError"}),
                _ok_predict(),
            ]
        )
        client, sleeps = _client(transport, retries=2)
        result = client.predict_tensors(BATCH)
        assert result.shape == (1, 2)
        assert sleeps == [3.0]
        assert client.last_retries == 1
        assert len(transport.requests) == 2

    def test_retry_after_is_capped(self):
        transport = FakeTransport(
            [
                (503, {"Retry-After": "3600"}, {"error": "Saturated"}),
                _ok_predict(),
            ]
        )
        client, sleeps = _client(transport, retries=1, backoff_cap_s=2.0)
        client.predict_tensors(BATCH)
        assert sleeps == [2.0]

    def test_header_lookup_is_case_insensitive(self):
        transport = FakeTransport(
            [
                (503, {"retry-after": "1.5"}, {"error": "QueueFullError"}),
                _ok_predict(),
            ]
        )
        client, sleeps = _client(transport, retries=1)
        client.predict_tensors(BATCH)
        assert sleeps == [1.5]

    def test_http_date_falls_back_to_backoff(self):
        transport = FakeTransport(
            [
                (
                    503,
                    {"Retry-After": "Fri, 08 Aug 2026 00:00:00 GMT"},
                    {"error": "QueueFullError"},
                ),
                _ok_predict(),
            ]
        )
        client, sleeps = _client(transport, retries=1, backoff_base_s=0.5)
        client.predict_tensors(BATCH)
        assert sleeps == [0.5]  # backoff_base_s * 2**0

    def test_parse_retry_after(self):
        assert _parse_retry_after("2") == 2.0
        assert _parse_retry_after(" 0.5 ") == 0.5
        assert _parse_retry_after("-3") == 0.0  # clamped
        assert _parse_retry_after(None) is None
        assert _parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT") is None


class TestExponentialBackoff:
    def test_doubles_and_caps_without_header(self):
        transport = FakeTransport(
            [
                (503, {}, {"error": "Saturated"}),
                (503, {}, {"error": "Saturated"}),
                (503, {}, {"error": "Saturated"}),
                (503, {}, {"error": "Saturated"}),
                _ok_predict(),
            ]
        )
        client, sleeps = _client(
            transport, retries=4, backoff_base_s=0.25, backoff_cap_s=1.0
        )
        client.predict_tensors(BATCH)
        assert sleeps == [0.25, 0.5, 1.0, 1.0]  # doubled, then capped
        assert client.last_retries == 4

    def test_gives_up_after_retries_and_raises(self):
        transport = FakeTransport(
            [(503, {"Retry-After": "1"}, {"error": "QueueFullError"})] * 3
        )
        client, sleeps = _client(transport, retries=2)
        with pytest.raises(ServeClientError) as excinfo:
            client.predict_tensors(BATCH)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 1.0
        assert len(transport.requests) == 3  # initial + 2 retries
        assert sleeps == [1.0, 1.0]


class TestNonRetryable:
    @pytest.mark.parametrize("status", [400, 404, 429, 500])
    def test_never_retries_non_transient(self, status):
        transport = FakeTransport(
            [(status, {}, {"error": "Nope", "detail": "bad"})]
        )
        client, sleeps = _client(transport, retries=5)
        with pytest.raises(ServeClientError) as excinfo:
            client.predict_tensors(BATCH)
        assert excinfo.value.status == status
        assert len(transport.requests) == 1
        assert sleeps == []

    def test_zero_retries_raises_immediately(self):
        transport = FakeTransport([(503, {}, {"error": "QueueFullError"})])
        client, sleeps = _client(transport)  # retries=0 default
        with pytest.raises(ServeClientError):
            client.predict_tensors(BATCH)
        assert sleeps == []

    def test_retryable_statuses_documented(self):
        assert RETRYABLE_STATUSES == (503,)


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ServeError):
            ServeClient("http://fake", retries=-1)

    def test_bad_backoff_rejected(self):
        with pytest.raises(ServeError):
            ServeClient("http://fake", backoff_base_s=0.0)
