"""HTTP API end-to-end: the ISSUE's serving acceptance tests.

Real sockets throughout — a ThreadingHTTPServer on a free port, driven
through :class:`repro.serve.client.ServeClient` exactly as the CI smoke
drive and benchmark do.
"""

import contextlib
import socket
import threading
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    ServeClient,
    ServeClientError,
    make_server,
)
from repro.serve.http import ServeHandler


@contextlib.contextmanager
def serving(model, registry=None, timeout_s=30.0, **config):
    """A live server + client around ``model`` (detector or registry)."""
    engine = InferenceEngine(model, EngineConfig(**config))
    server = make_server(engine, registry, port=0, request_timeout_s=timeout_s)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServeClient(f"http://127.0.0.1:{server.port}"), engine
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
        thread.join(5)


@pytest.fixture
def registry(tmp_path, trained_detector, second_detector):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(trained_detector, "v1")
    registry.publish(second_detector, "v2")
    registry.activate("v1")
    return registry


class TestEndpoints:
    def test_health(self, registry):
        with serving(registry, registry) as (client, _):
            health = client.health()
        assert health["status"] == "ok"
        assert health["model"] == "default"
        assert health["version"] == "v1"

    def test_health_without_model_is_503(self, tmp_path):
        empty = ModelRegistry(tmp_path / "empty")
        with serving(empty, empty) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client.health()
        assert exc.value.status == 503

    def test_predict_tensors(self, registry, trained_detector, feature_batch):
        offline = trained_detector.predict_proba_tensors(feature_batch)
        with serving(registry, registry) as (client, _):
            probs = client.predict_tensors(feature_batch)
        np.testing.assert_allclose(probs, offline, rtol=0, atol=1e-12)

    def test_predict_images(self, registry, tiny_data, trained_detector):
        _, test = tiny_data
        pixel_nm = trained_detector.config.feature.pixel_nm
        images = [clip.rasterize(resolution=pixel_nm) for clip in test.clips[:3]]
        offline = trained_detector.predict_proba_tensors(
            test.features(trained_detector.extractor)[:3]
        )
        with serving(registry, registry) as (client, _):
            probs = client.predict_images(images)
        np.testing.assert_allclose(probs, offline, rtol=0, atol=1e-12)

    def test_metrics_shape(self, registry, feature_batch):
        with serving(registry, registry) as (client, _):
            client.predict_tensors(feature_batch[:2])
            metrics = client.metrics()
        assert metrics["serve"]["requests"] == 1
        assert metrics["serve"]["samples"] == 2
        assert "serve.request.seconds" in metrics["metrics"]["histograms"]
        assert "serve.batch.size" in metrics["metrics"]["histograms"]


class TestTransport:
    def test_accepted_socket_disables_nagle(self, registry, monkeypatch):
        # Headers and body go out as two sends; with Nagle on, the body
        # waits for the client's delayed ACK of the headers.
        seen = []
        setup = ServeHandler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(ServeHandler, "setup", recording_setup)
        with serving(registry, registry) as (client, _):
            client.health()
        assert seen and all(seen)


class TestErrorMapping:
    def test_unknown_path_404(self, registry):
        with serving(registry, registry) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client._request("GET", "/nope")
            assert exc.value.status == 404
            with pytest.raises(ServeClientError) as exc:
                client._request("POST", "/v1/other")
            assert exc.value.status == 404

    def test_predict_body_validation_400(self, registry, feature_batch):
        sample = feature_batch[0].tolist()
        with serving(registry, registry) as (client, _):
            for body in (
                {},
                {"tensors": [sample], "images": [[[0.0]]]},
                {"tensors": "nonsense"},
            ):
                with pytest.raises(ServeClientError) as exc:
                    client._request("POST", "/v1/predict", body)
                assert exc.value.status == 400

    def test_malformed_json_400(self, registry):
        import urllib.error
        import urllib.request

        with serving(registry, registry) as (client, _):
            request = urllib.request.Request(
                f"{client.base_url}/v1/predict",
                data=b"{not json",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=10)
            assert exc.value.code == 400

    def test_negative_content_length_400(self, registry):
        with serving(registry, registry) as (client, _):
            address = urlsplit(client.base_url)
            with socket.create_connection(
                (address.hostname, address.port), timeout=5
            ) as conn:
                # Keep-alive: the server must answer without waiting for
                # the client to close its half of the connection.
                conn.sendall(
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Length: -1\r\n"
                    b"\r\n"
                )
                with conn.makefile("rb") as reply:
                    status_line = reply.readline()
        assert status_line.split()[1] == b"400"

    def test_unknown_model_name_404(self, registry):
        with serving(registry, registry) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client.reload(model="other")
            assert exc.value.status == 404

    def test_unknown_version_404(self, registry):
        with serving(registry, registry) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client.reload(version="v99")
            assert exc.value.status == 404

    def test_reload_without_registry_400(self, trained_detector):
        with serving(trained_detector) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client.reload()
            assert exc.value.status == 400

    def test_rollback_without_history_404(self, registry):
        with serving(registry, registry) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client.rollback()
            assert exc.value.status == 404


class TestAcceptanceConcurrency:
    def test_200_concurrent_requests_match_offline(
        self, registry, trained_detector, feature_batch
    ):
        """ISSUE acceptance: 200 requests from 8 threads, atol=1e-12,
        mean dynamic batch size > 1, clean drain (no drops/duplicates)."""
        offline = trained_detector.predict_proba_tensors(feature_batch)
        n = feature_batch.shape[0]
        total, threads_n = 200, 8
        per_thread = total // threads_n
        results = [None] * total
        errors = []
        barrier = threading.Barrier(threads_n)

        with serving(registry, registry, max_batch=32) as (client, engine):

            def worker(slot):
                local = ServeClient(client.base_url)
                try:
                    barrier.wait()
                    for j in range(per_thread):
                        i = slot * per_thread + j
                        results[i] = local.predict_tensors(feature_batch[i % n])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(s,))
                for s in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors
            metrics = client.metrics()

        # Every request answered exactly once, with offline-grade numbers.
        assert all(r is not None for r in results)
        for i, rows in enumerate(results):
            np.testing.assert_allclose(
                rows, offline[i % n : i % n + 1], rtol=0, atol=1e-12
            )
        assert metrics["serve"]["requests"] == total
        assert metrics["serve"]["samples"] == total
        assert metrics["serve"]["errors"] == 0
        assert metrics["serve"]["rejected"] == 0
        assert metrics["serve"]["mean_batch_size"] > 1.0
        # Clean drain: the context manager closed the engine with
        # drain=True; a dropped response would have failed a future above,
        # a duplicate would break the requests == 200 accounting.
        assert engine.queue_depth == 0
        assert engine.closed


class TestAcceptanceHotSwap:
    def test_reload_mid_traffic_zero_failures(
        self, registry, trained_detector, second_detector, feature_batch
    ):
        """ISSUE acceptance: hot swap under load, no failed requests."""
        offline = {
            "v1": trained_detector.predict_proba_tensors(feature_batch),
            "v2": second_detector.predict_proba_tensors(feature_batch),
        }
        n = feature_batch.shape[0]
        errors = []
        done = threading.Event()

        with serving(registry, registry, max_batch=16) as (client, _):

            def pound(slot):
                local = ServeClient(client.base_url)
                try:
                    for j in range(25):
                        i = (slot * 25 + j) % n
                        detail = local.predict_tensors_detail(feature_batch[i])
                        rows = np.asarray(detail["probabilities"])
                        # Every answer comes wholly from one model version,
                        # and names the version that scored it.
                        matches = [
                            version
                            for version, probs in offline.items()
                            if np.allclose(
                                rows, probs[i : i + 1], rtol=0, atol=1e-9
                            )
                        ]
                        assert matches, f"request {i} matched neither model"
                        assert matches == [detail["version"]], (i, detail)
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=pound, args=(s,)) for s in range(4)
            ]
            for thread in threads:
                thread.start()
            # Swap while the pounding threads are mid-flight.
            swapped = client.reload(version="v2")
            for thread in threads:
                thread.join()
            done.set()

            assert not errors
            assert swapped == {
            "model": "default",
            "version": "v2",
            "previous": "v1",
            "infer_precision": "float64",
        }
            assert client.health()["version"] == "v2"

            # Rollback restores v1 for subsequent traffic.
            rolled = client.rollback()
            assert rolled == {"model": "default", "version": "v1"}
            rows = client.predict_tensors(feature_batch[0])
            np.testing.assert_allclose(
                rows, offline["v1"][0:1], rtol=0, atol=1e-12
            )

    def test_corrupt_reload_rejected_old_model_serves(
        self, registry, trained_detector, feature_batch
    ):
        """ISSUE acceptance: corrupt checkpoint -> CheckpointCorruptError
        surfaced as 409; the active model never stops serving."""
        (registry.directory / "model-broken.ckpt.npz").write_bytes(
            b"\x00truncated nonsense"
        )
        offline = trained_detector.predict_proba_tensors(feature_batch[:2])
        with serving(registry, registry) as (client, _):
            with pytest.raises(ServeClientError) as exc:
                client.reload(version="broken")
            assert exc.value.status == 409
            assert exc.value.payload["error"] == "CheckpointCorruptError"
            # Old model still active and scoring.
            assert client.health()["version"] == "v1"
            rows = client.predict_tensors(feature_batch[:2])
        np.testing.assert_allclose(rows, offline, rtol=0, atol=1e-12)
