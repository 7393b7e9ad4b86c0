"""InferenceEngine: dynamic batching, backpressure, drain, fan-out."""

import threading

import numpy as np
import pytest

from repro.core.detector import HotspotDetector
from repro.exceptions import EngineClosedError, QueueFullError, ServeError
from repro.serve import EngineConfig, InferenceEngine, ModelRegistry


def scratch_detector(trained):
    """An independent copy safe to monkey with (shared fixture untouched)."""
    return HotspotDetector.from_state(trained.to_state())


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_batch": -1},
            {"max_queue": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ServeError):
            EngineConfig(**kwargs)

    def test_rejects_bad_model(self):
        with pytest.raises(ServeError):
            InferenceEngine(object())


class TestScoring:
    def test_matches_offline_bitwise(self, trained_detector, feature_batch):
        offline = trained_detector.predict_proba_tensors(feature_batch)
        with InferenceEngine(trained_detector) as engine:
            served = engine.predict(feature_batch)
        assert np.array_equal(served, offline)

    def test_single_tensor_promoted(self, trained_detector, feature_batch):
        with InferenceEngine(trained_detector) as engine:
            probs = engine.predict(feature_batch[0])
        assert probs.shape == (1, 2)

    def test_empty_request(self, trained_detector, feature_batch):
        empty = feature_batch[:0]
        with InferenceEngine(trained_detector) as engine:
            probs = engine.predict(empty)
        assert probs.shape == (0, 2)

    def test_bad_shape_rejected_at_submit(self, trained_detector):
        with InferenceEngine(trained_detector) as engine:
            with pytest.raises(ServeError):
                engine.submit(np.zeros((2, 3, 3, 3), dtype=np.float32))

    def test_static_model_version(self, trained_detector):
        with InferenceEngine(trained_detector) as engine:
            assert engine.model_version == "static"


class GatedDetector:
    """Blocks the first batch until released, so queues can be staged.

    Gates a scratch copy of ``trained``, or ``trained`` itself with
    ``copy=False`` (a registry's freshly loaded detector). ``batches``
    records the sample count of every batch scored, in order.
    """

    def __init__(self, trained, copy=True):
        self.detector = scratch_detector(trained) if copy else trained
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches = []
        original = self.detector.predict_proba_tensors

        def gated(tensors):
            self.batches.append(tensors.shape[0])
            self.entered.set()
            if not self.release.wait(10):  # pragma: no cover - deadlock guard
                raise RuntimeError("gate never released")
            return original(tensors)

        self.detector.predict_proba_tensors = gated


class TestBatching:
    def test_starts_one_worker_thread(self, trained_detector):
        before = set(threading.enumerate())
        engine = InferenceEngine(trained_detector)
        started = set(threading.enumerate()) - before
        engine.close()
        assert [thread.name for thread in started] == ["serve-worker"]

    def test_concurrent_requests_share_batches(
        self, trained_detector, feature_batch, fresh_telemetry
    ):
        offline = trained_detector.predict_proba_tensors(feature_batch)
        n = feature_batch.shape[0]
        gate = GatedDetector(trained_detector)
        engine = InferenceEngine(gate.detector, EngineConfig(max_batch=16))
        held = engine.submit(feature_batch[:1])
        assert gate.entered.wait(10)
        queued = [engine.submit(feature_batch[i % n]) for i in range(6)]
        gate.release.set()
        results = [future.result(10) for future in queued]
        held.result(10)
        engine.close()
        # The six requests queued while the worker was held run as one
        # batch. Its composition differs from the one-shot offline batch,
        # which perturbs BLAS summation order; the serving contract is
        # agreement within 1e-12, not bitwise identity.
        assert gate.batches == [1, 6]
        for i, rows in enumerate(results):
            np.testing.assert_allclose(
                rows, offline[i % n : i % n + 1], rtol=0, atol=1e-12
            )
        stats = engine.stats()
        assert stats["requests"] == 7
        assert stats["batches"] == 2

    def test_request_that_would_overflow_starts_next_batch(
        self, trained_detector, feature_batch
    ):
        gate = GatedDetector(trained_detector)
        engine = InferenceEngine(gate.detector, EngineConfig(max_batch=4))
        held = engine.submit(feature_batch[:1])
        assert gate.entered.wait(10)
        # 2 + 1 fit under the cap; the next 2 would make 5.
        sizes = [2, 1, 2]
        queued = [engine.submit(feature_batch[:size]) for size in sizes]
        gate.release.set()
        rows = [future.result(10) for future in [held] + queued]
        engine.close()
        assert [r.shape[0] for r in rows] == [1] + sizes
        assert gate.batches == [1, 3, 2]

    def test_requests_never_split(self, trained_detector, feature_batch, fresh_telemetry):
        engine = InferenceEngine(trained_detector, EngineConfig(max_batch=4))
        futures = [engine.submit(feature_batch[:3]) for _ in range(4)]
        rows = [f.result(10) for f in futures]
        engine.close()
        assert all(r.shape == (3, 2) for r in rows)
        # 3-sample requests under a 4-sample cap can never share a batch.
        sizes = fresh_telemetry.histogram("serve.batch.size")
        assert sizes.count == 4
        assert sizes.percentile(100) == 3.0

    def test_oversized_request_runs_alone(
        self, trained_detector, feature_batch, fresh_telemetry
    ):
        engine = InferenceEngine(trained_detector, EngineConfig(max_batch=4))
        probs = engine.predict(feature_batch[:6])
        engine.close()
        assert probs.shape == (6, 2)
        assert engine.stats()["batches"] == 1


class TestBackpressure:
    def test_queue_full_rejects(self, trained_detector, feature_batch, fresh_telemetry):
        gate = GatedDetector(trained_detector)
        engine = InferenceEngine(
            gate.detector,
            EngineConfig(max_batch=1, max_queue=2),
        )
        one = feature_batch[:1]
        first = engine.submit(one)
        assert gate.entered.wait(10)
        queued = [engine.submit(one), engine.submit(one)]
        with pytest.raises(QueueFullError):
            engine.submit(one)
        assert fresh_telemetry.counter("serve.rejected").value == 1
        gate.release.set()
        for future in [first] + queued:
            assert future.result(10).shape == (1, 2)
        engine.close()


class TestHotSwap:
    def test_future_names_the_version_that_scored_it(
        self, tmp_path, trained_detector, second_detector, feature_batch
    ):
        registry = ModelRegistry(tmp_path / "models")
        registry.publish(trained_detector, "v1")
        registry.publish(second_detector, "v2")
        gate = GatedDetector(registry.activate("v1").detector, copy=False)
        engine = InferenceEngine(
            registry, EngineConfig(max_batch=1)
        )
        scored_by_v1 = engine.submit(feature_batch[:1])
        assert gate.entered.wait(10)
        # v2 goes live while v1 is still scoring the first batch.
        registry.activate("v2")
        gate.release.set()
        rows = scored_by_v1.result(10)
        assert scored_by_v1.version == "v1"
        assert np.array_equal(
            rows, trained_detector.predict_proba_tensors(feature_batch[:1])
        )
        scored_by_v2 = engine.submit(feature_batch[:1])
        scored_by_v2.result(10)
        assert scored_by_v2.version == "v2"
        engine.close()


class TestLifecycle:
    def test_close_drains_queue(self, trained_detector, feature_batch):
        gate = GatedDetector(trained_detector)
        engine = InferenceEngine(
            gate.detector,
            EngineConfig(max_batch=1),
        )
        futures = [engine.submit(feature_batch[:1]) for _ in range(6)]
        assert gate.entered.wait(10)
        closer = threading.Thread(target=engine.close)
        closer.start()
        gate.release.set()
        closer.join(15)
        assert not closer.is_alive()
        assert all(f.result(0).shape == (1, 2) for f in futures)

    def test_close_without_drain_fails_pending(self, trained_detector, feature_batch):
        gate = GatedDetector(trained_detector)
        engine = InferenceEngine(
            gate.detector,
            EngineConfig(max_batch=1),
        )
        in_flight = engine.submit(feature_batch[:1])
        assert gate.entered.wait(10)
        pending = [engine.submit(feature_batch[:1]) for _ in range(3)]
        gate.release.set()
        engine.close(drain=False)
        # The batch already on the worker completes; queued ones fail.
        assert in_flight.result(0).shape == (1, 2)
        for future in pending:
            with pytest.raises(EngineClosedError):
                future.result(0)

    def test_submit_after_close(self, trained_detector, feature_batch):
        engine = InferenceEngine(trained_detector)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(feature_batch[:1])


class TestFailureIsolation:
    def test_batch_exception_fans_out_and_engine_survives(
        self, trained_detector, feature_batch, fresh_telemetry
    ):
        detector = scratch_detector(trained_detector)
        original = detector.predict_proba_tensors
        failing = threading.Event()
        failing.set()

        def flaky(tensors):
            if failing.is_set():
                raise RuntimeError("transient scoring failure")
            return original(tensors)

        detector.predict_proba_tensors = flaky
        engine = InferenceEngine(detector, EngineConfig(max_batch=8))
        doomed = [engine.submit(feature_batch[:1]) for _ in range(3)]
        for future in doomed:
            with pytest.raises(RuntimeError, match="transient"):
                future.result(10)
        failing.clear()
        assert fresh_telemetry.counter("serve.errors").value == 3
        # Same engine keeps serving after the failed batch.
        probs = engine.predict(feature_batch[:2])
        engine.close()
        assert probs.shape == (2, 2)
        assert np.array_equal(
            probs, trained_detector.predict_proba_tensors(feature_batch[:2])
        )
