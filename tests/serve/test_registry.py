"""ModelRegistry: publish, audit, activate, rollback, corruption handling."""

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    ModelNotFoundError,
    ServeError,
)
from repro.nn.serialize import write_checkpoint
from repro.serve import InferenceEngine, ModelRegistry


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "models")


@pytest.fixture
def published(registry, trained_detector):
    registry.publish(trained_detector, "v1")
    return registry


class TestPublish:
    def test_round_trip_is_bitwise(self, published, trained_detector, feature_batch):
        loaded = published.load("v1")
        assert np.array_equal(
            loaded.predict_proba_tensors(feature_batch),
            trained_detector.predict_proba_tensors(feature_batch),
        )

    def test_versions_peek_metadata(self, published):
        (entry,) = published.versions()
        assert entry.version == "v1"
        assert entry.valid
        assert entry.parameter_count > 0
        assert entry.path.name == "model-v1.ckpt.npz"

    def test_refuses_overwrite(self, published, trained_detector):
        with pytest.raises(ServeError, match="already published"):
            published.publish(trained_detector, "v1")

    @pytest.mark.parametrize("version", ["", "-v1", "a/b", "v 1", ".."])
    def test_bad_version_names(self, registry, trained_detector, version):
        with pytest.raises(ServeError):
            registry.publish(trained_detector, version)

    def test_bad_model_name(self, tmp_path):
        with pytest.raises(ServeError):
            ModelRegistry(tmp_path, name="a/b")


class TestAudit:
    def test_corrupt_entry_flagged_not_raised(self, published):
        (published.directory / "model-bad.ckpt.npz").write_bytes(b"garbage")
        by_version = {e.version: e for e in published.versions()}
        assert by_version["v1"].valid
        assert not by_version["bad"].valid
        assert by_version["bad"].error

    def test_wrong_kind_flagged(self, published):
        write_checkpoint(
            published.directory / "model-alien.ckpt.npz",
            {"kind": "optimizer-state", "weights": [np.zeros(3)]},
        )
        by_version = {e.version: e for e in published.versions()}
        assert not by_version["alien"].valid
        assert "kind" in by_version["alien"].error

    def test_latest_skips_invalid(self, published):
        (published.directory / "model-zz.ckpt.npz").write_bytes(b"garbage")
        assert published.latest_version() == "v1"

    def test_empty_registry(self, registry):
        assert registry.versions() == []
        with pytest.raises(ModelNotFoundError):
            registry.latest_version()


class TestActivate:
    def test_activate_latest_by_default(self, published, second_detector):
        published.publish(second_detector, "v2")
        loaded = published.activate()
        assert loaded.version == "v2"
        assert published.current.version == "v2"
        assert published.has_current

    def test_no_active_model(self, registry):
        assert not registry.has_current
        with pytest.raises(ModelNotFoundError):
            registry.current

    def test_load_missing_version(self, published):
        with pytest.raises(ModelNotFoundError):
            published.load("v9")

    def test_corrupt_candidate_keeps_old_model_serving(
        self, published, feature_batch
    ):
        active = published.activate("v1")
        (published.directory / "model-v2.ckpt.npz").write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointCorruptError):
            published.activate("v2")
        assert published.current is active
        probs = published.current.detector.predict_proba_tensors(feature_batch)
        assert probs.shape == (feature_batch.shape[0], 2)

    def test_swap_counter(self, published, fresh_telemetry):
        published.activate("v1")
        assert fresh_telemetry.counter("serve.model.swaps").value == 1

    @pytest.mark.parametrize("backend", ["scipy", "matmul"])
    def test_checkpoint_with_retired_dct_backend_activates(
        self, registry, trained_detector, tiny_data, backend
    ):
        # Checkpoints written while FeatureTensorConfig had a dct_backend
        # field carry it in their stored config; they must still serve.
        state = trained_detector.to_state()
        state["config"]["feature"]["dct_backend"] = backend
        write_checkpoint(registry.path_for("v0"), state)
        loaded = registry.activate("v0")
        assert loaded.version == "v0"
        assert loaded.detector.config == trained_detector.config
        _, test = tiny_data
        assert np.array_equal(
            loaded.detector.predict_proba(test),
            trained_detector.predict_proba(test),
        )


class TestRollback:
    def test_rollback_swaps_back_and_forth(self, published, second_detector):
        published.publish(second_detector, "v2")
        published.activate("v1")
        published.activate("v2")
        assert published.rollback().version == "v1"
        assert published.rollback().version == "v2"

    def test_rollback_without_history(self, published):
        published.activate("v1")
        with pytest.raises(ModelNotFoundError):
            published.rollback()


class TestEngineIntegration:
    def test_engine_follows_activation(
        self, published, second_detector, trained_detector, feature_batch
    ):
        published.publish(second_detector, "v2")
        published.activate("v1")
        with InferenceEngine(published) as engine:
            assert engine.model_version == "v1"
            first = engine.predict(feature_batch)
            published.activate("v2")
            assert engine.model_version == "v2"
            second = engine.predict(feature_batch)
        assert np.array_equal(
            first, trained_detector.predict_proba_tensors(feature_batch)
        )
        assert np.array_equal(
            second, second_detector.predict_proba_tensors(feature_batch)
        )
        # Different seeds really do produce different models.
        assert not np.array_equal(first, second)

    def test_engine_without_activation(self, registry, feature_batch):
        with InferenceEngine(registry) as engine:
            with pytest.raises(ModelNotFoundError):
                engine.predict(feature_batch[:1])
