"""Quantized serving: publish -> checkpoint -> registry, gated.

The low-precision serving chain is only trustworthy if the int8 bytes
are identical at every hop (what the parity report described is what
the registry's model scores), if unproven checkpoints are refused at
activation time, and if none of it perturbs the default float64 path.
Each link is pinned here; the end-to-end drive lives in
``scripts/ci_quant_smoke.py``.
"""

import numpy as np
import pytest

from repro.core.detector import HotspotDetector
from repro.core.parity import ParityConfig, check_parity
from repro.exceptions import ParityError, ServeError
from repro.nn.serialize import read_checkpoint
from repro.serve import ModelRegistry


@pytest.fixture()
def quant_registry(tmp_path, trained_detector, feature_batch):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(
        trained_detector,
        "v-quant",
        quantize=("float32", "float16", "int8"),
        calibration=feature_batch,
    )
    return registry


class TestQuantizedPublish:
    def test_checkpoint_carries_payload_and_parity(self, quant_registry):
        state = read_checkpoint(quant_registry.path_for("v-quant"))
        quant = state["quant"]
        assert quant["params"], "int8 payload missing"
        assert set(quant["parity"]) == {"float32", "float16", "int8"}
        for report in quant["parity"].values():
            assert report["flag_jaccard"] >= 0.99

    def test_quantize_requires_calibration(self, tmp_path, trained_detector):
        registry = ModelRegistry(tmp_path / "m")
        with pytest.raises(ServeError, match="calibration"):
            registry.publish(trained_detector, "v1", quantize="int8")

    def test_quantize_rejects_unknown_precision(
        self, tmp_path, trained_detector, feature_batch
    ):
        registry = ModelRegistry(tmp_path / "m")
        with pytest.raises(ServeError, match="int4"):
            registry.publish(
                trained_detector, "v1", quantize="int4",
                calibration=feature_batch,
            )

    def test_float64_scoring_unchanged_by_quantized_publish(
        self, quant_registry, trained_detector, feature_batch
    ):
        probs = trained_detector.predict_proba_tensors(feature_batch)
        loaded = quant_registry.load_model("v-quant")
        assert np.array_equal(
            loaded.detector.predict_proba_tensors(feature_batch), probs
        )


class TestBitwiseRoundTrip:
    def test_checkpoint_round_trip_is_bitwise(
        self, quant_registry, trained_detector, feature_batch
    ):
        # One int8 answer, two transports: the local attach and the
        # checkpoint reload must agree bit for bit.
        local = trained_detector.predict_proba_tensors(
            feature_batch, precision="int8"
        )
        reloaded = HotspotDetector.from_state(
            read_checkpoint(quant_registry.path_for("v-quant"))
        )
        assert np.array_equal(
            reloaded.predict_proba_tensors(feature_batch, precision="int8"),
            local,
        )


class TestParityGate:
    def test_registry_override_activates_quantized(
        self, tmp_path, quant_registry, trained_detector, feature_batch
    ):
        int8_registry = ModelRegistry(
            quant_registry.directory, infer_precision="int8"
        )
        loaded = int8_registry.load_model("v-quant")
        assert loaded.detector.config.infer_precision == "int8"
        assert np.array_equal(
            loaded.detector.predict_proba_tensors(feature_batch),
            trained_detector.predict_proba_tensors(
                feature_batch, precision="int8"
            ),
        )

    def test_unproven_checkpoint_refused(self, tmp_path, trained_detector):
        registry = ModelRegistry(tmp_path / "m", infer_precision="int8")
        registry.publish(trained_detector, "v-plain")
        with pytest.raises(ParityError, match="parity"):
            registry.load_model("v-plain")

    def test_failed_report_is_stored_and_refused(
        self, tmp_path, trained_detector, feature_batch
    ):
        # An impossible tolerance makes the gate's failing branch
        # observable: publish records the failed report, activation
        # refuses it, and the error carries the report for operators.
        registry = ModelRegistry(tmp_path / "m")
        registry.publish(
            trained_detector,
            "v-strict",
            quantize="int8",
            calibration=feature_batch,
            parity_config=ParityConfig(max_prob_delta=1e-12),
        )
        state = read_checkpoint(registry.path_for("v-strict"))
        report = state["quant"]["parity"]["int8"]
        assert report["passed"] is False
        with pytest.raises(ParityError) as info:
            ModelRegistry(
                tmp_path / "m", infer_precision="int8"
            ).load_model("v-strict")
        assert info.value.report is not None
        assert info.value.report.passed is False

    def test_registry_rejects_bad_precision(self, tmp_path):
        with pytest.raises(ServeError, match="precision"):
            ModelRegistry(tmp_path / "m", infer_precision="int4")

    def test_check_parity_rejects_float64(
        self, trained_detector, feature_batch
    ):
        with pytest.raises(ParityError, match="float64"):
            check_parity(trained_detector, feature_batch, precision="float64")


class TestBackCompat:
    def test_config_dict_without_precision_defaults_float64(
        self, quant_registry
    ):
        state = read_checkpoint(quant_registry.path_for("v-quant"))
        assert state["config"]["infer_precision"] == "float64"
        del state["config"]["infer_precision"]
        detector = HotspotDetector.from_state(state)
        assert detector.config.infer_precision == "float64"

    def test_pre_quant_checkpoint_serves_float64_bitwise(
        self, tmp_path, trained_detector, feature_batch
    ):
        # A checkpoint published before the quant subtree existed has no
        # "quant" key at all; it must load and score exactly as before.
        registry = ModelRegistry(tmp_path / "m")
        registry.publish(trained_detector, "v-plain")
        state = read_checkpoint(registry.path_for("v-plain"))
        assert "quant" not in state or not state["quant"]
        loaded = registry.load_model("v-plain")
        assert np.array_equal(
            loaded.detector.predict_proba_tensors(feature_batch),
            trained_detector.predict_proba_tensors(feature_batch),
        )
