"""A farm's results follow the current model and the inputs it was given.

The model identity is folded into every window fingerprint, so a farm
with a persistent cache must see every change of model: a new detector,
an in-place fine-tune, new weights. It must also not re-hash the model
when nothing changed (that hash costs about a millisecond per scan).
``scan_batch`` returns one result per input, whatever the inputs' names.
"""

import copy

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.data.dataset import HotspotDataset
from repro.data.fullchip import FullChipSpec, make_layout
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.features.tensor import FeatureTensorConfig
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.nn.trainer import TrainerConfig
from repro.scanfarm import ScanFarm
from repro.scanfarm import farm as farm_module
from repro.testing import (
    TensorProbeDetector,
    reference_scan,
    scan_results_close,
    scan_results_equal,
)


def make_chip(seed=0):
    return make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=seed))


def tiny_config(seed):
    return DetectorConfig(
        feature=FeatureTensorConfig(block_count=8, coefficients=10, pixel_nm=10),
        bias_rounds=1,
        trainer=TrainerConfig(
            batch_size=16,
            max_iterations=120,
            validate_every=40,
            patience=3,
            min_iterations=40,
            seed=seed,
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def trained():
    generator = ClipGenerator(
        GeneratorConfig(
            seed=5, oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8))
        )
    )
    data = HotspotDataset(generator.generate(24, 40), name="identity/train")
    first = HotspotDetector(tiny_config(0)).fit(data)
    second = HotspotDetector(tiny_config(1)).fit(data)
    return data, first, second


class InvertedProbe(TensorProbeDetector):
    def predict_proba_tensors(self, tensors):
        return super().predict_proba_tensors(tensors)[:, ::-1]


class TestModelKey:
    def test_cached_scans_follow_every_model_change(self, tmp_path, trained):
        data, first, second = (copy.deepcopy(item) for item in trained)
        chip = make_chip()
        farm = ScanFarm(first, cache_dir=tmp_path / "cache")
        previous = None

        def scan_matches_current_model():
            nonlocal previous
            result = farm.scan(chip)
            assert scan_results_close(
                result, reference_scan(farm.detector, chip)
            )
            if previous is not None:
                assert not np.allclose(
                    result.probabilities, previous.probabilities
                )
            previous = result

        scan_matches_current_model()
        farm.detector = second
        scan_matches_current_model()
        second.finetune(data)
        scan_matches_current_model()
        network = second.network
        network.set_weights([w * 1.25 for w in network.get_weights()])
        scan_matches_current_model()

    def test_detector_swap_with_same_features(self, tmp_path):
        chip = make_chip()
        farm = ScanFarm(TensorProbeDetector(), cache_dir=tmp_path / "cache")
        farm.scan(chip)
        farm.detector = InvertedProbe()
        assert scan_results_equal(
            farm.scan(chip), reference_scan(InvertedProbe(), chip)
        )

    def test_unchanged_model_is_hashed_once(self, monkeypatch, trained):
        calls = []
        real = farm_module.model_fingerprint

        def counting(detector):
            calls.append(detector)
            return real(detector)

        monkeypatch.setattr(farm_module, "model_fingerprint", counting)
        detector = copy.deepcopy(trained[1])
        farm = ScanFarm(detector)
        first = farm.model_key()
        assert farm.model_key() == first
        farm.scan(make_chip())
        assert len(calls) == 1
        detector.set_infer_precision("float32")  # a new config object
        assert farm.model_key() != first
        assert len(calls) == 2

    def test_fixed_model_key_is_never_hashed(self, monkeypatch):
        monkeypatch.setattr(farm_module, "model_fingerprint", None)
        farm = ScanFarm(TensorProbeDetector(), model_key="registry-v1")
        farm.detector = InvertedProbe()
        assert farm.model_key() == "registry-v1"


class TestScanBatch:
    def test_same_named_layouts_get_one_result_each(self):
        chips = [make_chip(seed=0), make_chip(seed=1)]
        farm = ScanFarm(TensorProbeDetector())
        results = farm.scan_batch([("chip", chips[0]), ("chip", chips[1])])
        assert len(results) == 2
        for chip, result in zip(chips, results):
            assert scan_results_equal(
                result, reference_scan(TensorProbeDetector(), chip)
            )
        assert not scan_results_equal(results[0], results[1])

    def test_mapping_input_keeps_its_order(self):
        chips = {"b": make_chip(seed=1), "a": make_chip(seed=0)}
        results = ScanFarm(TensorProbeDetector()).scan_batch(chips)
        expected = [
            reference_scan(TensorProbeDetector(), chip)
            for chip in chips.values()
        ]
        assert all(map(scan_results_equal, results, expected))
