"""Validation tests for the detector configuration."""

import json

import pytest

from repro.exceptions import ConfigError, TrainingError
from repro.core.config import DetectorConfig
from repro.features.tensor import FeatureTensorConfig
from repro.nn.trainer import TrainerConfig


class TestDetectorConfig:
    def test_defaults_match_paper(self):
        config = DetectorConfig()
        assert config.lr_alpha == 0.5          # α
        assert config.epsilon_step == 0.1      # δε
        assert config.bias_rounds == 4         # t
        assert config.validation_fraction == 0.25
        assert config.feature.block_count == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"lr_alpha": 0.0},
            {"lr_alpha": 1.5},
            {"lr_decay_every": 0},
            {"validation_fraction": 0.0},
            {"validation_fraction": 1.0},
            {"bias_rounds": 0},
            {"epsilon_step": -0.1},
            {"max_false_alarm_increase": -0.1},
            {"finetune_fraction": 0.0},
            {"finetune_fraction": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(TrainingError):
            DetectorConfig(**kwargs)

    def test_frozen(self):
        config = DetectorConfig()
        with pytest.raises(Exception):
            config.learning_rate = 1.0  # type: ignore[misc]

    def test_composes_sub_configs(self):
        config = DetectorConfig(
            feature=FeatureTensorConfig(block_count=12, coefficients=8, pixel_nm=4),
            trainer=TrainerConfig(batch_size=8),
        )
        assert config.feature.coefficients == 8
        assert config.trainer.batch_size == 8

    def test_balance_and_augment_flags(self):
        config = DetectorConfig(balance_training=False, augment_hotspots=True)
        assert not config.balance_training
        assert config.augment_hotspots

    def test_compute_dtype_defaults_and_validation(self):
        assert DetectorConfig().compute_dtype == "float64"
        assert not DetectorConfig().fused_conv
        assert DetectorConfig(compute_dtype="float32").compute_dtype == "float32"
        with pytest.raises(TrainingError):
            DetectorConfig(compute_dtype="float16")


class TestDictRoundTrip:
    def test_round_trip_preserves_everything(self):
        config = DetectorConfig(
            feature=FeatureTensorConfig(block_count=6, coefficients=9, pixel_nm=8),
            learning_rate=5e-4,
            bias_rounds=2,
            trainer=TrainerConfig(batch_size=8, seed=3),
            seed=7,
        )
        assert DetectorConfig.from_dict(config.to_dict()) == config

    def test_dict_is_json_safe(self):
        restored = json.loads(json.dumps(DetectorConfig().to_dict()))
        assert DetectorConfig.from_dict(restored) == DetectorConfig()

    def test_unknown_keys_rejected(self):
        data = DetectorConfig().to_dict()
        data["attention_heads"] = 8
        with pytest.raises(ConfigError):
            DetectorConfig.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            DetectorConfig.from_dict([1, 2, 3])

    def test_pre_dtype_policy_dicts_still_load(self):
        # Config dicts saved before the compute-dtype policy existed have
        # no compute_dtype/fused_conv/dct_backend keys; dicts saved while
        # the retired feature.dct_backend key existed carry "scipy" or
        # "matmul". All of them load, to the same config.
        for backend in (None, "scipy", "matmul"):
            data = DetectorConfig().to_dict()
            for key in ("compute_dtype", "fused_conv"):
                del data[key]
            if backend is not None:
                data["feature"]["dct_backend"] = backend
            config = DetectorConfig.from_dict(data)
            assert config == DetectorConfig()
            assert config.compute_dtype == "float64"
            assert not config.fused_conv

    def test_unknown_feature_keys_rejected(self):
        data = DetectorConfig().to_dict()
        data["feature"]["dct_window"] = "hann"
        with pytest.raises(ConfigError):
            DetectorConfig.from_dict(data)
