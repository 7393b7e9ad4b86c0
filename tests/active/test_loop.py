"""Tests for the batch active-learning loop (repro.active.loop)."""

import numpy as np
import pytest

from repro.active import (
    ActiveLearningConfig,
    ActiveLearningLoop,
    ActiveLearningResult,
    ActiveRound,
)
from repro.core.config import DetectorConfig
from repro.data.dataset import HotspotDataset
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.exceptions import ConfigError, TrainingError
from repro.features.tensor import FeatureTensorConfig
from repro.litho.budget import BudgetedOracle, LabelBudget, PrelabelledOracle
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.litho.runtime import SimulationCostModel
from repro.nn.trainer import TrainerConfig
from repro.testing import weights_equal

SECONDS_PER_CLIP = 10.0


@pytest.fixture(scope="module")
def data():
    generator = ClipGenerator(
        GeneratorConfig(
            seed=5, oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8))
        )
    )
    pool = HotspotDataset(generator.generate(10, 18), name="active/pool")
    eval_data = HotspotDataset(generator.generate(6, 10), name="active/eval")
    return pool, eval_data


def detector_config():
    return DetectorConfig(
        feature=FeatureTensorConfig(
            block_count=12, coefficients=16, pixel_nm=4
        ),
        learning_rate=2e-3,
        lr_decay_every=100,
        bias_rounds=1,
        trainer=TrainerConfig(
            batch_size=16,
            max_iterations=40,
            validate_every=10,
            patience=3,
            min_iterations=10,
            seed=0,
        ),
        seed=0,
    )


def loop_config(**overrides):
    base = dict(
        strategy="uncertainty_diversity",
        seed_size=8,
        batch_size=4,
        rounds=2,
        candidate_factor=2,
        seed=1,
    )
    base.update(overrides)
    return ActiveLearningConfig(**base)


def make_loop(budget_seconds=10_000.0, **overrides):
    # The pool is labelled at generation, so the PrelabelledOracle sells
    # those labels back without ever running litho simulation.
    budget = LabelBudget(
        budget_seconds, SimulationCostModel(seconds_per_clip=SECONDS_PER_CLIP)
    )
    oracle = BudgetedOracle(PrelabelledOracle(), budget)
    return ActiveLearningLoop(detector_config(), oracle, loop_config(**overrides))


class TestConfig:
    def test_round_trip(self):
        config = loop_config(warm_start=True, seed=7)
        assert ActiveLearningConfig.from_dict(config.to_dict()) == config

    def test_from_dict_missing_field(self):
        state = loop_config().to_dict()
        del state["batch_size"]
        with pytest.raises(ConfigError):
            ActiveLearningConfig.from_dict(state)

    def test_validation(self):
        with pytest.raises(ConfigError):
            loop_config(strategy="qbc")
        with pytest.raises(ConfigError):
            loop_config(uncertainty="variance")
        with pytest.raises(ConfigError):
            loop_config(seed_size=1)
        with pytest.raises(ConfigError):
            loop_config(batch_size=0)
        with pytest.raises(ConfigError):
            loop_config(rounds=-1)
        with pytest.raises(ConfigError):
            loop_config(candidate_factor=0)
        with pytest.raises(ConfigError):
            loop_config(seed=-1)


class TestActiveRoundState:
    def test_round_trip(self):
        record = ActiveRound(
            round_index=2,
            strategy="uncertainty",
            selected=(4, 9),
            labels_total=12,
            hotspots_total=5,
            budget_spent_seconds=120.0,
            eval_accuracy=0.8,
            eval_false_alarm_rate=0.1,
            eval_roc_auc=0.9,
        )
        assert ActiveRound.from_state(record.to_state()) == record

    def test_empty_result_has_no_final_round(self):
        result = ActiveLearningResult(
            rounds=[], labelled_indices=[], detector=None,
            budget_spent_seconds=0.0, labels_bought=0,
        )
        with pytest.raises(TrainingError):
            result.final_round


class TestLoopRun:
    @pytest.fixture(scope="class")
    def completed(self, data, tmp_path_factory):
        pool, eval_data = data
        directory = tmp_path_factory.mktemp("active_ckpt")
        loop = make_loop()
        result = loop.run(pool, eval_data, checkpoints=directory)
        return result, directory

    def test_round_structure(self, completed):
        result, _ = completed
        assert result.stopped_reason == "completed"
        assert [r.round_index for r in result.rounds] == [0, 1, 2]
        assert result.rounds[0].strategy == "seed"
        assert all(
            r.strategy == "uncertainty_diversity" for r in result.rounds[1:]
        )
        totals = [r.labels_total for r in result.rounds]
        assert totals == sorted(totals) and totals[-1] == len(
            result.labelled_indices
        )

    def test_labelled_pool_is_disjoint_union_of_rounds(self, completed, data):
        result, _ = completed
        pool, _ = data
        flat = [i for r in result.rounds for i in r.selected]
        assert flat == result.labelled_indices
        assert len(set(flat)) == len(flat)
        assert set(flat) <= set(range(len(pool)))

    def test_budget_books_balance(self, completed):
        result, _ = completed
        assert result.labels_bought == len(result.labelled_indices)
        assert result.budget_spent_seconds == pytest.approx(
            result.labels_bought * SECONDS_PER_CLIP
        )
        spends = [r.budget_spent_seconds for r in result.rounds]
        assert spends == sorted(spends)

    def test_detector_is_usable_and_curve_matches(self, completed, data):
        result, _ = completed
        _, eval_data = data
        probabilities = result.detector.predict_proba(eval_data)
        assert probabilities.shape == (len(eval_data), 2)
        assert result.curve() == [
            (r.labels_total, r.eval_roc_auc) for r in result.rounds
        ]

    def test_resume_of_completed_run_is_identical(self, completed, data):
        result, directory = completed
        pool, eval_data = data
        resumed = make_loop().run(
            pool, eval_data, checkpoints=directory, resume=True
        )
        assert [r.selected for r in resumed.rounds] == [
            r.selected for r in result.rounds
        ]
        assert weights_equal(
            result.detector.network.get_weights(),
            resumed.detector.network.get_weights(),
        )

    def test_resume_from_earlier_round_is_bitwise(
        self, completed, data, tmp_path
    ):
        # Keep only the snapshots a crash at the start of round 2 would
        # leave behind; the resumed loop must replay round 2 bitwise.
        result, directory = completed
        pool, eval_data = data
        for path in directory.iterdir():
            if "0000001" not in path.name and "0000000" not in path.name:
                continue
            (tmp_path / path.name).write_bytes(path.read_bytes())
        resumed = make_loop().run(
            pool, eval_data, checkpoints=tmp_path, resume=True
        )
        assert [r.selected for r in resumed.rounds] == [
            r.selected for r in result.rounds
        ]
        assert resumed.curve() == result.curve()
        assert weights_equal(
            result.detector.network.get_weights(),
            resumed.detector.network.get_weights(),
        )

    def test_resume_rejects_different_config(self, completed, data):
        _, directory = completed
        pool, eval_data = data
        with pytest.raises(TrainingError):
            make_loop(batch_size=5).run(
                pool, eval_data, checkpoints=directory, resume=True
            )

    def test_resume_rejects_different_pool(self, completed, data):
        _, directory = completed
        pool, eval_data = data
        with pytest.raises(TrainingError):
            make_loop().run(
                pool.without([0]), eval_data, checkpoints=directory, resume=True
            )

    def test_resume_rejects_different_budget_terms(self, completed, data):
        _, directory = completed
        pool, eval_data = data
        from repro.exceptions import LithoError

        with pytest.raises(LithoError):
            make_loop(budget_seconds=123.0).run(
                pool, eval_data, checkpoints=directory, resume=True
            )


class TestLoopStops:
    def test_budget_exhausted(self, data):
        pool, eval_data = data
        # Enough for the seed purchase only: round 1 finds an empty wallet.
        result = make_loop(budget_seconds=8 * SECONDS_PER_CLIP).run(
            pool, eval_data
        )
        assert result.stopped_reason == "budget_exhausted"
        assert len(result.rounds) == 1
        assert result.budget_spent_seconds == pytest.approx(80.0)

    def test_pool_exhausted(self, data):
        pool, eval_data = data
        result = make_loop(batch_size=10, rounds=6).run(pool, eval_data)
        assert result.stopped_reason == "pool_exhausted"
        assert sorted(result.labelled_indices) == list(range(len(pool)))

    def test_seed_budget_too_small(self, data):
        pool, eval_data = data
        with pytest.raises(TrainingError):
            make_loop(budget_seconds=SECONDS_PER_CLIP).run(pool, eval_data)


class TestLoopValidation:
    def test_oracle_must_be_budgeted(self):
        with pytest.raises(ConfigError):
            ActiveLearningLoop(detector_config(), PrelabelledOracle())

    def test_empty_datasets_rejected(self, data):
        pool, eval_data = data
        empty = HotspotDataset([], name="empty")
        with pytest.raises(TrainingError):
            make_loop().run(empty, eval_data)
        with pytest.raises(TrainingError):
            make_loop().run(pool, empty)

    def test_resume_needs_checkpoints(self, data):
        pool, eval_data = data
        with pytest.raises(TrainingError):
            make_loop().run(pool, eval_data, resume=True)


class TestWarmStart:
    def test_warm_start_runs_and_accounts(self, data):
        pool, eval_data = data
        result = make_loop(warm_start=True, rounds=1).run(pool, eval_data)
        assert result.stopped_reason == "completed"
        assert len(result.rounds) == 2
        assert result.labels_bought == len(result.labelled_indices)
