"""Crash/resume equivalence for the active-learning loop.

The acceptance bar mirrors the trainer suite: an active loop SIGKILLed
mid-round and resumed from its newest round-boundary checkpoint must
reproduce the uninterrupted run's selected indices and final detector
weights *bitwise*. Selection RNG position, labelled pool, budget account
and detector state all travel in the snapshot, so both the cold-retrain
and warm-start fine-tuning paths replay exactly.
"""

import pytest

from repro.active import ActiveLearningConfig, ActiveLearningLoop
from repro.core.config import DetectorConfig
from repro.data.dataset import HotspotDataset
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.features.tensor import FeatureTensorConfig
from repro.litho.budget import BudgetedOracle, LabelBudget, PrelabelledOracle
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.litho.runtime import SimulationCostModel
from repro.nn.serialize import CheckpointManager
from repro.nn.trainer import TrainerConfig
from repro.testing import CrashingWorker, weights_equal


def make_data():
    generator = ClipGenerator(
        GeneratorConfig(
            seed=5, oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8))
        )
    )
    pool = HotspotDataset(generator.generate(10, 18), name="faults/pool")
    eval_data = HotspotDataset(generator.generate(6, 10), name="faults/eval")
    return pool, eval_data


def make_loop(warm_start):
    config = DetectorConfig(
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
    budget = LabelBudget(10_000.0, SimulationCostModel(seconds_per_clip=10.0))
    return ActiveLearningLoop(
        config,
        BudgetedOracle(PrelabelledOracle(), budget),
        ActiveLearningConfig(
            strategy="uncertainty_diversity",
            seed_size=8,
            batch_size=4,
            rounds=2,
            candidate_factor=2,
            warm_start=warm_start,
            seed=1,
        ),
    )


def _run_checkpointed(directory, warm_start):
    """Subprocess target: the full loop, snapshotting every round."""
    pool, eval_data = make_data()
    make_loop(warm_start).run(pool, eval_data, checkpoints=directory)


@pytest.mark.parametrize("warm_start", [False, True])
def test_sigkill_mid_round_resume_is_bitwise(tmp_path, warm_start):
    # SIGKILL fires at the top of round 2, after the round-1 snapshot
    # landed but before any of round 2's selection happened: only the
    # on-disk state survives into the resumed process.
    worker = CrashingWorker(
        _run_checkpointed,
        args=(str(tmp_path), warm_start),
        faults="active.round:2=kill",
    )
    worker.run(timeout=300.0)
    assert worker.was_killed
    assert CheckpointManager(tmp_path, prefix="active").latest_step() == 1

    pool, eval_data = make_data()
    resumed = make_loop(warm_start).run(
        pool, eval_data, checkpoints=tmp_path, resume=True
    )
    clean = make_loop(warm_start).run(pool, eval_data)

    assert [r.selected for r in resumed.rounds] == [
        r.selected for r in clean.rounds
    ]
    assert resumed.curve() == clean.curve()
    assert resumed.budget_spent_seconds == clean.budget_spent_seconds
    assert weights_equal(
        clean.detector.network.get_weights(),
        resumed.detector.network.get_weights(),
    )
