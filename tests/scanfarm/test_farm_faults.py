"""Farm fault injection: dead shard workers, killed scans, bad resumes.

Probe detectors make every recovered-vs-clean comparison bitwise, and
``CrashingWorker`` delivers real SIGKILLs that no ``try/except`` can
fake.
"""

import json
import multiprocessing
import os
import signal
import tempfile
import time

import pytest

from repro.core.fullchip import ScanJournal, scan_journal_header
from repro.data.fullchip import FullChipSpec, make_layout
from repro.exceptions import ScanJournalError, TrainingError
from repro.geometry.layout import iter_clip_windows
from repro.scanfarm import ScanFarm
from repro.scanfarm.farm import bind_worker_to_parent
from repro.testing import (
    CrashingWorker,
    InjectedFault,
    TensorProbeDetector,
    fail_on_calls,
    install_fault,
    reference_scan,
    scan_results_equal,
)


def make_chip():
    return make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=0))


def make_farm(**kwargs):
    return ScanFarm(TensorProbeDetector(), **kwargs)


def _journaled_farm_scan(journal_path, workers):
    """Subprocess target: one journaled farm scan, armed to die mid-run."""
    make_farm(workers=workers).scan(
        make_chip(), batch_size=5, journal=journal_path
    )


def _pooled_farm_scan():
    """Subprocess target: one pooled farm scan, armed to die mid-run."""
    make_farm(workers=2).scan(make_chip(), batch_size=5)


def _bound_sleeper():
    bind_worker_to_parent()
    time.sleep(60)


def _parent_with_bound_child(queue):
    child = multiprocessing.get_context("fork").Process(target=_bound_sleeper)
    child.start()
    queue.put(child.pid)
    time.sleep(60)


def _pid_gone(pid, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


class TestWorkerLifetime:
    def test_pool_workers_die_with_their_parent(self):
        # A SIGKILLed scan must not strand pool workers: orphans keep
        # the journal fd and inherited pipes open (readers never see
        # EOF). ``bind_worker_to_parent`` ties worker lifetime to the
        # parent via PR_SET_PDEATHSIG; this pins the mechanism.
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        parent = ctx.Process(target=_parent_with_bound_child, args=(queue,))
        parent.start()
        worker_pid = queue.get(timeout=30)
        os.kill(parent.pid, signal.SIGKILL)
        parent.join(timeout=30)
        assert _pid_gone(worker_pid), (
            f"worker {worker_pid} outlived its SIGKILLed parent"
        )


class TestShardWorkerDeath:
    def test_dead_shard_worker_degrades_and_stays_exact(
        self, monkeypatch, fresh_registry, captured_events
    ):
        # Every pool worker SIGKILLs itself on shard 0; after the
        # respawn budget the remaining shards run in-process (where
        # kill-worker is inert) and the result is still bitwise the
        # reference scan's.
        monkeypatch.setenv("REPRO_FAULTS", "farm.shard:0=kill-worker")
        result = make_farm(workers=2, shards_per_worker=2).scan(make_chip())
        clean = reference_scan(TensorProbeDetector(), make_chip())
        assert scan_results_equal(clean, result)
        assert fresh_registry.counter("farm.worker_deaths").value >= 1
        names = {e.name for e in captured_events.events}
        assert "farm.worker_dead" in names
        assert "farm.degraded" in names


class TestSpillDirectories:
    def test_killed_scan_spill_dir_removed_by_next_pooled_scan(
        self, tmp_path, monkeypatch
    ):
        # SIGKILL skips the scan's own cleanup; the next pooled scan
        # removes every spill directory whose process is gone.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        root = tmp_path / "repro-farm-spill"
        worker = CrashingWorker(_pooled_farm_scan, faults="farm.batch:0=kill")
        worker.run()
        assert worker.was_killed
        leaked = {p.name.split("-", 1)[0] for p in root.iterdir()}
        assert len(leaked) == 1 and str(os.getpid()) not in leaked
        make_farm(workers=2).scan(make_chip())
        assert list(root.iterdir()) == []

    def test_live_scans_spill_dirs_are_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        root = tmp_path / "repro-farm-spill"
        root.mkdir()
        (root / f"{os.getppid()}-live").mkdir()
        (root / "not-a-pid").mkdir()
        make_farm(workers=2).scan(make_chip())
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [f"{os.getppid()}-live", "not-a-pid"]
        )


class TestFarmScanResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigkill_mid_scan_resume_is_bitwise(
        self, tmp_path, fresh_registry, workers
    ):
        journal = str(tmp_path / "farm.jsonl")
        # Kill right after the first landed record: one scored batch of
        # the in-process shard, or one whole shard from the pool.
        worker = CrashingWorker(
            _journaled_farm_scan,
            args=(journal, workers),
            faults="farm.batch:0=kill",
        )
        worker.run()
        assert worker.was_killed
        resumed = make_farm(workers=workers).scan(
            make_chip(), batch_size=5, journal=journal, resume=True
        )
        resumed_windows = fresh_registry.counter("scan.windows_resumed").value
        if workers == 1:
            assert resumed_windows == 5  # exactly the first batch
        else:
            assert resumed_windows > 0
        clean = make_farm(workers=workers).scan(make_chip(), batch_size=5)
        assert scan_results_equal(clean, resumed)

    def test_single_process_journal_lands_every_batch(self, tmp_path):
        # In-process batches are journaled as they are scored, not when
        # the whole shard returns: no record is larger than a batch.
        journal = tmp_path / "farm.jsonl"
        result = make_farm().scan(make_chip(), batch_size=5, journal=journal)
        with open(journal, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle][1:]
        assert len(records) > 2
        assert all(len(r["indices"]) <= 5 for r in records)
        journaled = sorted(i for r in records for i in r["indices"])
        assert journaled == list(range(result.window_count))

    def test_inprocess_crash_resume_is_bitwise(self, tmp_path, fresh_registry):
        journal = str(tmp_path / "farm.jsonl")
        layout = make_chip()
        install_fault("farm.batch", fail_on_calls(0))
        with pytest.raises(InjectedFault):
            make_farm().scan(layout, batch_size=5, journal=journal)
        from repro.testing import clear_faults

        clear_faults()
        resumed = make_farm().scan(
            layout, batch_size=5, journal=journal, resume=True
        )
        assert fresh_registry.counter("scan.windows_resumed").value > 0
        clean = make_farm().scan(layout, batch_size=5)
        assert scan_results_equal(clean, resumed)

    def test_resume_skips_cached_and_journaled_work(self, tmp_path):
        # Journal + cache together: a resumed warm scan recomputes no
        # window at all — any evaluation would trip the armed fault.
        journal = str(tmp_path / "farm.jsonl")
        layout = make_chip()
        farm = make_farm(cache_dir=tmp_path / "cache")
        first = farm.scan(layout, batch_size=5, journal=journal)
        install_fault("farm.shard", fail_on_calls(0, 1, 2, 3, 4, 5))
        again = make_farm(cache_dir=tmp_path / "cache").scan(
            layout, batch_size=5
        )
        assert scan_results_equal(first, again)

    def test_resume_without_journal_raises(self):
        with pytest.raises(TrainingError):
            make_farm().scan(make_chip(), resume=True)


class TestFarmJournalHeader:
    def test_serial_journal_rejected_by_farm(self, tmp_path):
        # A journal left by the retired serial scanner (its header has
        # no farm identity) must not resume a farm scan.
        journal = tmp_path / "scan.jsonl"
        layout = make_chip()
        windows = tuple(iter_clip_windows(layout.region, 1200, 600))
        serial = ScanJournal(journal)
        serial.start(
            scan_journal_header(
                layout,
                len(windows),
                clip_nm=1200,
                stride_nm=600,
                threshold=0.5,
                pipeline="shared",
            )
        )
        serial.record([0, 1], [0.25, 0.75])
        serial.close()
        with pytest.raises(ScanJournalError):
            make_farm().scan(layout, journal=journal, resume=True)

    @pytest.mark.parametrize(
        "other",
        [
            dict(workers=2),
            dict(shards_per_worker=3),
            dict(model_key="other-model"),
        ],
    )
    def test_mismatched_farm_config_rejected(self, tmp_path, other):
        journal = str(tmp_path / "farm.jsonl")
        layout = make_chip()
        make_farm(workers=1).scan(layout, batch_size=5, journal=journal)
        with pytest.raises(ScanJournalError):
            make_farm(**other).scan(layout, journal=journal, resume=True)

    def test_mismatched_cache_dir_rejected(self, tmp_path):
        journal = str(tmp_path / "farm.jsonl")
        layout = make_chip()
        make_farm().scan(layout, batch_size=5, journal=journal)
        with pytest.raises(ScanJournalError):
            make_farm(cache_dir=tmp_path / "cache").scan(
                layout, journal=journal, resume=True
            )
