"""Crash-safe full-chip scanning: journals, retries, failing tiles.

The probe detectors score each window independently of batch
composition, so "resumed scan equals clean scan" is a bitwise assertion,
not an approximation. Every scan here is a single-process
``ScanFarm(workers=1)``, which journals each batch as it is scored.
"""

import numpy as np
import pytest

from repro.core.fullchip import ScanJournal
from repro.data.fullchip import FullChipSpec, make_layout
from repro.exceptions import FeatureError, ScanJournalError, TrainingError
from repro.features.sliding import SlidingFeatureExtractor
from repro.features.tensor import FeatureTensorConfig
from repro.scanfarm import ScanFarm
from repro.testing import (
    CrashingWorker,
    DensityProbeDetector,
    InjectedFault,
    TensorProbeDetector,
    fail_on_calls,
    install_fault,
    scan_results_equal,
)

#: Scoring paths: the shared grid, clip by clip, and the shared grid at
#: a stride off the block lattice (most windows fall back per clip).
PIPELINES = ("mixed", "shared", "per_clip")


def make_scan_layout():
    return make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=0))


def make_scanner(pipeline, **kwargs):
    if pipeline == "per_clip":
        return ScanFarm(DensityProbeDetector(), threshold=0.5, **kwargs)
    stride = 500 if pipeline == "mixed" else 600
    return ScanFarm(
        TensorProbeDetector(), threshold=0.5, stride_nm=stride, **kwargs
    )


def _journaled_scan(pipeline, journal_path):
    """Subprocess target: one journaled scan, armed to die mid-run."""
    make_scanner(pipeline).scan(
        make_scan_layout(), batch_size=5, journal=journal_path
    )


class TestScanResume:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_sigkill_mid_scan_resume_is_bitwise(self, tmp_path, pipeline):
        journal = str(tmp_path / "scan.jsonl")
        worker = CrashingWorker(
            _journaled_scan,
            args=(pipeline, journal),
            faults="farm.batch:2=kill",
        )
        worker.run()
        assert worker.was_killed
        scanner = make_scanner(pipeline)
        resumed = scanner.scan(
            make_scan_layout(), batch_size=5, journal=journal, resume=True
        )
        clean = make_scanner(pipeline).scan(make_scan_layout(), batch_size=5)
        assert scan_results_equal(clean, resumed)

    def test_inprocess_crash_resume_is_bitwise(self, tmp_path):
        journal = str(tmp_path / "scan.jsonl")
        layout = make_scan_layout()
        scanner = make_scanner("per_clip")
        install_fault("farm.batch", fail_on_calls(3))
        with pytest.raises(InjectedFault):
            scanner.scan(layout, batch_size=5, journal=journal)
        from repro.testing import clear_faults

        clear_faults()
        resumed = scanner.scan(
            layout, batch_size=5, journal=journal, resume=True
        )
        clean = make_scanner("per_clip").scan(layout, batch_size=5)
        assert scan_results_equal(clean, resumed)

    def test_resume_skips_completed_windows(
        self, tmp_path, fresh_registry, captured_events
    ):
        journal = str(tmp_path / "scan.jsonl")
        layout = make_scan_layout()
        scanner = make_scanner("per_clip")
        install_fault("farm.batch", fail_on_calls(2))
        with pytest.raises(InjectedFault):
            scanner.scan(layout, batch_size=5, journal=journal)
        from repro.testing import clear_faults

        clear_faults()
        scanner.scan(layout, batch_size=5, journal=journal, resume=True)
        # Batches 0-2 (15 windows) were journaled before the crash.
        assert fresh_registry.counter("scan.windows_resumed").value == 15
        resumes = [
            e for e in captured_events.events if e.name == "scan.journal.resume"
        ]
        assert len(resumes) == 1 and resumes[0].attrs["completed"] == 15

    def test_resume_of_complete_journal_recomputes_nothing(self, tmp_path):
        journal = str(tmp_path / "scan.jsonl")
        layout = make_scan_layout()
        first = make_scanner("per_clip").scan(
            layout, batch_size=5, journal=journal
        )
        # Any window evaluation would now crash: resume must use the
        # journal alone.
        install_fault("farm.batch", fail_on_calls(0, 1, 2, 3, 4, 5))
        again = make_scanner("per_clip").scan(
            layout, batch_size=5, journal=journal, resume=True
        )
        assert scan_results_equal(first, again)

    def test_torn_journal_tail_is_dropped(self, tmp_path):
        journal = tmp_path / "scan.jsonl"
        layout = make_scan_layout()
        scanner = make_scanner("per_clip")
        clean = scanner.scan(layout, batch_size=5, journal=str(journal))
        with open(journal, "ab") as handle:
            handle.write(b'{"kind": "batch", "indices": [0], "p"')  # torn
        resumed = scanner.scan(
            layout, batch_size=5, journal=str(journal), resume=True
        )
        assert scan_results_equal(clean, resumed)

    def test_journal_file_format_is_stable(self, tmp_path):
        # Journals already on disk must keep loading: the bytes of a
        # header and of a batch record are pinned.
        path = tmp_path / "scan.jsonl"
        header = {"version": 1, "windows": 2}
        journal = ScanJournal(path)
        journal.start(header)
        journal.record([1, 0], np.array([0.1 + 0.2, 0.5]))
        journal.close()
        assert path.read_bytes() == (
            b'{"kind": "scan-header", "version": 1, "windows": 2}\n'
            b'{"kind": "batch", "indices": [1, 0], '
            b'"p": [0.30000000000000004, 0.5]}\n'
        )
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "batch", "ind')  # torn
        reopened = ScanJournal(path)
        assert reopened.resume(header) == {1: 0.1 + 0.2, 0: 0.5}
        reopened.record([0], np.array([0.5]))
        reopened.close()
        # Appending resumed after the valid prefix, not after the tear.
        assert path.read_bytes().endswith(
            b'"p": [0.30000000000000004, 0.5]}\n'
            b'{"kind": "batch", "indices": [0], "p": [0.5]}\n'
        )

    def test_header_mismatch_raises(self, tmp_path):
        journal = str(tmp_path / "scan.jsonl")
        layout = make_scan_layout()
        make_scanner("per_clip").scan(layout, batch_size=5, journal=journal)
        other = ScanFarm(DensityProbeDetector(), threshold=0.7)
        with pytest.raises(ScanJournalError):
            other.scan(layout, batch_size=5, journal=journal, resume=True)

    def test_foreign_file_raises(self, tmp_path):
        journal = tmp_path / "scan.jsonl"
        journal.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ScanJournalError):
            make_scanner("per_clip").scan(
                make_scan_layout(), journal=str(journal), resume=True
            )

    def test_resume_without_journal_raises(self):
        with pytest.raises(TrainingError):
            make_scanner("per_clip").scan(make_scan_layout(), resume=True)


FEATURES = FeatureTensorConfig(block_count=6, coefficients=10, pixel_nm=10)


def grid_layout():
    return make_layout(FullChipSpec(tiles_x=2, tiles_y=2, seed=1))


def serial_grid():
    extractor = SlidingFeatureExtractor(
        FEATURES, clip_nm=1200, tile_blocks=8, workers=1
    )
    return extractor.coefficient_grid(grid_layout())


class TestWorkerFaults:
    def test_tile_retry_recovers(self, fresh_registry):
        calls = {"n": 0}

        def flaky(index):
            if index == 1:
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise InjectedFault("flaky tile")

        install_fault("scan.tile", flaky)
        extractor = SlidingFeatureExtractor(
            FEATURES, clip_nm=1200, tile_blocks=8, workers=1,
            max_retries=2, retry_backoff=0.001,
        )
        assert np.array_equal(serial_grid(), extractor.coefficient_grid(grid_layout()))
        assert fresh_registry.counter("scan.tile_retries").value == 2

    def test_retry_budget_exhaustion_raises(self):
        install_fault("scan.tile", fail_on_calls(0))
        extractor = SlidingFeatureExtractor(
            FEATURES, clip_nm=1200, tile_blocks=8, workers=1,
            max_retries=1, retry_backoff=0.001,
        )
        with pytest.raises(FeatureError, match="tile 0 failed"):
            extractor.coefficient_grid(grid_layout())

    def test_retry_config_validated(self):
        with pytest.raises(FeatureError):
            SlidingFeatureExtractor(FEATURES, clip_nm=1200, max_retries=-1)
        with pytest.raises(FeatureError):
            SlidingFeatureExtractor(FEATURES, clip_nm=1200, retry_backoff=-0.1)
