"""Tests for the command-line interface."""

import pytest

from repro._version import __version__
from repro.cli import build_parser, main
from repro.data.dataset import HotspotDataset


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])


class TestGenerate:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "clips.txt"
        code = main(
            [
                "generate",
                str(out),
                "--hotspots",
                "3",
                "--non-hotspots",
                "5",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        dataset = HotspotDataset.load(out)
        assert dataset.hotspot_count == 3
        assert dataset.non_hotspot_count == 5
        assert "wrote" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_quiet_suppresses_output(self, tmp_path, capsys):
        out = tmp_path / "clips.txt"
        assert main(["--quiet", "generate", str(out), "--hotspots", "2",
                     "--non-hotspots", "3"]) == 0
        assert capsys.readouterr().out == ""
        assert out.exists()

    def test_quiet_and_verbose_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--quiet", "--verbose", "stats", "x"])

    def test_log_json_records_run(self, tmp_path, capsys):
        from repro.obs import load_run_log

        out = tmp_path / "clips.txt"
        log = tmp_path / "run.jsonl"
        assert main(["--log-json", str(log), "generate", str(out),
                     "--hotspots", "2", "--non-hotspots", "3"]) == 0
        events = load_run_log(log)
        assert [e.name for e in events] == ["cli.message"]
        assert "wrote" in events[0].attrs["text"]
        # Console output still present alongside the JSONL log.
        assert "wrote" in capsys.readouterr().out

    def test_log_json_env_variable(self, tmp_path, capsys, monkeypatch):
        from repro.obs import load_run_log
        from repro.obs.sinks import LOG_JSON_ENV

        out = tmp_path / "clips.txt"
        log = tmp_path / "env_run.jsonl"
        monkeypatch.setenv(LOG_JSON_ENV, str(log))
        assert main(["generate", str(out), "--hotspots", "2",
                     "--non-hotspots", "3"]) == 0
        assert load_run_log(log)


class TestExperimentTable1:
    def test_table1_prints(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "conv1-1" in out
        assert "fc2" in out


class TestTrainEvaluate:
    def test_train_evaluate_stats_scan(self, tmp_path, capsys):
        data = tmp_path / "clips.txt"
        model = tmp_path / "model.npz"
        assert main(["generate", str(data), "--hotspots", "16",
                     "--non-hotspots", "24", "--seed", "3"]) == 0
        assert main(["train", str(data), str(model),
                     "--iterations", "120", "--bias-rounds", "1"]) == 0
        assert model.exists()
        assert main(["evaluate", str(model), str(data)]) == 0
        out = capsys.readouterr().out
        assert "Accu" in out

        assert main(["stats", str(data)]) == 0
        out = capsys.readouterr().out
        assert "unique topologies" in out

        assert main(["scan", str(model), "--tiles", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "windows scanned" in out

        from repro.obs import load_run_log

        def scan(name, *flags):
            log = tmp_path / f"{name}.jsonl"
            assert main(["--log-json", str(log), "scan", str(model),
                         "--tiles", "2", "--seed", "5", *flags]) == 0
            regions = [line for line in capsys.readouterr().out.splitlines()
                       if line.strip().startswith("region")]
            events = {e.name: e.attrs for e in load_run_log(log)}
            return regions, events

        journal = str(tmp_path / "scan.jsonl")
        regions, _ = scan("journaled", "--journal", journal)
        resumed, events = scan("resumed", "--journal", journal, "--resume")
        complete = events["farm.scan.complete"]
        assert events["scan.journal.resume"]["completed"] == complete["windows"]
        assert complete["scanned"] == 0
        assert resumed == regions

        cache = str(tmp_path / "cache")
        scan("cold", "--cache-dir", cache)
        warm, events = scan("warm", "--cache-dir", cache)
        complete = events["farm.scan.complete"]
        assert complete["scanned"] == 0
        assert complete["resumed_or_cached"] == complete["windows"]
        assert warm == regions


class TestScanBatch:
    def test_revisions_reuse_within_one_process(self, tmp_path, capsys):
        from repro.data.fullchip import FullChipSpec, make_layout
        from repro.geometry.layout import Layout
        from repro.geometry.layoutio import write_chip
        from repro.geometry.rect import Rect
        from repro.obs import load_run_log

        data = tmp_path / "clips.txt"
        model = tmp_path / "model.npz"
        assert main(["generate", str(data), "--hotspots", "16",
                     "--non-hotspots", "24", "--seed", "3"]) == 0
        assert main(["train", str(data), str(model),
                     "--iterations", "40", "--bias-rounds", "1"]) == 0
        base = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=5))
        edited = Layout(base.region, base.rects)
        edited.add(Rect(1900, 1900, 2000, 2000))  # one 1600 nm grid tile
        write_chip(tmp_path / "rev1.layout", base, name="rev1")
        write_chip(tmp_path / "rev2.layout", edited, name="rev2")
        capsys.readouterr()

        def regions(out):
            """Region lines printed per scanned layout, in order."""
            found = []
            for line in out.splitlines():
                if "windows scanned" in line:
                    found.append([])
                elif line.strip().startswith("region"):
                    found[-1].append(line)
            return found

        log = tmp_path / "batch.jsonl"
        assert main(["--log-json", str(log), "scan-batch", str(model),
                     str(tmp_path / "rev1.layout"),
                     str(tmp_path / "rev2.layout"),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        batch = regions(capsys.readouterr().out)
        complete = [e.attrs for e in load_run_log(log)
                    if e.name == "farm.scan.complete"]
        assert [c["fingerprints_reused"] for c in complete] == [0, 25 - 4]
        assert complete[0]["tiles_reused"] == 0
        assert complete[1]["tiles_reused"] > 0

        assert main(["scan", str(model),
                     "--layout", str(tmp_path / "rev2.layout")]) == 0
        assert regions(capsys.readouterr().out) == [batch[1]]

    def test_same_named_layouts_print_one_result_each(self, tmp_path, capsys):
        from repro.data.fullchip import FullChipSpec, make_layout
        from repro.geometry.layoutio import write_chip

        data = tmp_path / "clips.txt"
        model = tmp_path / "model.npz"
        assert main(["generate", str(data), "--hotspots", "16",
                     "--non-hotspots", "24", "--seed", "3"]) == 0
        assert main(["train", str(data), str(model),
                     "--iterations", "40", "--bias-rounds", "1"]) == 0
        paths = []
        for seed in (5, 6):
            path = tmp_path / f"chip{seed}.layout"
            layout = make_layout(FullChipSpec(tiles_x=3, tiles_y=3, seed=seed))
            write_chip(path, layout)  # both carry the default name
            paths.append(str(path))
        capsys.readouterr()
        assert main(["scan-batch", str(model), *paths]) == 0
        summaries = [line for line in capsys.readouterr().out.splitlines()
                     if "windows scanned" in line]
        assert [line.split(" (")[0] for line in summaries] == paths


class TestActive:
    def test_active_model_round_trips_through_evaluate(self, tmp_path, capsys):
        """`active --model` writes a self-describing checkpoint that
        `evaluate` loads despite the non-bench detector config."""
        pool = tmp_path / "pool.txt"
        eval_data = tmp_path / "eval.txt"
        model = tmp_path / "model.npz"
        report = tmp_path / "record.json"
        assert main(["generate", str(pool), "--hotspots", "8",
                     "--non-hotspots", "14", "--seed", "3"]) == 0
        assert main(["generate", str(eval_data), "--hotspots", "6",
                     "--non-hotspots", "8", "--seed", "4"]) == 0
        assert main(["active", str(pool), "--eval", str(eval_data),
                     "--seed-size", "6", "--batch-size", "3",
                     "--rounds", "1", "--iterations", "40",
                     "--report", str(report), "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "bought" in out and "final: ROC-AUC" in out
        assert report.exists()

        from repro.core.detector import HotspotDetector

        clone = HotspotDetector.load_checkpoint(model)
        assert clone.config.feature.coefficients == 16  # active default

        assert main(["evaluate", str(model), str(eval_data)]) == 0
        assert "Accu" in capsys.readouterr().out


class TestServe:
    def test_train_publish_then_serve(self, tmp_path, capsys, monkeypatch):
        """One train feeds both halves: publish wiring and serve wiring."""
        data = tmp_path / "clips.txt"
        model = tmp_path / "model.npz"
        models = tmp_path / "models"
        assert main(["generate", str(data), "--hotspots", "16",
                     "--non-hotspots", "24", "--seed", "3"]) == 0
        assert main(["train", str(data), str(model),
                     "--iterations", "120", "--bias-rounds", "1",
                     "--publish-dir", str(models),
                     "--publish-version", "v1"]) == 0
        out = capsys.readouterr().out
        assert "published serving checkpoint v1" in out

        from repro.serve import ModelRegistry

        registry = ModelRegistry(models)
        (entry,) = registry.versions()
        assert entry.version == "v1" and entry.valid
        assert registry.activate("v1").version == "v1"

        from repro.serve.http import HotspotHTTPServer

        # Simulate ctrl-C the instant the server starts, exercising the
        # full activate -> bind -> drain -> close path without blocking.
        # The real shutdown() waits for a serve_forever loop that never
        # ran here, so it must be stubbed alongside.
        def interrupted(self, poll_interval=0.5):
            raise KeyboardInterrupt

        monkeypatch.setattr(HotspotHTTPServer, "serve_forever", interrupted)
        monkeypatch.setattr(HotspotHTTPServer, "shutdown", lambda self: None)
        assert main(["serve", "--checkpoint-dir", str(models),
                     "--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "serving model 'default' version v1" in out
        assert "listening on http://127.0.0.1:" in out
        assert "shutting down" in out
