"""Command-line interface.

``repro-hotspot`` (or ``python -m repro``) exposes the library's main
workflows without writing Python:

- ``generate`` — synthesise a labelled benchmark suite to a clip file.
- ``train`` — train the detector on a clip file and save the model.
- ``evaluate`` — evaluate a saved model on a clip file (Table-2 metrics).
- ``experiment`` — regenerate one of the paper's tables/figures.
- ``stats`` — audit a clip file.
- ``scan`` — full-chip scan with a saved model through the scan farm
  (``--workers`` shard processes, ``--cache-dir`` incremental re-scan).
- ``scan-batch`` — farm-scan several LAYOUT files with one shared cache.
- ``active`` — budgeted active-learning loop: buy labels from the litho
  oracle under a simulation-seconds budget and grow a detector.
- ``serve`` — run the HTTP inference service from a model registry.
- ``obs report`` — summarise a JSONL run log (stage timings, metrics).

Every command routes its output through the observability layer
(:mod:`repro.obs`): a console sink renders human-readable lines
(``--verbose`` adds debug events such as spans and per-validation
traces, ``--quiet`` keeps warnings only), and ``--log-json PATH`` (or
``REPRO_LOG_JSON``) additionally records every event — all levels — to a
machine-readable JSONL run log that ``obs report`` can replay.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro._version import __version__
from repro.obs.events import EventBus, emit, set_bus
from repro.obs.sinks import LOG_JSON_ENV, ConsoleSink, JsonlSink


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hotspot",
        description=(
            "Reproduction of 'Layout Hotspot Detection with Feature Tensor "
            "Generation and Deep Biased Learning' (DAC 2017)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL run log of every emitted event to PATH "
            f"(default: ${LOG_JSON_ENV} if set)"
        ),
    )
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print debug events (spans, validation traces)",
    )
    volume.add_argument(
        "-q", "--quiet", action="store_true",
        help="print warnings only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a labelled suite")
    gen.add_argument("output", help="output clip file")
    gen.add_argument("--hotspots", type=int, default=100)
    gen.add_argument("--non-hotspots", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train the detector")
    train.add_argument("data", help="training clip file")
    train.add_argument("model", help="output model file (npz)")
    train.add_argument("--iterations", type=int, default=2500)
    train.add_argument("--bias-rounds", type=int, default=2)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="snapshot training state into DIR (crash-safe, rolling)",
    )
    train.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="iterations between snapshots (default: validation cadence)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="continue from the newest snapshot in --checkpoint-dir",
    )
    train.add_argument(
        "--compute-dtype", choices=("float64", "float32"), default="float64",
        help="network arithmetic precision (float64 keeps the historical "
             "bitwise path; float32 roughly doubles training throughput)",
    )
    train.add_argument(
        "--publish-dir", metavar="DIR", default=None,
        help="also publish the trained model into a serving registry DIR",
    )
    train.add_argument(
        "--publish-version", metavar="NAME", default=None,
        help="registry version name for --publish-dir (default: v<timestamp>)",
    )
    train.add_argument(
        "--no-drift-profile", action="store_true",
        help="publish without freezing a drift reference profile "
             "(default: profile the model on the training set so serving "
             "can monitor score/feature drift against it)",
    )

    evaluate = sub.add_parser("evaluate", help="evaluate a saved model")
    evaluate.add_argument("model", help="model file from 'train'")
    evaluate.add_argument("data", help="test clip file")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name",
        choices=("table1", "fig1", "table2", "fig3", "fig4"),
    )
    experiment.add_argument("--scale", type=float, default=None)

    stats = sub.add_parser("stats", help="audit a clip file")
    stats.add_argument("data", help="clip file to audit")
    stats.add_argument("--grid", type=int, default=10,
                       help="topology quantisation grid (nm)")

    scan = sub.add_parser("scan", help="full-chip scan with a saved model")
    scan.add_argument("model", help="model file from 'train'")
    scan.add_argument("--tiles", type=int, default=5,
                      help="synthetic layout size in 1200nm tiles per side")
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--threshold", type=float, default=0.5)
    scan.add_argument("--workers", type=int, default=1,
                      help="shard worker processes")
    scan.add_argument(
        "--journal", metavar="PATH", default=None,
        help="record completed batches to PATH (JSONL, fsync-ed)",
    )
    scan.add_argument(
        "--resume", action="store_true",
        help="skip windows already recorded in --journal",
    )
    scan.add_argument(
        "--layout", metavar="PATH", default=None,
        help="scan a LAYOUT file instead of a synthetic chip "
             "(see 'scan-batch' for scanning several)",
    )
    scan.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent window-probability cache for incremental re-scan",
    )
    scan.add_argument(
        "--shards-per-worker", type=int, default=2,
        help="farm queue oversubscription factor",
    )
    scan.add_argument(
        "--infer-precision",
        choices=("float64", "float32", "float16", "int8"),
        default=None,
        help="score windows at this precision instead of the model's "
             "configured one (int8/float16 use the fused quantized plans)",
    )

    scan_batch = sub.add_parser(
        "scan-batch",
        help="farm-scan a batch of LAYOUT files with one shared cache",
    )
    scan_batch.add_argument("model", help="model file from 'train'")
    scan_batch.add_argument(
        "layouts", nargs="+", metavar="LAYOUT",
        help="full-chip LAYOUT files (see repro.geometry.write_chip)",
    )
    scan_batch.add_argument("--threshold", type=float, default=0.5)
    scan_batch.add_argument("--workers", type=int, default=1,
                            help="shard worker processes")
    scan_batch.add_argument("--shards-per-worker", type=int, default=2,
                            help="farm queue oversubscription factor")
    scan_batch.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="shared window-probability cache: layouts that repeat "
             "geometry (chip revisions) reuse each other's windows",
    )

    active = sub.add_parser(
        "active",
        help="budgeted active-learning loop over a clip pool",
    )
    active.add_argument("pool", help="pool clip file (labels = ground truth)")
    active.add_argument(
        "--eval", dest="eval_data", required=True, metavar="PATH",
        help="labelled evaluation clip file (quality per round)",
    )
    active.add_argument(
        "--strategy",
        choices=("random", "uncertainty", "uncertainty_diversity"),
        default="uncertainty_diversity",
    )
    active.add_argument(
        "--uncertainty", choices=("entropy", "margin"), default="entropy",
        help="uncertainty score for the informed strategies",
    )
    active.add_argument("--seed-size", type=int, default=20,
                        help="random labels bought up front (round 0)")
    active.add_argument("--batch-size", type=int, default=10,
                        help="labels bought per selection round")
    active.add_argument("--rounds", type=int, default=4,
                        help="selection rounds after the seed round")
    active.add_argument(
        "--budget-seconds", type=float, default=None,
        help="label budget in simulated litho seconds "
             "(default: 40%% of the pool at --seconds-per-clip)",
    )
    active.add_argument("--seconds-per-clip", type=float, default=10.0,
                        help="simulated litho price per label (ODST charge)")
    active.add_argument(
        "--warm-start", action="store_true",
        help="fine-tune the existing detector each round instead of "
             "retraining from scratch",
    )
    active.add_argument("--iterations", type=int, default=400,
                        help="MGD iteration cap per (re)training")
    active.add_argument("--pixel-nm", type=int, default=4,
                        help="feature raster resolution")
    active.add_argument("--coefficients", type=int, default=16,
                        help="DCT coefficients kept per block")
    active.add_argument("--seed", type=int, default=0,
                        help="selection RNG seed (also the detector seed)")
    active.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="snapshot loop state into DIR at every round boundary",
    )
    active.add_argument(
        "--resume", action="store_true",
        help="continue from the newest snapshot in --checkpoint-dir",
    )
    active.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the accuracy-vs-label-budget record to PATH (JSON)",
    )
    active.add_argument(
        "--model", metavar="PATH", default=None,
        help="save the final detector as a self-describing serving "
             "checkpoint (config + weights + scaler; loadable by "
             "'evaluate', 'scan', and the serve registry)",
    )
    active.add_argument(
        "--infer-precision",
        choices=("float64", "float32", "float16", "int8"),
        default="float64",
        help="inference precision baked into the detector config "
             "(training always runs the float path)",
    )

    serve = sub.add_parser("serve", help="run the HTTP inference service")
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR", required=True,
        help="model registry directory (serving checkpoints from "
             "'train --publish-dir' or ModelRegistry.publish)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free port)")
    serve.add_argument("--model-name", default="default",
                       help="logical model name in the API paths")
    serve.add_argument("--model-version", default=None, metavar="NAME",
                       help="initial version to serve (default: newest valid)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="sample cap per dynamic micro-batch")
    serve.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="batching window after the first queued request")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="pending-request cap before 503 backpressure")
    serve.add_argument("--workers", type=int, default=1,
                       help="inference worker threads")
    serve.add_argument("--slo-latency-ms", type=float, default=250.0,
                       metavar="MS",
                       help="predict-latency SLO threshold (99%% of "
                            "requests faster than this)")
    serve.add_argument("--slo-availability", type=float, default=0.999,
                       metavar="FRACTION",
                       help="availability SLO target (fraction of "
                            "non-error responses)")
    serve.add_argument("--no-slo", action="store_true",
                       help="disable SLO burn-rate tracking")
    serve.add_argument(
        "--infer-precision",
        choices=("float64", "float32", "float16", "int8"),
        default=None,
        help="serve every model at this precision; quantized choices "
             "require the checkpoint to carry a passing parity report "
             "(ModelRegistry.publish with quantize=...)",
    )

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="summarise a JSONL run log (stage timings, metrics)"
    )
    report.add_argument("log", help="JSONL run log from --log-json")
    report.add_argument(
        "--trace", metavar="ID", default=None,
        help="render one trace as a span tree instead of the summary "
             "(full 32-hex trace id or any unique prefix)",
    )
    top = obs_sub.add_parser(
        "top", help="live terminal dashboard scraping a serve instance"
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of the serve instance to scrape",
    )
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval in seconds")
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (non-zero on scrape failure)",
    )
    return parser


def _say(text: str) -> None:
    """Route one human-oriented line through the event bus."""
    emit("cli.message", text=str(text))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    verbosity = 2 if args.verbose else 0 if args.quiet else 1
    bus = EventBus()
    bus.attach(ConsoleSink(verbosity=verbosity))
    log_json = args.log_json or os.environ.get(LOG_JSON_ENV, "").strip()
    if log_json:
        bus.attach(JsonlSink(log_json))
    previous = set_bus(bus)
    try:
        return _dispatch(args)
    finally:
        set_bus(previous)
        bus.close()


def _dispatch(args) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "scan-batch":
        return _cmd_scan_batch(args)
    if args.command == "active":
        return _cmd_active(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return 2  # unreachable: argparse enforces the choices


def _cmd_generate(args) -> int:
    from repro.data.dataset import HotspotDataset
    from repro.data.generator import ClipGenerator, GeneratorConfig

    start = time.perf_counter()
    generator = ClipGenerator(GeneratorConfig(seed=args.seed))
    clips = generator.generate(args.hotspots, args.non_hotspots)
    dataset = HotspotDataset(clips, name="generated")
    dataset.save(args.output)
    _say(
        f"wrote {dataset.summary()} to {args.output} "
        f"in {time.perf_counter() - start:.1f}s"
    )
    return 0


def _cmd_train(args) -> int:
    from repro.bench.harness import bench_detector_config
    from repro.core.detector import HotspotDetector
    from repro.data.dataset import HotspotDataset

    dataset = HotspotDataset.load(args.data)
    _say(f"training on {dataset.summary()}")
    config = bench_detector_config(
        bias_rounds=args.bias_rounds,
        seed=args.seed,
        max_iterations=args.iterations,
        compute_dtype=args.compute_dtype,
    )
    if args.resume and not args.checkpoint_dir:
        _say("--resume needs --checkpoint-dir")
        return 2
    detector = HotspotDetector(config)
    start = time.perf_counter()
    # Round-by-round progress arrives live as [biased.round] event lines.
    detector.fit(
        dataset,
        checkpoints=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    _say(f"trained in {time.perf_counter() - start:.1f}s")
    detector.save(args.model)
    _say(f"model saved to {args.model}")
    if args.publish_dir:
        from repro.serve import ModelRegistry

        version = args.publish_version or f"v{int(time.time())}"
        registry = ModelRegistry(args.publish_dir)
        reference = None if args.no_drift_profile else dataset
        path = registry.publish(detector, version, reference=reference)
        _say(f"published serving checkpoint {version} to {path}")
        if reference is not None:
            _say(
                "froze drift reference profile "
                f"({len(dataset)} training clips) into {version}"
            )
    return 0


def _load_model(path):
    """Load either model format the CLI writes.

    ``train`` saves weights-only npz files that assume the bench-harness
    config; ``active --model`` (and the serve registry) write
    self-describing serving checkpoints that carry their own config.
    Sniff the checkpoint format first so both work everywhere.
    """
    from repro.bench.harness import bench_detector_config
    from repro.core.detector import HotspotDetector
    from repro.exceptions import CheckpointError

    try:
        return HotspotDetector.load_checkpoint(path)
    except CheckpointError:
        return HotspotDetector(bench_detector_config()).load(path)


def _cmd_evaluate(args) -> int:
    from repro.data.dataset import HotspotDataset

    dataset = HotspotDataset.load(args.data)
    detector = _load_model(args.model)
    metrics = detector.evaluate(dataset)
    _say(dataset.summary())
    _say(metrics.row())
    return 0


def _cmd_experiment(args) -> int:
    from repro.bench import (
        experiment_fig1,
        experiment_fig3,
        experiment_fig4,
        experiment_table1,
        experiment_table2,
    )

    kwargs = {}
    if args.scale is not None and args.name in ("table2", "fig3", "fig4"):
        kwargs["scale"] = args.scale
    runner = {
        "table1": experiment_table1,
        "fig1": experiment_fig1,
        "table2": experiment_table2,
        "fig3": experiment_fig3,
        "fig4": experiment_fig4,
    }[args.name]
    _, text = runner(**kwargs)
    _say(text)
    return 0


def _cmd_stats(args) -> int:
    from repro.data.dataset import HotspotDataset
    from repro.data.topology import suite_statistics

    dataset = HotspotDataset.load(args.data)
    stats = suite_statistics(dataset.clips, grid_nm=args.grid)
    _say(stats.summary())
    return 0


def _cmd_scan(args) -> int:
    from repro.data.fullchip import FullChipSpec, make_layout
    from repro.geometry.layoutio import read_chip
    from repro.scanfarm import ScanFarm

    detector = _load_model(args.model)
    if args.infer_precision:
        detector.set_infer_precision(args.infer_precision)
        _say(f"scanning at infer precision {args.infer_precision}")
    if args.layout:
        name, layout = read_chip(args.layout)
        _say(f"scanning {name!r} from {args.layout}")
    else:
        layout = make_layout(
            FullChipSpec(
                tiles_x=args.tiles, tiles_y=args.tiles, seed=args.seed
            )
        )
    if args.resume and not args.journal:
        _say("--resume needs --journal")
        return 2
    farm = ScanFarm(
        detector,
        threshold=args.threshold,
        workers=args.workers,
        shards_per_worker=args.shards_per_worker,
        cache_dir=args.cache_dir,
    )
    result = farm.scan(layout, journal=args.journal, resume=args.resume)
    _say(result.summary())
    _print_regions(result)
    return 0


def _print_regions(result) -> None:
    for region in result.regions:
        b = region.bbox
        _say(
            f"  region ({b.x_lo},{b.y_lo})-({b.x_hi},{b.y_hi}) "
            f"windows={region.window_count} peak={region.max_probability:.2f}"
        )


def _cmd_scan_batch(args) -> int:
    from repro.geometry.layoutio import read_chip
    from repro.scanfarm import ScanFarm

    detector = _load_model(args.model)
    farm = ScanFarm(
        detector,
        threshold=args.threshold,
        workers=args.workers,
        shards_per_worker=args.shards_per_worker,
        cache_dir=args.cache_dir,
    )
    named = []
    for path in args.layouts:
        name, layout = read_chip(path)
        named.append((name or path, layout))
    results = farm.scan_batch(named)
    for path, (name, _), result in zip(args.layouts, named, results):
        _say(f"{path} ({name}): {result.summary()}")
        _print_regions(result)
    return 0


def _cmd_active(args) -> int:
    from repro.active import ActiveLearningConfig
    from repro.bench.active import format_label_curves, run_active_strategy
    from repro.bench.report import write_report
    from repro.core.config import DetectorConfig
    from repro.data.dataset import HotspotDataset
    from repro.features.tensor import FeatureTensorConfig
    from repro.litho.oracle import HotspotOracle
    from repro.nn.trainer import TrainerConfig

    if args.resume and not args.checkpoint_dir:
        _say("--resume needs --checkpoint-dir")
        return 2
    pool = HotspotDataset.load(args.pool)
    eval_data = HotspotDataset.load(args.eval_data)
    budget_seconds = (
        args.budget_seconds
        if args.budget_seconds is not None
        else round(len(pool) * 0.40) * args.seconds_per_clip
    )
    _say(
        f"pool {pool.summary()} | eval {eval_data.summary()} | "
        f"budget {budget_seconds:g}s at {args.seconds_per_clip:g}s/label"
    )
    iterations = args.iterations
    detector_config = DetectorConfig(
        feature=FeatureTensorConfig(
            block_count=12,
            coefficients=args.coefficients,
            pixel_nm=args.pixel_nm,
        ),
        learning_rate=2e-3,
        lr_decay_every=max(1, int(iterations * 0.4)),
        bias_rounds=1,
        augment_hotspots=True,
        trainer=TrainerConfig(
            batch_size=32,
            max_iterations=iterations,
            validate_every=max(1, iterations // 10),
            patience=6,
            min_iterations=iterations // 2,
            seed=args.seed,
        ),
        seed=args.seed,
        infer_precision=args.infer_precision,
    )
    loop_config = ActiveLearningConfig(
        strategy=args.strategy,
        uncertainty=args.uncertainty,
        seed_size=args.seed_size,
        batch_size=args.batch_size,
        rounds=args.rounds,
        warm_start=args.warm_start,
        seed=args.seed,
    )
    start = time.perf_counter()
    # Per-round progress arrives live as [active.round] event lines.
    result, record = run_active_strategy(
        pool,
        eval_data,
        detector_config,
        loop_config,
        budget_seconds,
        args.seconds_per_clip,
        fallback_oracle=HotspotOracle(),
        checkpoints=args.checkpoint_dir,
        resume=args.resume,
    )
    _say(
        f"bought {result.labels_bought} labels "
        f"({result.budget_spent_seconds:g}s of {budget_seconds:g}s) in "
        f"{time.perf_counter() - start:.1f}s; {result.stopped_reason}"
    )
    _say(format_label_curves([record]))
    final = result.final_round
    _say(
        f"final: ROC-AUC {final.eval_roc_auc:.4f}, "
        f"accuracy {final.eval_accuracy:.1%}, "
        f"false-alarm rate {final.eval_false_alarm_rate:.1%}"
    )
    if args.report:
        write_report(
            args.report,
            "active_label_budget",
            {
                "pool_size": len(pool),
                "eval_size": len(eval_data),
                "full_budget_seconds": float(
                    len(pool) * args.seconds_per_clip
                ),
                "budget_fraction": budget_seconds
                / max(len(pool) * args.seconds_per_clip, 1e-9),
                "seconds_per_clip": args.seconds_per_clip,
                "strategies": [record],
            },
            metadata={"pool": pool.summary(), "eval": eval_data.summary()},
        )
        _say(f"wrote {args.report}")
    if args.model:
        # Serving-checkpoint format: the active loop's config differs from
        # the bench harness default, so a weights-only npz would force the
        # caller to reconstruct it out of band. A self-describing
        # checkpoint loads anywhere (evaluate/scan/serve registry).
        result.detector.save_checkpoint(args.model)
        _say(f"model saved to {args.model}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import EngineConfig, InferenceEngine, ModelRegistry, make_server

    registry = ModelRegistry(
        args.checkpoint_dir,
        name=args.model_name,
        infer_precision=args.infer_precision,
    )
    loaded = registry.activate(args.model_version)
    _say(
        f"serving model {registry.name!r} version {loaded.version} "
        f"from {args.checkpoint_dir} at precision "
        f"{loaded.detector.config.infer_precision}"
    )
    from repro.obs.slo import default_serve_objectives

    slo = (
        ()
        if args.no_slo
        else default_serve_objectives(
            latency_threshold_s=args.slo_latency_ms / 1000.0,
            availability_target=args.slo_availability,
        )
    )
    engine = InferenceEngine(
        registry,
        EngineConfig(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            workers=args.workers,
        ),
        slo=slo,
    )
    server = make_server(engine, registry, host=args.host, port=args.port)
    _say(f"listening on http://{args.host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _say("shutting down (draining queued requests)")
    finally:
        server.shutdown()
        server.server_close()
        engine.close(drain=True)
    return 0


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        from repro.obs.report import report_from_file

        _say(report_from_file(args.log, trace=args.trace))
        return 0
    if args.obs_command == "top":
        from repro.obs.top import run_top

        return run_top(args.url, interval_s=args.interval, once=args.once)
    return 2  # unreachable: argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
