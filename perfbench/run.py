"""Repository benchmark: one command per workload, seeded, self-checking.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` is a separate run that times the benchmark's own calls into each
layer, prints a stage table and reports the per-layer metrics. The last
line of standard output is always one JSON object::

    {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

``--smoke`` runs every workload on tiny inputs, traced and untraced, and
checks the emitted metric names and units against ``BENCHMARK.json``.
See ``perfbench/README.md`` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (standard library only; cheap)

WORKLOADS = ("scan", "eco", "serve", "train")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (smoke mode)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every workload on tiny inputs and check names and units",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help=argparse.SUPPRESS,  # one set-up in a fresh process, then exit
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args: argparse.Namespace) -> int:
    stopwatch = harness.Stopwatch().start()
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        stopwatch=stopwatch,
        setup_only=args.setup_only,
    )
    with ctx.exits:
        module = importlib.import_module(f"{args.workload}_workload")
        state = module.setup(ctx)
        stopwatch.stop()
        ctx.probe = harness.HostProbe()
        ctx.setup_s = (
            stopwatch.elapsed * harness.PROBE_REFERENCE_S / ctx.probe.measure()
        )
        if args.setup_only:
            print(json.dumps({"setup_s": ctx.setup_s}))
            return 0
        run = module.trace if ctx.trace else module.run
        outcome: harness.Outcome = run(ctx, state)
    values = harness.complete_metrics(outcome.values, ctx.trace)
    extra = dict(outcome.extra_env)
    if ctx.trace:
        extra["not_exercised"] = harness.not_exercised(outcome.values)
    env = harness.environment_block(args.workload, args.seed, outcome.inputs, extra)
    print("environment: " + json.dumps(env, sort_keys=True))
    if outcome.stage_table:
        print(outcome.stage_table)
        for name, value in outcome.values.items():
            print(f"{name} = {value:.6g} -> {harness.moves(name)}")
    correct = outcome.failed == 0
    print(
        json.dumps(
            harness.result_line(correct, outcome.attempted, outcome.failed, values)
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(harness.BLAS_ENV)  # before NumPy loads anywhere
    try:
        harness.check_sources()
        sys.path.insert(0, str(harness.SRC_DIR))
        if args.smoke:
            import smoke

            return smoke.run_smoke(args.seed)
        return run_workload(args)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
