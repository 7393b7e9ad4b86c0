"""Smoke mode: every workload end to end on tiny inputs.

Runs each workload of ``BENCHMARK.json`` untraced and traced in a fresh
process with ``--tiny`` and checks the contract of the result line: the
exact keys, a correct run with at least one attempted op, finite values,
every metric name and unit as ``BENCHMARK.json`` declares it, every
end-to-end metric (nonzero) from every untraced run, every per-layer
metric from every traced run, and each per-layer metric measured by
some workload rather than reported as not exercised.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from typing import List, Set

import harness

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Quality on the tiny suites (ten clips, a few training iterations) may
#: be 0; every other end-to-end metric must not be, even on tiny inputs.
MAY_BE_ZERO_WHEN_TINY = {"accuracy", "false_alarms"}


def _check_result(
    workload: str, trace: int, result: dict, units: dict, expected: List[str]
) -> List[str]:
    where = f"{workload} --trace {trace}"
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not a correct run: {result}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"{where}: metrics differ from the declared set: "
            f"{sorted(set(metrics) ^ set(expected))}"
        )
    for name, entry in metrics.items():
        if units.get(name) != entry.get("unit"):
            problems.append(
                f"{where}: {name} unit {entry.get('unit')!r}, "
                f"BENCHMARK.json says {units.get(name)!r}"
            )
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        elif not trace and value <= 0 and name not in MAY_BE_ZERO_WHEN_TINY:
            problems.append(f"{where}: end-to-end {name} is {value!r}")
    return problems


def run_smoke(seed: int) -> int:
    spec = harness.load_benchmark()
    units = harness.metric_units()
    problems: List[str] = []
    measured: Set[str] = set()
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable,
                str(harness.BENCH_DIR / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", "1",
                "--trace", str(trace),
                "--tiny",
            ]
            done = subprocess.run(
                command,
                cwd=harness.ROOT,
                env=harness.child_env(),
                capture_output=True,
                text=True,
                timeout=600,
                check=False,
            )
            if done.returncode != 0:
                problems.append(
                    f"{workload} --trace {trace}: exit {done.returncode}: "
                    f"{done.stderr[-2000:]}"
                )
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = json.loads(
                next(l for l in lines if l.startswith("environment: "))
                .split(": ", 1)[1]
            )
            metrics = set(result.get("metrics", {}))
            measured |= metrics - set(env.get("not_exercised", ()))
            expected = harness.metric_names("per_layer" if trace else "end_to_end")
            problems += _check_result(workload, trace, result, units, expected)
            print(f"{workload} --trace {trace}: {len(metrics)} metrics ok")
    missing = sorted(set(units) - measured)
    if missing:
        problems.append(f"declared but measured by no workload: {missing}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "passed"}))
    return 1 if problems else 0
