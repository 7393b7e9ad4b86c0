#!/usr/bin/env python
"""Compare fresh benchmark artifacts against the checked-in baselines.

The repo pins its perf trajectory in ``BENCH_*.json`` files at the repo
root. This script re-reads those baselines and (optionally) a directory
of freshly generated artifacts and flags regressions outside a
tolerance band:

- throughput-flavoured metrics (``*_per_second``, ``*_rps``, ``ops``)
  regress when the fresh value drops more than ``--tolerance`` below
  the baseline;
- latency/duration-flavoured metrics (``*latency*``, ``*seconds*``,
  ``*_s``) regress when the fresh value rises more than ``--tolerance``
  above the baseline;
- everything else is informational and never fails the check.

``--schema-only`` skips the numeric comparison and just validates that
every artifact parses, carries the ``experiment``/``metadata``/
``results`` envelope, and (for ``BENCH_kernels.json`` /
``BENCH_active.json``) has the quantized inference section / the
label-budget curves. CI runs this mode: absolute numbers are
machine-dependent, but a benchmark that silently stops writing a section
is a regression on any machine.

Exit codes: 0 clean, 1 regression or schema violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Default tolerance band: fresh may be up to 25% worse than baseline
#: before the check fails (single-shot benchmarks on shared machines
#: are noisy; trend direction is what the band protects).
DEFAULT_TOLERANCE = 0.25

_HIGHER_IS_BETTER = ("per_second", "_rps", "throughput", "ops")
_LOWER_IS_BETTER = ("latency", "seconds")

#: Required keys in the ``BENCH_kernels.json`` quantized-inference section.
KERNELS_QUANT_KEYS = (
    "float64_ms",
    "float32_ms",
    "float16_ms",
    "int8_ms",
    "speedup_int8_vs_float32",
    "speedup_int8_vs_float64",
    "speedup_float16_vs_float32",
    "float32_fused_ms",
    "float32_unfused_ms",
    "float32_fuse_speedup",
    "float16_fused_ms",
    "float16_unfused_ms",
    "float16_fuse_speedup",
    "int8_fused_ms",
    "int8_unfused_ms",
    "int8_fuse_speedup",
    "int8_max_prob_delta",
)

#: Required keys in ``BENCH_active.json``: top-level results, the
#: full-pool baseline, each strategy arm, and each per-round curve point.
ACTIVE_RESULT_KEYS = (
    "pool_size",
    "full_budget_seconds",
    "budget_fraction",
    "full_pool",
    "strategies",
)
ACTIVE_FULL_POOL_KEYS = ("labels", "budget_seconds", "roc_auc")
ACTIVE_STRATEGY_KEYS = (
    "strategy",
    "labels",
    "budget_seconds",
    "final_roc_auc",
    "rounds",
)
ACTIVE_ROUND_KEYS = (
    "round_index",
    "labels_total",
    "budget_spent_seconds",
    "eval_roc_auc",
)


def numeric_leaves(
    node, path: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], float]]:
    """Yield every (path, value) numeric leaf of a JSON tree."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield path, float(node)
    elif isinstance(node, dict):
        for key in sorted(node):
            yield from numeric_leaves(node[key], path + (str(key),))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from numeric_leaves(item, path + (str(i),))


def direction(path: Tuple[str, ...]) -> Optional[str]:
    """"higher"/"lower"-is-better for a metric path, None if neutral."""
    leaf = path[-1].lower()
    if any(tag in leaf for tag in _HIGHER_IS_BETTER):
        return "higher"
    # "_s" only as a suffix: a substring match would misclassify
    # size/samples-flavoured names (mean_batch_size) as latencies.
    if leaf.endswith("_s") or any(tag in leaf for tag in _LOWER_IS_BETTER):
        return "lower"
    return None


def compare_documents(
    baseline: dict, fresh: dict, tolerance: float
) -> List[str]:
    """Regression messages for ``fresh`` measured against ``baseline``."""
    problems: List[str] = []
    fresh_values: Dict[Tuple[str, ...], float] = dict(
        numeric_leaves(fresh.get("results", {}))
    )
    for path, base in numeric_leaves(baseline.get("results", {})):
        sense = direction(path)
        if sense is None or base <= 0:
            continue
        value = fresh_values.get(path)
        dotted = ".".join(path)
        if value is None:
            problems.append(f"missing metric {dotted} (baseline {base:g})")
            continue
        if sense == "higher" and value < base * (1.0 - tolerance):
            problems.append(
                f"{dotted}: {value:g} is {100 * (1 - value / base):.1f}% "
                f"below baseline {base:g} (tolerance {tolerance:.0%})"
            )
        elif sense == "lower" and value > base * (1.0 + tolerance):
            problems.append(
                f"{dotted}: {value:g} is {100 * (value / base - 1):.1f}% "
                f"above baseline {base:g} (tolerance {tolerance:.0%})"
            )
    return problems


def check_schema(path: Path, document: dict) -> List[str]:
    """Envelope (and per-artifact) schema violations for one artifact."""
    problems: List[str] = []
    for key in ("experiment", "metadata", "results"):
        if key not in document:
            problems.append(f"missing top-level {key!r}")
    if problems:
        return problems
    if not any(numeric_leaves(document["results"])):
        problems.append("results contain no numeric metrics")
    if path.name == "BENCH_kernels.json":
        quant = document["results"].get("quant")
        if not isinstance(quant, dict):
            problems.append("kernels results missing 'quant' section")
        else:
            for key in KERNELS_QUANT_KEYS:
                if key not in quant:
                    problems.append(f"kernels quant section missing {key!r}")
    if path.name == "BENCH_active.json":
        results = document["results"]
        for key in ACTIVE_RESULT_KEYS:
            if key not in results:
                problems.append(f"active results missing {key!r}")
        full = results.get("full_pool")
        if not isinstance(full, dict):
            problems.append("active results missing 'full_pool' baseline")
        else:
            for key in ACTIVE_FULL_POOL_KEYS:
                if key not in full:
                    problems.append(f"active full_pool missing {key!r}")
        strategies = results.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            problems.append("active results missing 'strategies' arms")
        else:
            for key in ACTIVE_STRATEGY_KEYS:
                if any(key not in entry for entry in strategies):
                    problems.append(f"active strategy entries missing {key!r}")
            for entry in strategies:
                rounds = entry.get("rounds")
                if not isinstance(rounds, list) or not rounds:
                    problems.append(
                        f"active strategy {entry.get('strategy')!r} has no "
                        "'rounds' curve"
                    )
                    continue
                for key in ACTIVE_ROUND_KEYS:
                    if any(key not in row for row in rounds):
                        problems.append(
                            f"active round entries missing {key!r}"
                        )
    return problems


def load_document(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: artifact is not a JSON object")
    return document


def run(
    baseline_dir: Path,
    fresh_dir: Optional[Path],
    tolerance: float,
    schema_only: bool,
    out=sys.stdout,
) -> int:
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json baselines in {baseline_dir}", file=out)
        return 2
    failures = 0
    for path in baselines:
        try:
            document = load_document(path)
        except (OSError, ValueError) as exc:
            print(f"FAIL {path.name}: unreadable baseline: {exc}", file=out)
            failures += 1
            continue
        problems = check_schema(path, document)
        if not problems and not schema_only:
            if fresh_dir is None:
                print(f"no --fresh directory; use --schema-only", file=out)
                return 2
            fresh_path = fresh_dir / path.name
            if not fresh_path.exists():
                print(f"skip {path.name}: no fresh artifact", file=out)
                continue
            try:
                fresh = load_document(fresh_path)
            except (OSError, ValueError) as exc:
                problems = [f"unreadable fresh artifact: {exc}"]
            else:
                problems = check_schema(fresh_path, fresh)
                problems += compare_documents(document, fresh, tolerance)
        if problems:
            failures += 1
            print(f"FAIL {path.name}:", file=out)
            for problem in problems:
                print(f"  - {problem}", file=out)
        else:
            mode = "schema" if schema_only else "schema+perf"
            print(f"ok   {path.name} ({mode})", file=out)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=Path, default=REPO_ROOT,
        help="directory holding the checked-in BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh", type=Path, default=None, metavar="DIR",
        help="directory of freshly generated BENCH_*.json to compare",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional perf slack before failing (default 0.25)",
    )
    parser.add_argument(
        "--schema-only", action="store_true",
        help="validate artifact schemas without comparing numbers",
    )
    args = parser.parse_args(argv)
    if not args.schema_only and args.fresh is None:
        parser.error("--fresh DIR is required unless --schema-only")
    if not 0.0 < args.tolerance < 1.0:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")
    return run(
        args.baseline_dir, args.fresh, args.tolerance, args.schema_only
    )


if __name__ == "__main__":
    sys.exit(main())
