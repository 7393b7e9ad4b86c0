#!/bin/bash
# Regenerate every paper table/figure and record the output; exits with
# pytest's status.
# Knobs: REPRO_BENCH_SCALE (default 0.015), REPRO_BENCH_ITERS (default 2500).
[ -n "$BASH_VERSION" ] || exec bash "$0" "$@"  # pipefail needs bash
set -o pipefail
cd "$(dirname "$0")/.."
pytest benchmarks/ --benchmark-only -s -q 2>&1 | tee bench_output.txt
