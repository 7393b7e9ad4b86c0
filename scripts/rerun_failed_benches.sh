#!/bin/sh
# Rerun the benches that changed after the first recorded run (ablation
# suite switch, fig3 wall-clock equalisation) and append their output to
# bench_output.txt.
cd "$(dirname "$0")/.."
pytest benchmarks/bench_ablation_k.py benchmarks/bench_fig3.py \
    --benchmark-only -s \
    >> bench_output.txt 2>&1
echo "RERUN-RC=$?" >> bench_output.txt
