#!/bin/sh
# Regenerates everything: build, full test suite, all paper benches, then
# gates the fresh numbers against the committed perf baselines
# (docs/benchmarks.md).  Outputs land in test_output.txt and
# bench_output.txt.  The paper's tables and figures are bench_report's
# output (one section per figure, bench/figures.cpp); the glob runs it with
# the remaining ablation and micro benchmarks.
set -e
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/bench_*; do "$b"; done 2>&1 | tee bench_output.txt
build/bench/bench_report --check 2>&1 | tee -a bench_output.txt
