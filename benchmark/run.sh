#!/usr/bin/env bash
# Builds the benchmark, runs all five workloads untraced and then traced
# (one process per workload), and writes out/results.json beside this file.
# Arguments are passed on to `asb-benchmark run`:
#   ./run.sh                full run, seed 42
#   ./run.sh --seed 7       another seed
#   ./run.sh --smoke        20 000 objects, one rep, oracle still on; seconds
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}
bench run "$@" --trace 0 --out "$here/out"
bench run "$@" --trace 1 --out "$here/out"
echo "results: $here/out/results.json"
