#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload mp-uniform-64 --seed 1 --seconds 20 --trace 0
#
# Build outputs (Go build cache and the binary) stay inside the checkout,
# under .bench_build/. The build needs the simulator sources one directory up,
# so outside a full checkout it fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$out/voyager-benchmark" .
exec "$out/voyager-benchmark" "$@"
