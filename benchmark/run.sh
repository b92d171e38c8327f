#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash benchmark/run.sh --workload wire_echo --seed 1
# --seconds 18 --trace 0. Everything the build writes — binary, build cache —
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/dsb-benchmark" ./benchmark
exec "$build/dsb-benchmark" "$@"
