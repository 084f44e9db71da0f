#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included) and runs it with the given arguments. This is the
# `command` of BENCHMARK.json; run it from the root of a checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/psgraph-bench" .
cd "$root"
exec "$build/psgraph-bench" "$@"
