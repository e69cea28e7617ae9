#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside the
# checkout, then run it with the driver's flags (--workload --seed --seconds
# --trace). Everything the build leaves behind stays under .bench_build/, so
# the run reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
go build -o "$out/massf-bench" ./bench
exec "$out/massf-bench" "$@"
