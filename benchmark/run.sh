#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload census-mem --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the binary, the Go build cache, the span file of a traced run — goes under
# .bench_build/ in the current directory, never outside the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the repository root (no go.mod here); the benchmark builds the module from source" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
