#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload query-additive --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. The binary, the Go build cache and the
# compiler's temporary files all live under .bench_build/ in the checkout,
# so a run reads and writes nothing outside it (the Go toolchain aside).
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of a tripoline checkout (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$build/tripoline-benchmark" ./benchmark
exec "$build/tripoline-benchmark" "$@"
