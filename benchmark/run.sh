#!/usr/bin/env bash
# Builds the benchmark and sndserve from this tree, then runs one workload:
#
#   bash benchmark/run.sh --workload protocol-dense --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Builds and the Go build cache stay in
# .bench_build/, so nothing is read or written outside the checkout except
# the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$build/bin/sndserve" ./cmd/sndserve
(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" --sndserve "$build/bin/sndserve" "$@"
