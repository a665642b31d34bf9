#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; every argument
# is passed through, e.g.
#
#   bash perfbench/run.sh --workload rmat-its --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the run records all stay under .bench_build/ there.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go -C "$here" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
