#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it,
# passing every argument on:
#
#   bash perfbench/run.sh --workload sim-4x4 --seed 0 --seconds 36 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root, including the Go build cache.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
