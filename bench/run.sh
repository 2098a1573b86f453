#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#     bash bench/run.sh --workload floor-churn --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files, the user config directory and the
# binary stay in .bench_build/ of the checkout; nothing is fetched
# (GOPROXY=off, GOTOOLCHAIN=local). Go telemetry is switched off in that
# config directory: otherwise the go command starts a detached telemetry
# process that can outlive this script. `go run ./bench` runs the same
# program with the user's own build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
    echo "bench/run.sh: run from the root of a DenseVLC checkout (no go.mod or internal/ here)" >&2
    exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" \
    GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
