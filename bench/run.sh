#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload figs --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh                  # every workload, one child process each
#
# Everything the go command writes (build cache, temporary files, module
# cache, its config and telemetry counters) and the binary stay under
# .bench_build in the repository root. The module needs nothing but the
# standard library and the repository itself, so module downloads and
# toolchain switches are off, and a go.work, GOFLAGS or go env -w setting of
# the caller cannot change what is built.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/misar-bench-run" .)
exec "$build/misar-bench-run" "$@"
