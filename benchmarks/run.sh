#!/usr/bin/env bash
# Runs the benchmark from the root of a checkout: bash benchmarks/run.sh
# -workload <name> -seed <n> -seconds <s> -trace <0|1>. It builds
# ./benchmarks and runs the binary, with everything the Go toolchain writes —
# build cache, temporary files, its own counters — kept inside the checkout,
# under .bench_build/, so a run reads and writes nothing outside it. The first
# run in a checkout therefore compiles the standard library too.
#
# Go telemetry is switched off before the first `go` call: with a fresh
# config directory the go command otherwise detaches an uploader child that
# outlives it (and outlives this script when the build fails at once, as it
# does in a directory without the module).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/stateslice-bench" ./benchmarks
exec "$build/stateslice-bench" "$@"
