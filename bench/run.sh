#!/bin/sh
# Entry point named by BENCHMARK.json. Keeps everything the Go toolchain
# writes (build cache, temp files, telemetry) inside the checkout, builds
# the harness and hands it the arguments. The harness replaces this shell,
# so a signal meant for the benchmark reaches the process that owns the
# daemons; file arguments stay relative to the caller's directory.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" -root "$root" "$@"
