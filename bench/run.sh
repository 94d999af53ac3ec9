#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, telemetry counters, scratch cache directories) stays under
# .bench_build/ in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"
export GOFLAGS= GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/vanetbench" .
exec "$out/vanetbench" -workdir "$out/work" "$@"
