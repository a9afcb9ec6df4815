#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. from the repository root:
#
#   bash benchmark/run.sh --workload warm-rank --seed 1 --seconds 25 --trace 0
#
# Every build output, cache, temporary file and run file stays under
# .bench_build in the current directory, and the Go toolchain is kept off
# the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C benchmark build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
