#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload fig7 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare results/a results/b
#
# Everything the build writes (the binary, the Go build cache, Go's
# settings and telemetry) stays under .bench_build/ in the current
# directory. The module has no dependencies outside the repository, so
# the build never needs the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
