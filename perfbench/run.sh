#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes through.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-private --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and Go's own config directory all live
# under .bench_build/, so nothing is read from or written to outside the
# checkout, and the build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
