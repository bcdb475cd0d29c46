#!/usr/bin/env bash
# Builds the benchmark from the sources of the repository it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload quest-mine --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ in the repository, and no module is
# downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/cfpbench" .
exec "$build/cfpbench" "$@"
