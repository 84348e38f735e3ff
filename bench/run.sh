#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# Every Go cache is kept inside the checkout, so a run reads and writes
# nothing outside it and needs neither $HOME nor the network.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -f $root/bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a dynamo checkout (go.mod and bench/go.mod not found in $root)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-path/pkg/mod
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/dynamo-perfbench" .
exec "$build/dynamo-perfbench" "$@"
