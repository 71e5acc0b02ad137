#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-rounds --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) goes under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: the module and the benchmark sources are both needed" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
