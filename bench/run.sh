#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out run.json        # all four workloads
#   bash bench/run.sh compare -old 'a/*.json' -new 'b/*.json'
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ at the root of the checkout, and the
# toolchain is kept offline: the module has no dependencies outside the
# repository.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/go"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/triosim-bench" .)
cd "$root"
exec "$build/triosim-bench" "$@"
