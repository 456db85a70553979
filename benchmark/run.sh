#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the load generator with
# the Go caches inside the checkout and starts it in this directory; the
# generator builds cmd/mmfserve itself. Every byte the builds and the
# run write stays under <checkout>/.bench_build and <checkout>/benchmark/out.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
cd "$root/benchmark"
go build -o "$build/bin/loadbench" . >&2
exec "$build/bin/loadbench" "$@"
