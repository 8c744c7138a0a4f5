#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from this checkout
# and runs it with the driver's arguments. Run from the root of the checkout.
#
# Everything the Go toolchain writes — build cache included — stays under
# .bench_build/ inside the checkout, and nothing is read from the user's Go
# environment, so a run behaves the same wherever the checkout lives.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" -repo . "$@"
