#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary, Go caches and the go
# command's telemetry counters under .bench_build/, never $HOME) and runs
# it with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/lfsbenchmark.$$" .
mv -f "$build/lfsbenchmark.$$" "$build/lfsbenchmark"
cd "$root"
exec "$build/lfsbenchmark" "$@"
