#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json names it): build
# the benchmark from source inside the checkout, then run it with the
# driver's arguments. Everything written — build cache, binary, journals,
# disk caches, the go command's telemetry counters — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
commit=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C "$here" -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/wtbench" .
exec "$build/wtbench" "$@"
