#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash safebench/run.sh --workload fleet-group --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The Go build cache, the go command's own
# config and telemetry, the binary, data dirs and traces all stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gopath/pkg/mod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/safebench" .)
exec "$build/safebench" --scratch "$build/run" "$@"
