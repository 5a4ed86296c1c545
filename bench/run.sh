#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind goes to .bench_build/ at the root of
# the checkout, everything a run leaves behind to bench/out/; nothing is
# read or written outside the checkout (the go tool's own cache and its
# telemetry counters, which live under the user's config directory,
# included).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$build/config"
cd "$here"
go build -o "$build/walberla-bench" .
exec "$build/walberla-bench" "$@"
