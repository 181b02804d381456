#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root. Build outputs and the Go
# build cache stay under .bench_build/ in the checkout.
#
# Usage: bash bench/run.sh [bench flags...]   (see bench/README.md)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/modcache"

(
  cd "$root/bench"
  GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
    go build -o "$build/guvm-bench" .
)

cd "$root"
exec "$build/guvm-bench" "$@"
