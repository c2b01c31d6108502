#!/usr/bin/env bash
# Builds the stwigd benchmark from source and runs it with the given flags:
#
#   bash stwigbench/run.sh --workload hot_full --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache, the binary, per-run data dirs and span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/stwigbench" && go build -o "$out/stwigbench" .)
exec "$out/stwigbench" -out "$out" "$@"
