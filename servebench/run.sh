#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload align-bulk --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench.bin" .)
exec "$out/servebench.bin" --out "$out/servebench" "$@"
