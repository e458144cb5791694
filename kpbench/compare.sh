#!/usr/bin/env bash
# Compares two sets of runs written by kpbench/runset.sh under the
# bounds in BENCHMARK.json. Run it from the repository root:
#
#   bash kpbench/compare.sh <base-set-dir> <change-set-dir>
#
# With the same directory twice it reports each set's spread, which is
# how the benchmark's own steadiness is checked.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/kpbench"
mkdir -p "$out/bin" "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$root/kpbench" -o "$out/bin/compare" ./compare
exec "$out/bin/compare" -benchmark "$root/BENCHMARK.json" "$@"
