#!/usr/bin/env bash
# Builds kpserve and the benchmark from source, then runs one benchmark
# run. Run it from the repository root; every build product, cache and
# scratch file stays under .bench_build/ there:
#
#   bash kpbench/run.sh --workload score-suspect --seed 1 --seconds 16 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/kpbench"
mkdir -p "$out/bin" "$out/work" "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$root" -o "$out/bin/kpserve" ./cmd/kpserve
go build -C "$root/kpbench" -o "$out/bin/kpbench" .
exec "$out/bin/kpbench" --kpserve "$out/bin/kpserve" --work "$out/work" "$@"
