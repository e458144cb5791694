#!/usr/bin/env bash
# Runs the benchmark once per workload for each seed given and keeps
# each run's result line as <set>/<workload>/<seed>.json (full output
# in .log beside it), the layout kpbench/compare.sh reads. Run it from
# the repository root:
#
#   bash kpbench/runset.sh <set-dir> <trace 0|1> <seed>...
#
# Every run measures BENCHMARK.json's run_seconds.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: bash kpbench/runset.sh <set-dir> <trace 0|1> <seed>..." >&2
	exit 2
fi
set_dir=$1 trace=$2
shift 2
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

for seed in "$@"; do
	for w in score-suspect score-browse feed-recrawl; do
		mkdir -p "$set_dir/$w"
		name=$(printf '%06d' "$seed")
		if bash kpbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace "$trace" >"$set_dir/$w/$name.log" 2>&1; then
			tail -n 1 "$set_dir/$w/$name.log" >"$set_dir/$w/$name.json"
		else
			echo "runset: $w seed $seed failed; see $set_dir/$w/$name.log" >&2
			exit 1
		fi
	done
done
