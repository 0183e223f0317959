#!/bin/sh
# Measures one run set: every workload on ten seeds, appended to a
# run-set file that -compare reads.
#
#   bench/runset.sh <out.jsonl> <trace: 0|1> <first seed> <workload>...
#
# The workloads run in the order given, so two sets of the same commit can
# use different start orders.
out=$1 trace=$2 seed0=$3
shift 3
here=$(cd "$(dirname "$0")" && pwd)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
failed=0
for i in 0 1 2 3 4 5 6 7 8 9; do
	for w in "$@"; do
		sh "$here/run.sh" --workload "$w" --seed $((seed0 + i)) --seconds "$seconds" --trace "$trace" --out "$out" >/dev/null || failed=1
	done
done
exit $failed
