#!/usr/bin/env bash
# Alternating A/B pairs of the repository benchmark: a parent revision
# against the checkout as it stands (uncommitted edits included). Needs jq.
#
#   scripts/bench-ab.sh PARENT WORKLOAD PAIRS
#   make bench-ab PARENT=HEAD~1 WORKLOAD=batch-warehouse PAIRS=10
#
# PARENT is exported with `git archive` to .bench_build/ab-<rev>/ (kept for
# later calls). Pair i runs `benchmark/run.sh --workload WORKLOAD --seed i` on
# both sides, at the benchmark's own run length, the parent first in odd pairs
# and the change first in even ones, so drift over the session hits both sides
# alike. Each side's runs are gathered into a result set under
# .bench_build/ab-<rev>-<workload>/ and handed to `benchmark -compare`, which
# prints medians, quartiles and verdicts and flags runs that are not correct
# or whose load generator started late. The script then prints, per
# end-to-end metric, how many pairs the change won. The exit code is
# `-compare`'s.
set -euo pipefail

usage="usage: bench-ab.sh PARENT WORKLOAD PAIRS"
parent=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}

root="$(git rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --short "$parent^{commit}")"
base="$root/.bench_build/ab-$rev"
if [ ! -d "$base" ]; then
	mkdir -p "$base.tmp"
	git -C "$root" archive "$rev" | tar -x -C "$base.tmp"
	mv "$base.tmp" "$base"
fi
out="$root/.bench_build/ab-$rev-$workload"
rm -rf "$out"
mkdir -p "$out"
: >"$out/parent.runs"
: >"$out/change.runs"

# run SIDE DIR PAIR appends the run to SIDE.runs as a result-set run. The
# result line carries the end-to-end metrics and the operation counts; the
# generator's lateness is only in the report on stderr, so it is taken from
# there.
run() {
	local log="$out/$1-$3.log" line late
	line=$(bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" 2>"$log" | tail -n 1) || true
	if [ "${line:0:1}" != "{" ]; then
		echo "pair $3: the $1 run printed no result (see $log)" >&2
		return
	fi
	late=$(awk '$1 == "loadgen.late_p95_ms" { print $2 }' "$log")
	jq -c --arg w "$workload" --argjson seed "$3" --argjson late "${late:-0}" \
		'{workload: $w, seed: $seed, correct, attempted, failed,
		  metrics: ((.metrics | map_values(.value)) + {"loadgen.late_p95_ms": $late,
		    failed_ops_ratio: (if .attempted > 0 then .failed / .attempted else 0 end)})}' \
		<<<"$line" >>"$out/$1.runs"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$base" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$base" "$i"
	fi
	echo "pair $i of $pairs done" >&2
done

for side in parent change; do
	jq -s --argjson nproc "$(nproc)" --arg cpu "$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)" \
		'{context: {nproc: $nproc, cpu_model: $cpu}, runs: .}' \
		"$out/$side.runs" >"$out/$side.json"
done
echo "$workload: parent $rev (A) against the checkout (B)"
# Rows of other workloads, and metrics no run here reports, are left out.
code=0
bash "$root/benchmark/run.sh" -compare "$out/parent.json" "$out/change.json" |
	grep -v 'needs at least 2 runs in each set (have 0, 0)' || code=$?

# Pairs won: seeds with a run on both sides where the change's value is
# strictly better in the direction BENCHMARK.json gives.
jq -rn --slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile a "$out/parent.json" --slurpfile b "$out/change.json" '
	($a[0].runs | INDEX(.seed | tostring)) as $pa
	| ($b[0].runs | INDEX(.seed | tostring)) as $pb
	| $spec[0].end_to_end[] as $m
	| [$pa | keys[] | select($pb[.]) | [$pa[.].metrics[$m.name], $pb[.].metrics[$m.name]]
	   | select(all(. != null))]
	| (map(select(if $m.better == "lower" then .[1] < .[0] else .[1] > .[0] end)) | length) as $won
	| "\($m.name): the change won \($won) of \(length) pairs"'
exit "$code"
