#!/usr/bin/env bash
# Paired benchmark guard: runs perfbench on this checkout and on a base
# revision, and fails on a wrong result or a slowdown.
#
#   .github/perfguard.sh HEAD^1
#
# For each workload: five pairs of 3-second untraced runs at seed 1,
# alternating which side runs first. A pair runs back to back, so the
# ratio of its two op_ms_p50 readings cancels the machine's drift between
# pairs. The guard fails when any run's result line is not correct or
# counts failed operations, or when the median of a workload's five
# change/base ratios is over 1.5.
# The base is checked out as a temporary worktree; builds go to a
# temporary directory per side. Both are removed on exit.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE_REV" >&2
	exit 2
fi
workloads=(postmortem campaign stream)
pairs=5
seconds=3
max_ratio=1.5

change=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'git -C "$change" worktree remove --force "$tmp/base" 2>/dev/null || true; git -C "$change" worktree prune; rm -rf "$tmp"' EXIT
git -C "$change" worktree add --quiet --detach "$tmp/base" "$1"

# run SIDE WORKLOAD: one benchmark run of SIDE (base or change); appends
# its op_ms_p50 to $tmp/SIDE-WORKLOAD.
run() {
	local tree=$change line
	[ "$1" = base ] && tree=$tmp/base
	if ! line=$(cd "$tree" && CARGO_TARGET_DIR="$tmp/build-$1" bash perfbench/run.sh \
		--workload "$2" --seed 1 --seconds $seconds --trace 0 2>"$tmp/log" | tail -n 1) ||
		! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null 2>&1; then
		echo "perfguard: $2 on $1 failed: $line" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
	jq '.metrics.op_ms_p50.value' <<<"$line" >>"$tmp/$1-$2"
}

fail=0
for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then run base "$w"; run change "$w"; else run change "$w"; run base "$w"; fi
	done
	ratios=$(jq -nc --slurpfile b "$tmp/base-$w" --slurpfile c "$tmp/change-$w" \
		'[range($b | length) as $i | $c[$i] / $b[$i]]')
	r=$(jq -n "$ratios | sort | .[length / 2 | floor]")
	printf '%-10s op_ms_p50 change/base per pair %s, median %.3f (runs: base %s, change %s)\n' \
		"$w" "$ratios" "$r" "$(jq -sc . "$tmp/base-$w")" "$(jq -sc . "$tmp/change-$w")"
	if jq -e -n "$r > $max_ratio" >/dev/null; then
		echo "perfguard: $w is over ${max_ratio}x slower than the base" >&2
		fail=1
	fi
done
exit $fail
