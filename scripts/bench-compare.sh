#!/bin/sh
# bench-compare: the repo benchmark on a base commit and on the working
# tree, measured the way a claim has to be — the two sides run
# alternately, the side that goes first swapping every round, so drift
# over the session lands on both — and judged by `benchmark -compare`.
#
#	scripts/bench-compare.sh <base-ref> [pairs]     (pairs defaults to 5)
#
# Each round runs `benchmark -repeat 1` (all four workloads, untraced)
# once per side; the rounds of a side are then merged into one -repeat
# report, .bench_build/compare/base.json and head.json, which a PR can
# commit as its BENCH_*_before/after.json. The base is an export of
# <base-ref> in a temporary directory, built from its own source and
# removed on exit. BENCH_SEED picks the workload seed (default 1; 2 is
# the held-out one). Exits non-zero when any end-to-end metric is
# "worse", an operation failed, or the two sides were fed different
# inputs.
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: scripts/bench-compare.sh <base-ref> [pairs]" >&2
	exit 2
fi
ref=$1
pairs=${2:-5}
seed=${BENCH_SEED:-1}
command -v jq >/dev/null || { echo "bench-compare: jq is needed to merge the rounds' reports" >&2; exit 2; }
cd "$(dirname "$0")/.."
base_sha=$(git rev-parse --short "$ref^{commit}")
head_sha=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain)" ] || head_sha="$head_sha+dirty"

out="$PWD/.bench_build/compare"
rm -rf "$out"
mkdir -p "$out"
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT INT TERM
git archive "$ref" | tar -x -C "$base"

round=1
while [ "$round" -le "$pairs" ]; do
	order="base head"
	[ $((round % 2)) -eq 1 ] || order="head base"
	for side in $order; do
		dir=$PWD
		[ "$side" = head ] || dir=$base
		echo "bench-compare: round $round/$pairs, $side" >&2
		(cd "$dir" && bash benchmark/run.sh -seed "$seed" -repeat 1 -out "$out/$side.$round.json" >/dev/null)
	done
	round=$((round + 1))
done

# One -repeat report per side: the first round's machine block (with the
# commit the export could not know) over every round's runs.
merge() {
	jq -s --arg commit "$2" '{machine: (.[0].machine + {commit: $commit}), runs: (map(.runs) | add)}' \
		"$out/$1".*.json >"$out/$1.json"
}
merge base "$base_sha"
merge head "$head_sha"
bash benchmark/run.sh -compare "$out/base.json" "$out/head.json"
