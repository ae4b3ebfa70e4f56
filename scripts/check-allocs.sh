#!/bin/sh
# check-allocs: a refresh's allocations per operation are a budget, not
# an observation. BenchmarkRefreshStep (internal/dra) measures the
# steady-state refresh over a fixed window, each step into one held
# Result, on a selection (columnar: the step alone; notify: the step and
# ApplyTo), on the telescoping kernel of a 3-way join (join) and of four
# joins sharing the engine's arrangements of three tables, one step each
# (join_shared), and on the group table under a GROUP BY and a DISTINCT
# (agg, distinct);
# BenchmarkRefreshRound (internal/cq) measures the refresh of 64
# selection CQs over a shared window, everything the manager does around
# each step included: one Poll (round), and one commit fanned out to 64
# push dispatches that share the commit's window cache (push); and one
# commit pushed to a 200-member template group of which about three
# members match, so nearly every member refresh is empty (members);
# BenchmarkRefreshMirror (internal/remote) measures the
# client side: one 64-row commit to a 50k-row table and one Refresh of a
# selection MirrorCQ over loopback, server included (mirror);
# BenchmarkRegister (internal/cq) measures registration, the initial
# execution included: sixteen selections, one 3-way join and one GROUP
# BY registered at one timestamp over 16k-row tables (burst), and 200
# members of one selection template resumed at two LastExec values
# into a new manager, then one Poll (resume);
# BenchmarkTableApply (internal/batch) measures the maintained result
# itself: one 64-row columnar change (10% inserts, 10% deletes, 80%
# modifications) applied to a result table by typed writes into its
# slots, at 5k rows (apply) and at 100k (apply100k), and the same change
# in row form (Fits + Apply over a *delta.Delta) at 5k rows
# (apply_rows), budget 0 each.
# This script fails when any arm exceeds its committed baseline
# (scripts/allocs-baseline.txt) by more than 20%.
# Latency is machine-dependent and cannot be gated in CI; allocation
# counts are deterministic for a fixed workload, which makes them the
# one performance number a shared runner can enforce. After a
# deliberate change to the refresh path's allocation behavior, re-run
# the benchmark and update the baseline in the same commit.
set -eu
cd "$(dirname "$0")/.."
baseline=scripts/allocs-baseline.txt
bench=$(go test ./internal/dra -run '^$' -bench BenchmarkRefreshStep -benchmem -benchtime 300x
	go test ./internal/cq -run '^$' -bench 'BenchmarkRefreshRound/(round|push|members)$' -benchmem -benchtime 300x
	go test ./internal/remote -run '^$' -bench BenchmarkRefreshMirror -benchmem -benchtime 300x
	go test ./internal/cq -run '^$' -bench 'BenchmarkRegister/(burst|resume)$' -benchmem -benchtime 20x
	go test ./internal/batch -run '^$' -bench BenchmarkTableApply -benchmem -benchtime 3000x)
echo "$bench"
status=0
while read -r arm base; do
	[ -n "$arm" ] || continue
	cur=$(echo "$bench" | awk -v arm="$arm" '
		$1 ~ "^Benchmark(Refresh(Step|Round|Mirror)|Register|TableApply)/"arm"(-|$)" {
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
		}')
	if [ -z "$cur" ]; then
		echo "check-allocs: no measurement for arm \"$arm\"" >&2
		status=1
		continue
	fi
	limit=$((base + base / 5))
	if [ "$cur" -gt "$limit" ]; then
		echo "check-allocs: $arm arm regressed: $cur allocs/op > $limit (baseline $base + 20%)" >&2
		status=1
	else
		echo "check-allocs: $arm arm ok: $cur allocs/op (baseline $base, limit $limit)"
	fi
done < "$baseline"
exit $status
