# Development entry points. CI runs the same targets; see
# .github/workflows/ci.yml for the full matrix.

.PHONY: build test race lint chaos bench-smoke bench-compare allocs

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# lint: gofmt, vet, and the guarded-goroutine check — every goroutine
# launched in internal/cq, internal/push, and internal/guard must name
# its recover boundary with a "// guarded:" annotation. gofmt fails the
# target when it lists any file.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	./scripts/lint-guarded.sh

# chaos: the robustness suite — fault isolation transcripts, quarantine
# lifecycle and recovery, subscribe/drop churn, cascade DAG churn
# (register/drop INTO pipelines under concurrent writes and polls), a
# refresh beside a committing writer, the retry of a refresh whose INTO
# commit the overloaded store refused, CQ churn over shared join
# arrangements beside push and poll refreshes, and subscription
# backpressure (in the root package, where the policies run) — under the
# race detector.
chaos:
	go test -race -count=2 -run 'TestChaos|TestQuarantine|TestBudget|TestSubscriber|TestDropRace|TestSubscribeDropChurn|TestManualRefresh|TestHealthCounts|TestTemplateChurnRace|TestTemplateQuarantineIsolation|TestCascadeChurnDAG|TestRefreshReadsNoFurtherThanItsTimestamp|TestRefusedMaterializeRetry|TestArrangementChurnRace' ./internal/cq/
	go test -race -count=2 -run 'TestBackpressure|TestSubscriberBuffer' .
	go test -race -count=2 -run 'TestQuarantineSurvivesRecovery' ./internal/durable/
	go test -race -count=2 -run 'TestWatermark|TestSetWatermarks' ./internal/storage/
	go test -race -count=2 -run 'TestSheds|TestGate' ./internal/push/

# allocs: the refresh's allocation budget — fails when any arm of
# BenchmarkRefreshStep (columnar, notify, join, join_shared, agg,
# distinct), of
# BenchmarkRefreshRound (round: one Poll; push: one commit fanned out to
# push dispatches; members: one commit pushed to a 200-member template
# group, nearly every member refresh empty), of BenchmarkRefreshMirror (mirror: one commit and
# one client-side MirrorCQ refresh) or of BenchmarkRegister (burst: 18
# registrations at one timestamp, initial executions included; resume:
# 200 template members resumed at two LastExec values, then one Poll) or of
# BenchmarkTableApply (apply, apply100k: one 64-row columnar change typed
# into a 5k-row and a 100k-row result table; apply_rows: the same change
# in row form into the 5k-row table; budget 0) exceeds its committed
# baseline
# (scripts/allocs-baseline.txt) by more than 20%.
allocs:
	./scripts/check-allocs.sh

# bench-smoke: build and smoke-test the repo benchmark. benchmark/ is
# its own module, so the root `go test ./...` never compiles it; this is
# what catches an engine API change that breaks it.
bench-smoke:
	cd benchmark && go test ./...

# bench-compare: the repo benchmark on BASE (a git ref) and on the
# working tree, alternated for PAIRS rounds and judged by `benchmark
# -compare`; fails on any "worse". The merged reports stay in
# .bench_build/compare/ for a PR to commit as its before/after.
BASE ?= HEAD~1
PAIRS ?= 5
bench-compare:
	./scripts/bench-compare.sh $(BASE) $(PAIRS)
