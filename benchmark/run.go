package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow start does not decide it.
const setupRepeats = 3

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	InputsSHA string            `json:"inputs_sha"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the knobs of one run that are not workload constants.
type options struct {
	seed    int64
	seconds float64
	scale   float64 // 1 except in the smoke test
	outDir  string  // trace files and durable data directories
}

func (o options) dataDir(w *workload, tag string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("data-%s-%s-%d", w.name, tag, os.Getpid()))
}

// tally is the failure accounting shared by both kinds of run.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) note(err error) {
	if err != nil && len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// slices is the number of equal parts the closed loop is cut into: the
// commit rate is taken per part and the median part is reported, so a
// single pause (a collection, a flush) moves one part, not the result.
const slices = 5

// e2eStats is the end-to-end view of one measured window.
type e2eStats struct {
	latUS       []float64 // sorted notification latencies of the latency phase
	sampled     int       // commits that should have produced a latency sample
	sloMisses   int
	lost        int // commits never notified
	commits     int // commits in the window
	commitsPerS float64
}

// summarize reads the tracker after a measured window. Latency comes
// from the open-loop phase when the workload has one, throughput always
// from the closed loop.
func (wd *world) summarize(m *measured) e2eStats {
	latPhase := phaseClosed
	if wd.w.openRate > 0 {
		latPhase = phaseOpen
	}
	var s e2eStats
	var lats []time.Duration
	closedDone := make([]int, slices)
	closedSpan := m.closedEnd.Sub(m.closedStart)
	wd.tr.mu.Lock()
	for i := range wd.tr.commits {
		rec := &wd.tr.commits[i]
		if rec.phase == phaseWarm {
			continue
		}
		s.commits++
		notified := rec.remaining == 0
		if !notified {
			s.lost++
		}
		if rec.phase == phaseClosed && notified {
			part := int(int64(rec.done.Sub(m.closedStart)) * slices / int64(closedSpan))
			closedDone[min(max(part, 0), slices-1)]++
		}
		if rec.phase != latPhase || !rec.sample {
			continue
		}
		s.sampled++
		if !notified {
			s.sloMisses++
			continue
		}
		lat := rec.done.Sub(rec.due)
		if lat > sloLimit {
			s.sloMisses++
		}
		lats = append(lats, lat)
	}
	wd.tr.mu.Unlock()
	rates := make([]float64, slices)
	for i, n := range closedDone {
		rates[i] = float64(n) / (closedSpan.Seconds() / slices)
	}
	s.commitsPerS = median(rates)
	s.latUS = usOf(lats)
	return s
}

// resetWindow forgets the tracker's history and the harness timers so a
// second measured window on the same engine starts clean.
func (wd *world) resetWindow() {
	wd.tr.mu.Lock()
	wd.tr.commits = wd.tr.commits[:0]
	for i := range wd.tr.cursor {
		wd.tr.cursor[i] = 0
	}
	wd.tr.acked = 0
	wd.tr.leafSeen = -1
	wd.tr.leafLat = nil
	wd.tr.mu.Unlock()
	wd.pollNS, wd.polls = 0, 0
	wd.lag = nil
}

// engineFailures counts what went wrong inside the engine over a window:
// refresh errors, dropped notifications (both from the obs registry, so
// the ticker's rounds count too) and sequence gaps. A rejected commit
// does not get this far: it aborts the run.
func (wd *world) engineFailures(m *measured) int {
	d := func(name string) int {
		return int(m.statsAfter.Counter(name) - m.statsBefore.Counter(name))
	}
	return d("cq.refresh.errors") + d("cq.notifications.dropped") + wd.tr.takeFaults()
}

// runUntraced is the end-to-end run: set up setupRepeats times (the last
// engine is kept), measure, settle, check every result against complete
// re-evaluation.
func runUntraced(w *workload, o options) (res *result, err error) {
	res = &result{Workload: w.name, Seed: o.seed, Seconds: o.seconds}
	var t tally
	var wd *world
	defer func() {
		if wd != nil {
			if cerr := wd.close(); err == nil {
				err = cerr
			}
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if wd != nil {
			if err := wd.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		wd, err = setUp(w, o.seed, o.scale, o.dataDir(w, "e2e"), false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.InputsSHA = wd.g.inputsSHA()

	m, err := wd.measure(o.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	s := wd.summarize(m)
	if len(s.latUS) == 0 {
		return nil, fmt.Errorf("%s: no latency samples in the measured window", w.name)
	}
	t.attempted = s.commits
	t.failed = wd.engineFailures(m) + s.lost
	if err := wd.settle(); err != nil {
		return nil, fmt.Errorf("%s: settle: %w", w.name, err)
	}
	checked, bad, oerr := wd.oracle(wd.mgr, wd.store)
	t.attempted += checked
	t.failed += bad
	t.note(oerr)

	wd.resetWindow() // the harness's own bookkeeping is not engine heap
	ms := newMetricSet(endToEnd)
	commits := float64(s.commits)
	ms.put("setup_s", median(setups), len(setups))
	ms.put("notify_p50_us", percentile(s.latUS, 50), len(s.latUS))
	ms.put("notify_mean_us", mean(s.latUS), len(s.latUS))
	ms.put("commits_per_s", s.commitsPerS, 0)
	ms.put("cpu_ms_per_commit", float64((m.after.cpu-m.before.cpu).Nanoseconds())/1e6/commits, s.commits)
	ms.put("allocs_per_commit", float64(m.after.mallocs-m.before.mallocs)/commits, s.commits)
	ms.put("alloc_kb_per_commit", float64(m.after.allocated-m.before.allocated)/1024/commits, s.commits)
	ms.put("heap_live_mb", heapLiveMB(), 0)
	res.Metrics = ms.complete()
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	res.Correct = t.failed == 0
	return res, nil
}

// Shares of --seconds the traced run gives its three passes.
const (
	tracedUntracedShare = 0.3
	tracedEngineShare   = 0.3
	tracedReplayShare   = 0.4
)

// runTraced is the per-layer run: the engine again, first untraced (for
// the e2e.* shares and the tracing-overhead base), then with harness
// spans; then the layer replay of the same commit stream.
func runTraced(w *workload, o options) (res *result, err error) {
	res = &result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: true}
	var t tally
	ms := newMetricSet(perLayer)
	spans := newSpanLog()

	wd, err := setUp(w, o.seed, o.scale, o.dataDir(w, "traced"), true)
	defer func() {
		if wd != nil {
			if cerr := wd.close(); err == nil {
				err = cerr
			}
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	res.InputsSHA = wd.g.inputsSHA()
	ms.put("sql.parse_us", mean(wd.parseUS), len(wd.parseUS))
	ms.put("algebra.plan_us", mean(wd.planUS), len(wd.planUS))
	ms.put("dra.prepare_us", mean(wd.prepareUS), len(wd.prepareUS))
	ms.put("cq.register_us", mean(wd.registerUS), len(wd.registerUS))

	// Pass 1: untraced.
	m0, err := wd.measure(o.seconds * tracedUntracedShare)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced pass: %w", w.name, err)
	}
	s0 := wd.summarize(m0)
	t.attempted += s0.commits
	t.failed += wd.engineFailures(m0) + s0.lost
	ms.put("e2e.slo_miss_share", ratio(float64(s0.sloMisses), float64(s0.sampled)), s0.sampled)
	ms.put("e2e.notify_p99_us", percentile(s0.latUS, 99), len(s0.latUS))
	ms.put("e2e.notify_samples", float64(len(s0.latUS)), 0)
	if w.openRate > 0 {
		ms.put("gen.lag_p99_us", percentile(usOf(wd.lag), 99), len(wd.lag))
	}

	// Pass 2: the same engine with spans on.
	wd.resetWindow()
	wd.spans, wd.tr.spans = spans, spans
	m1, err := wd.measure(o.seconds * tracedEngineShare)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	wd.spans, wd.tr.spans = nil, nil
	s1 := wd.summarize(m1)
	t.attempted += s1.commits
	t.failed += wd.engineFailures(m1) + s1.lost
	ms.put("trace.overhead_share", 1-ratio(s1.commitsPerS, s0.commitsPerS), 0)
	leaf := usOf(wd.tr.leafLat)
	ms.put("cascade.leaf_p50_us", percentile(leaf, 50), len(leaf))
	ms.put("cascade.leaf_p99_us", percentile(leaf, 99), len(leaf))
	pollUS := wd.enginePollUS(m1)
	ms.put("cq.poll_us", pollUS, wd.polls)
	wd.counterMetrics(ms, m1, float64(s1.commits))
	ms.put("go.gc_cycles", float64(m1.after.gcCycles-m1.before.gcCycles), 0)
	ms.put("go.gc_pause_ms", float64((m1.after.gcPause-m1.before.gcPause).Nanoseconds())/1e6, 0)

	if err := wd.settle(); err != nil {
		return nil, fmt.Errorf("%s: settle: %w", w.name, err)
	}
	checked, bad, oerr := wd.oracle(wd.mgr, wd.store)
	t.attempted += checked
	t.failed += bad
	t.note(oerr)
	if wd.sys != nil {
		t0 := time.Now()
		if err := wd.sys.Checkpoint(); err != nil {
			return nil, fmt.Errorf("%s: checkpoint: %w", w.name, err)
		}
		ms.put("wal.checkpoint_ms", float64(time.Since(t0).Nanoseconds())/1e6, 1)
		recMS, checked, bad, rerr := wd.recoverCheck()
		if rerr != nil && checked == 0 {
			return nil, fmt.Errorf("%s: recovery: %w", w.name, rerr)
		}
		ms.put("durable.recover_ms", recMS, 1)
		t.attempted += checked
		t.failed += bad
		t.note(rerr)
	}
	if err := wd.close(); err != nil {
		return nil, err
	}
	wd = nil

	// Pass 3: the layer replay.
	r, checked, rerr := runReplay(w, o.seed, o.scale, o.seconds*tracedReplayShare, o.dataDir(w, "replay"), spans)
	if rerr != nil && checked == 0 {
		return nil, fmt.Errorf("%s: replay: %w", w.name, rerr)
	}
	t.attempted += checked + r.fullChecks
	t.failed += r.mismatches
	t.note(rerr)
	replayRoundUS := r.metrics(ms)
	ms.put("cq.overhead_share", 1-ratio(replayRoundUS, pollUS), 0)

	ms.put("e2e.failed_share", ratio(float64(t.failed), float64(t.attempted)), t.attempted)
	res.Metrics = ms.complete()
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	res.Correct = t.failed == 0
	meta := map[string]any{"workload": w.name, "seed": o.seed, "inputs_sha": res.InputsSHA}
	if err := spans.write(o.outDir, w.name, meta); err != nil {
		return nil, err
	}
	return res, nil
}

// enginePollUS is the mean refresh round of the traced engine pass: the
// harness's clock around Manager.Poll for poll workloads, the engine's
// own cq.round_ns histogram for push workloads (whose rounds run on
// router workers the harness cannot time from outside).
func (wd *world) enginePollUS(m *measured) float64 {
	if !wd.w.push {
		return ratio(float64(wd.pollNS.Nanoseconds())/1e3, float64(wd.polls))
	}
	h0, h1 := m.statsBefore.Histograms["cq.round_ns"], m.statsAfter.Histograms["cq.round_ns"]
	wd.polls = int(h1.Count - h0.Count)
	return ratio(float64(h1.SumNS-h0.SumNS)/1e3, float64(wd.polls))
}

// counterMetrics derives the C metrics from the obs registry's change
// over the traced engine pass.
func (wd *world) counterMetrics(ms *metricSet, m *measured, commits float64) {
	d := func(name string) float64 {
		return float64(m.statsAfter.Counter(name) - m.statsBefore.Counter(name))
	}
	hits, misses := d("storage.window_cache.hits"), d("storage.window_cache.misses")
	ms.put("storage.window_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	ms.put("storage.delta_len_end", float64(m.statsAfter.Gauge("storage.delta_len")), 0)
	ms.put("storage.gc_rows", d("storage.gc_rows_collected"), 0)
	ms.put("wal.bytes_per_commit", ratio(d("wal.bytes"), commits), int(commits))
	ms.put("wal.fsyncs", float64(histCount(m, "wal.fsync_ns")), 0)
	ixHits, ixMisses := d("dra.index_cache.hits"), d("dra.index_cache.misses")
	ms.put("dra.index_cache_hit_ratio", ratio(ixHits, ixHits+ixMisses), int(ixHits+ixMisses))
	ms.put("dra.strategy_repicks", d("dra.strategy.repicks"), 0)
	vs, vf := d("dra.vector_steps"), d("dra.vector_fallbacks")
	ms.put("dra.vector_fallback_ratio", ratio(vf, vs+vf), int(vs+vf))
	ms.put("dra.pre_tuples_per_delta_row", ratio(d("dra.pre_tuples_scanned"), d("dra.delta_rows_consumed")), 0)
	ms.put("dra.terms_per_step", ratio(d("dra.terms_evaluated"), d("dra.reevaluations")), 0)
	ms.put("cq.refreshes_per_commit", ratio(d("cq.refreshes"), commits), 0)
	ms.put("cq.trigger_evals_per_commit", ratio(d("cq.trigger_evals"), commits), 0)
	ms.put("cq.template.candidates_per_match", ratio(d("cq.template.dispatch_candidates"), d("cq.template.dispatch_matches")), 0)
	ms.put("cq.template.dispatch_rows_per_commit", ratio(d("cq.template.dispatch_rows"), commits), 0)
	ms.put("cq.materialize_rows_per_commit", ratio(d("cq.materialize.rows"), commits), 0)
	ms.put("cq.notifications", d("cq.notifications"), 0)
	ms.put("cq.notifications_dropped", d("cq.notifications.dropped"), 0)
	ms.put("cq.refresh_errors", d("cq.refresh.errors"), 0)
	ms.put("push.coalesce_ratio", ratio(d("push.coalesced"), d("push.routed")), 0)
	ms.put("push.overflows", d("push.overflows"), 0)
	ms.put("push.queue_depth_end", float64(m.statsAfter.Gauge("push.queue_depth")), 0)
}

func histCount(m *measured, name string) int64 {
	return m.statsAfter.Histograms[name].Count - m.statsBefore.Histograms[name].Count
}

// metrics reports the replay's T metrics and attributed-time shares and
// returns the replay's mean time per refresh round (window + build +
// step + net), the part of a round the engine also does.
func (r *replay) metrics(ms *metricSet) (roundUS float64) {
	ms.put("replay.rounds", float64(r.rounds), 0)
	ms.put("storage.commit_us", r.commit.meanUS(), r.commit.calls)
	ms.put("wal.append_us", r.walAppend.meanUS(), r.walAppend.calls)
	ms.put("push.publish_us", r.publish.meanUS(), r.publish.calls)
	rounds := float64(r.rounds)
	perRound := func(l *lap) float64 { return ratio(float64(l.ns.Nanoseconds())/1e3, rounds) }
	ms.put("storage.window_us", perRound(&r.window), r.rounds)
	ms.put("batch.build_us", perRound(&r.build), r.rounds)
	ms.put("batch.rows_per_build", ratio(float64(r.buildRows), float64(r.build.calls)), r.build.calls)
	ms.put("relation.index_maint_us", perRound(&r.maint), r.rounds)
	ms.put("delta.net_us", r.net.meanUS(), r.net.calls)
	ms.put("cq.materialize_us", r.mater.meanUS(), r.mater.calls)
	for _, k := range []string{"select", "join", "agg", "distinct"} {
		ms.put("dra.step_us."+k, r.step[k].meanUS(), r.step[k].calls)
		if k != "distinct" {
			ms.put("dra.step_allocs."+k, r.step[k].meanAllocs(), r.step[k].calls)
		}
	}
	ms.put("baseline.full_us", r.fullLap.meanUS(), r.fullLap.calls)
	ms.put("dra.speedup_vs_full", ratio(r.fullLap.meanUS(), r.sampledStep.meanUS()), r.fullLap.calls)
	ms.put("remote.refresh_rtt_us", r.mirrorLap.meanUS(), r.mirrorLap.calls)
	perRefresh := ratio(float64(r.mirrorBytes), float64(r.mirrorLap.calls))
	ms.put("remote.bytes_per_refresh", perRefresh, r.mirrorLap.calls)
	ms.put("remote.delta_vs_snapshot_bytes", ratio(perRefresh, float64(r.snapshotBytes)), 0)

	laps := map[string]*lap{
		"share.storage_commit": &r.commit, "share.wal_append": &r.walAppend,
		"share.storage_window": &r.window, "share.batch_build": &r.build,
		"share.dra_step_select": r.step["select"], "share.dra_step_join": r.step["join"],
		"share.dra_step_agg": r.step["agg"], "share.dra_step_distinct": r.step["distinct"],
		"share.index_maint": &r.maint, "share.delta_net": &r.net, "share.materialize": &r.mater,
		"share.push_publish": &r.publish, "share.remote_refresh": &r.mirrorLap,
	}
	var total time.Duration
	for _, l := range laps {
		total += l.ns
	}
	for name, l := range laps {
		ms.put(name, ratio(float64(l.ns), float64(total)), 0)
	}
	var round time.Duration
	for _, l := range []*lap{&r.window, &r.build, &r.net, r.step["select"], r.step["join"], r.step["agg"], r.step["distinct"]} {
		round += l.ns
	}
	return ratio(float64(round.Nanoseconds())/1e3, rounds)
}

// sortedNames lists a metric map's keys in order, for stable output.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
