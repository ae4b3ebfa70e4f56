package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/workload"
)

// E22 measures cascading materialization (SELECT ... INTO pipelines).
// Two claims are on trial:
//
//  1. Depth costs one commit hop, not one recomputation: a chain of D
//     materialization stages adds D ordinary delta commits between a
//     base-table write and the leaf notification, so commit-to-leaf
//     latency grows roughly linearly in D and stays in refresh-cost
//     territory at every update rate (the "latency" rows, push mode,
//     depth x rate).
//  2. A leaf's refresh cost scales with the delta flowing through its
//     upstream's derived table, not with that table's result size: a
//     pipeline over a 4x larger base with the same per-round batch
//     refreshes in the same time, while a 4x larger batch over the same
//     base does not (the "scaling" rows, staged poll mode).
//  3. The same holds where the stage is an aggregate: a GROUP BY ... INTO
//     stage refreshes in time that follows the signed window, not the
//     number of groups it maintains — flat from 2k to 200k groups under
//     a 256-row window, growing from a 16-row to a 4,096-row window at
//     20k groups (the "rollup" rows; the time is the aggregate step
//     alone — fold and emit, the eval_ns of the stage's refresh span —
//     since materializing the delta is the "scaling" rows' subject).
//
// Columns: mode (latency D=depth / scaling / rollup), the arrival gap,
// round batch or signed window rows, base rows (rollup: groups),
// latency samples or measured rounds, p50/p99 commit-to-leaf-notify
// latency (latency rows), staged-round time (scaling rows) or aggregate
// step time (rollup rows), and end-to-end refreshes per second.
func E22(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E22",
		Title: "cascading CQs: INTO pipeline depth, latency, and delta-bound leaf cost",
		Note: fmt.Sprintf("base %d rows, seed per config, host cores %d; latency rows drive push mode, scaling rows one staged Poll per round, rollup rows time the aggregate step of a GROUP BY INTO stage (base rows = groups, gap/batch = signed window rows)",
			scale.BaseRows, runtime.NumCPU()),
		Header: []string{"mode", "gap/batch", "base rows", "samples", "p50 ms", "p99 ms", "refr/s"},
	}

	// Depth x update rate: commit-to-leaf latency through 1..3
	// materialization stages under a fast and a slow arrival process.
	for _, depth := range []int{1, 2, 3} {
		for _, gap := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
			row, err := e22Latency(scale, depth, gap)
			if err != nil {
				return nil, fmt.Errorf("e22 depth=%d gap=%s: %w", depth, gap, err)
			}
			t.Rows = append(t.Rows, row)
		}
	}

	// Delta-vs-result scaling: fixed batch over growing bases (cost must
	// stay flat), then growing batches over a fixed base (cost must grow).
	for _, cfg := range []struct {
		baseRows, batch int
	}{
		{scale.BaseRows / 4, 64},
		{scale.BaseRows, 64},
		{scale.BaseRows * 4, 64},
		{scale.BaseRows, 16},
		{scale.BaseRows, 256},
	} {
		row, err := e22Scaling(scale, cfg.baseRows, cfg.batch)
		if err != nil {
			return nil, fmt.Errorf("e22 scaling base=%d batch=%d: %w", cfg.baseRows, cfg.batch, err)
		}
		t.Rows = append(t.Rows, row)
	}

	// Result-size vs window for an aggregate stage: a fixed window over
	// growing group counts (cost must stay flat), then growing windows
	// over a fixed group count (cost must grow).
	for _, cfg := range []struct {
		groups, window int
	}{
		{2_000, 256},
		{20_000, 256},
		{200_000, 256},
		{20_000, 16},
		{20_000, 4_096},
	} {
		row, err := e22Rollup(cfg.groups, cfg.window)
		if err != nil {
			return nil, fmt.Errorf("e22 rollup groups=%d window=%d: %w", cfg.groups, cfg.window, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e22Pipeline builds base -> s1 INTO d1 -> ... -> sD INTO dD -> leaf,
// with pass-through predicates so every base delta reaches the leaf.
// The returned generator writes the base table.
func e22Pipeline(store *storage.Store, mgr *cq.Manager, depth, seedRows int) (*workload.Stocks, error) {
	if err := store.CreateTable("base", workload.StockSchema()); err != nil {
		return nil, err
	}
	gen := workload.NewStocks(store, "base", 7, workload.DefaultMix)
	if err := gen.Seed(seedRows); err != nil {
		return nil, err
	}
	src := "base"
	for i := 1; i <= depth; i++ {
		tgt := fmt.Sprintf("d%d", i)
		def := cq.Def{
			Name:  fmt.Sprintf("s%d", i),
			Query: fmt.Sprintf("SELECT * INTO %s FROM %s WHERE price > 1", tgt, src),
		}
		if _, err := mgr.Register(def); err != nil {
			return nil, err
		}
		src = tgt
	}
	leaf := cq.Def{
		Name:        "leaf",
		Query:       fmt.Sprintf("SELECT * FROM %s WHERE price > 1", src),
		NotifyEmpty: true,
	}
	if _, err := mgr.Register(leaf); err != nil {
		return nil, err
	}
	return gen, nil
}

// e22Latency drives one (depth, gap) configuration in push mode: every
// base commit records its wall-clock instant, the leaf subscription
// resolves it when a notification's ExecTS covers the commit, and the
// poll loop runs only as the fallback it is in production.
func e22Latency(scale Scale, depth int, gap time.Duration) ([]string, error) {
	const pollTick = 50 * time.Millisecond
	nCommits := 4 * scale.Iterations
	if nCommits < 12 {
		nCommits = 12
	}
	batch := scale.BaseRows / 200
	if batch < 8 {
		batch = 8
	}

	reg := obs.NewRegistry()
	store := storage.NewStore()
	store.Instrument(reg)
	mgr := cq.NewManagerConfig(store, cq.Config{UseDRA: true, AutoGC: true, Push: true, Metrics: reg})
	defer func() { _ = mgr.Close() }()
	gen, err := e22Pipeline(store, mgr, depth, scale.BaseRows)
	if err != nil {
		return nil, err
	}

	var probeMu sync.Mutex
	sent := make(map[vclock.Timestamp]time.Time)
	var lats []time.Duration
	cancel, err := mgr.SubscribeFunc("leaf", func(n cq.Notification, closed bool) {
		if closed {
			return
		}
		now := time.Now()
		probeMu.Lock()
		for ts, at := range sent {
			if ts <= n.ExecTS {
				lats = append(lats, now.Sub(at))
				delete(sent, ts)
			}
		}
		probeMu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	defer cancel()
	if err := mgr.Start(pollTick); err != nil {
		return nil, err
	}

	base := reg.Snapshot().Counter("cq.refreshes")
	start := time.Now()
	err = workload.Steady(gap).Run(nCommits, func(int) error {
		if err := gen.Batch(batch); err != nil {
			return err
		}
		// Single writer: Now() is this commit's timestamp.
		probeMu.Lock()
		sent[store.Now()] = time.Now()
		probeMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Drain: passive first so tail commits resolve through the pipeline
	// being measured, then forced polls for any skipped residue.
	mgr.FlushPush()
	remaining := func() int {
		probeMu.Lock()
		defer probeMu.Unlock()
		return len(sent)
	}
	deadline := time.Now().Add(4*pollTick + 100*time.Millisecond)
	for time.Now().Before(deadline) && remaining() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 5 && remaining() > 0; i++ {
		if _, err := mgr.Poll(); err != nil {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	refreshes := reg.Snapshot().Counter("cq.refreshes") - base
	if err := mgr.Close(); err != nil {
		return nil, err
	}

	sortDurations(lats)
	p50, p99 := time.Duration(0), time.Duration(0)
	if len(lats) > 0 {
		p50 = lats[len(lats)*50/100]
		p99 = lats[min(len(lats)-1, len(lats)*99/100)]
	}
	return []string{
		fmt.Sprintf("latency D=%d", depth),
		gap.String(),
		fmt.Sprint(scale.BaseRows),
		fmt.Sprint(len(lats)),
		fmt.Sprintf("%.2f", float64(p50.Nanoseconds())/1e6),
		fmt.Sprintf("%.2f", float64(p99.Nanoseconds())/1e6),
		fmt.Sprintf("%.0f", float64(refreshes)/elapsed.Seconds()),
	}, nil
}

// e22Scaling measures one staged-poll round (commit batch, then one
// Poll that propagates it through a depth-2 pipeline) for a given base
// size and batch size. The derived tables hold ~baseRows rows
// throughout; if leaf refresh cost scaled with upstream RESULT size the
// round time would track baseRows, if it scales with the DELTA it
// tracks batch.
func e22Scaling(scale Scale, baseRows, batch int) ([]string, error) {
	const depth = 2
	reg := obs.NewRegistry()
	store := storage.NewStore()
	store.Instrument(reg)
	mgr := cq.NewManagerConfig(store, cq.Config{UseDRA: true, AutoGC: true, Metrics: reg})
	defer func() { _ = mgr.Close() }()
	gen, err := e22Pipeline(store, mgr, depth, baseRows)
	if err != nil {
		return nil, err
	}

	// Warm one round so first-touch costs (window allocation, prepared
	// operand caches) stay out of the measurement.
	if err := gen.Batch(batch); err != nil {
		return nil, err
	}
	if _, err := mgr.Poll(); err != nil {
		return nil, err
	}

	rounds := 2 * scale.Iterations
	if rounds < 6 {
		rounds = 6
	}
	base := reg.Snapshot().Counter("cq.refreshes")
	times := make([]time.Duration, 0, rounds)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := gen.Batch(batch); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := mgr.Poll(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
	}
	elapsed := time.Since(start)
	refreshes := reg.Snapshot().Counter("cq.refreshes") - base
	if err := mgr.Close(); err != nil {
		return nil, err
	}

	sortDurations(times)
	p50 := times[len(times)/2]
	p99 := times[len(times)-1]
	return []string{
		fmt.Sprintf("scaling D=%d b=%d", depth, batch),
		fmt.Sprint(batch),
		fmt.Sprint(baseRows),
		fmt.Sprint(rounds),
		fmt.Sprintf("%.2f", float64(p50.Nanoseconds())/1e6),
		fmt.Sprintf("%.2f", float64(p99.Nanoseconds())/1e6),
		fmt.Sprintf("%.0f", float64(refreshes)/elapsed.Seconds()),
	}, nil
}

// e22Rollup measures the refresh of one GROUP BY ... INTO stage that
// maintains `groups` groups (two input rows each) under rounds of
// window/2 modifications — a signed window of `window` rows, a tenth of
// them moving their row to another group — with a filter over the
// derived table as the leaf. The reported time is the eval_ns field of
// the stage's cq.refresh span: the state keeper's Step and nothing else.
func e22Rollup(groups, window int) ([]string, error) {
	const rounds = 100
	reg := obs.NewRegistry()
	store := storage.NewStore()
	mgr := cq.NewManagerConfig(store, cq.Config{UseDRA: true, AutoGC: true, Metrics: reg})
	defer func() { _ = mgr.Close() }()
	if err := store.CreateTable("ev", relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
	)); err != nil {
		return nil, err
	}
	row := func(k, v int) []relation.Value {
		return []relation.Value{relation.Int(int64(k)), relation.Int(int64(v))}
	}
	tids := make([]relation.TID, 0, 2*groups)
	tx := store.Begin()
	for i := 0; i < 2*groups; i++ {
		tid, err := tx.Insert("ev", row(i%groups, i%100))
		if err != nil {
			return nil, err
		}
		tids = append(tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	for _, def := range []cq.Def{
		{Name: "roll", Query: "SELECT k, SUM(v) AS s, COUNT(*) AS n INTO by_k FROM ev GROUP BY k"},
		{Name: "leaf", Query: "SELECT k, s FROM by_k WHERE s > 150", NotifyEmpty: true},
	} {
		if _, err := mgr.Register(def); err != nil {
			return nil, err
		}
	}

	// step commits one window, polls it through, and returns the step
	// time of the roll stage's refresh (the newest such span).
	round := 0
	step := func() (time.Duration, error) {
		tx := store.Begin()
		for i := 0; i < window/2; i++ {
			n := (round*window + i*7919) % len(tids)
			k := n % groups
			if i%10 == 0 {
				k = (n * 31) % groups
			}
			if err := tx.Update("ev", tids[n], row(k, (round+i*13)%100)); err != nil {
				return 0, err
			}
		}
		if _, err := tx.Commit(); err != nil {
			return 0, err
		}
		round++
		if _, err := mgr.Poll(); err != nil {
			return 0, err
		}
		for _, sp := range mgr.Traces().Recent() { // newest first
			if sp.Name != "cq.refresh:roll" {
				continue
			}
			for _, f := range sp.Fields {
				if f.Key == "eval_ns" {
					return time.Duration(f.Value), nil
				}
			}
		}
		return 0, fmt.Errorf("round %d left no cq.refresh:roll span", round)
	}
	if _, err := step(); err != nil { // warm-up, as in e22Scaling
		return nil, err
	}
	// Collect the seeding garbage now: a collection of a 200k-group heap
	// started mid-measurement would tax those rows alone.
	runtime.GC()
	warm := reg.Snapshot().Counter("cq.refreshes")
	times := make([]time.Duration, 0, rounds)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		d, err := step()
		if err != nil {
			return nil, err
		}
		times = append(times, d)
	}
	elapsed := time.Since(start)
	refreshes := reg.Snapshot().Counter("cq.refreshes") - warm

	sortDurations(times)
	return []string{
		fmt.Sprintf("rollup w=%d", window),
		fmt.Sprint(window),
		fmt.Sprint(groups),
		fmt.Sprint(rounds),
		fmt.Sprintf("%.3f", float64(times[len(times)/2].Nanoseconds())/1e6),
		fmt.Sprintf("%.3f", float64(times[len(times)*99/100].Nanoseconds())/1e6),
		fmt.Sprintf("%.0f", float64(refreshes)/elapsed.Seconds()),
	}, nil
}
