package bench

import (
	"fmt"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/workload"
)

// engineFixture is a seeded store with a planned query and bookkeeping
// for chained refreshes.
type engineFixture struct {
	store  *storage.Store
	gen    *workload.Stocks
	plan   algebra.Plan
	prev   *relation.Relation
	lastTS vclock.Timestamp
}

func newEngineFixture(n int, seed int64, mix workload.Mix, query string) (*engineFixture, error) {
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		return nil, err
	}
	gen := workload.NewStocks(store, "stocks", seed, mix)
	if err := gen.Seed(n); err != nil {
		return nil, err
	}
	plan, err := algebra.PlanSQL(query, store.Live())
	if err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan)
	prev, err := dra.InitialResult(plan, store.Live())
	if err != nil {
		return nil, err
	}
	return &engineFixture{store: store, gen: gen, plan: plan, prev: prev, lastTS: store.Now()}, nil
}

// ctx assembles DRA inputs for the pending window.
func (f *engineFixture) ctx() (*dra.Context, error) {
	d, err := f.store.DeltaSince("stocks", f.lastTS)
	if err != nil {
		return nil, err
	}
	return &dra.Context{
		Pre:    f.store.At(f.lastTS),
		Post:   f.store.Live(),
		Deltas: map[string]*delta.Delta{"stocks": d},
		LastTS: f.lastTS,
		Prev:   f.prev,
	}, nil
}

// measurePair times one DRA refresh and one full re-evaluation over the
// identical pending window — latency and allocations per run — then
// advances the fixture.
func (f *engineFixture) measurePair(engine *dra.Engine, iters int) (draT, fullT time.Duration, draAllocs, fullAllocs uint64, deltaRows int, err error) {
	ctx, err := f.ctx()
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	deltaRows = ctx.Deltas["stocks"].Len()
	ts := f.store.Now()
	var res *dra.Result
	draT, draAllocs, _, err = stopwatchAllocs(iters, func() error {
		r, err := engine.Reevaluate(f.plan, ctx, ts)
		res = r
		return err
	})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	fullT, fullAllocs, _, err = stopwatchAllocs(iters, func() error {
		_, err := dra.FullReevaluate(f.plan, f.store.Live(), f.prev, ts)
		return err
	})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	f.prev = res.ApplyTo(f.prev)
	f.lastTS = ts
	f.store.CollectGarbage(f.lastTS)
	return draT, fullT, draAllocs, fullAllocs, deltaRows, nil
}

// E2 reproduces the worked Example 2 measurement: the σ_price>120 stock
// query refreshed after Example-1-style transactions, DRA vs complete
// re-evaluation.
func E2(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Example 2: sigma(price>120) differential vs complete re-evaluation",
		Note:   fmt.Sprintf("base |Stocks| = %d, one Example-1 transaction (1 insert, 1 modify, 1 delete) per refresh", scale.BaseRows),
		Header: []string{"refresh", "|dR|", "DRA us", "full us", "full/DRA", "DRA allocs", "full allocs"},
	}
	f, err := newEngineFixture(scale.BaseRows, 2, workload.DefaultMix, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		return nil, err
	}
	engine := scale.NewEngine()
	for round := 1; round <= 5; round++ {
		if err := f.gen.Batch(3); err != nil {
			return nil, err
		}
		draT, fullT, draAllocs, fullAllocs, rows, err := f.measurePair(engine, scale.Iterations)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(round), fmt.Sprint(rows), us(draT), us(fullT), ratio(draT, fullT),
			fmt.Sprint(draAllocs), fmt.Sprint(fullAllocs),
		})
	}
	return t, nil
}

// E3 sweeps the update fraction |ΔR|/|R| to locate the crossover where
// complete re-evaluation overtakes DRA (Section 4.2's observation (iii)
// and the strawman arguments of 5.1).
func E3(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "update-fraction sweep: DRA vs complete re-evaluation",
		Note:   fmt.Sprintf("base |R| = %d, sigma(price>120), modify-heavy mix", scale.BaseRows),
		Header: []string{"dR/R", "|dR|", "DRA us", "full us", "full/DRA"},
	}
	fractions := []float64{0.0005, 0.002, 0.01, 0.05, 0.2, 0.5, 1.0}
	for _, frac := range fractions {
		f, err := newEngineFixture(scale.BaseRows, 3, workload.DefaultMix, "SELECT * FROM stocks WHERE price > 120")
		if err != nil {
			return nil, err
		}
		n := int(frac * float64(scale.BaseRows))
		if n < 1 {
			n = 1
		}
		if err := f.gen.Batch(n); err != nil {
			return nil, err
		}
		draT, fullT, _, _, rows, err := f.measurePair(scale.NewEngine(), scale.Iterations)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f%%", frac*100), fmt.Sprint(rows), us(draT), us(fullT), ratio(draT, fullT),
		})
	}
	return t, nil
}

// E4 sweeps query selectivity at a fixed small update fraction
// (observation (ii): DRA pays off when the query is selective).
func E4(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "selectivity sweep at 1% updates",
		Note:   fmt.Sprintf("base |R| = %d, prices uniform in [0,200), threshold sets selectivity", scale.BaseRows),
		Header: []string{"selectivity", "|result|", "DRA us", "full us", "full/DRA"},
	}
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		threshold := 200 * (1 - sel)
		query := fmt.Sprintf("SELECT * FROM stocks WHERE price > %.3f", threshold)
		f, err := newEngineFixture(scale.BaseRows, 4, workload.DefaultMix, query)
		if err != nil {
			return nil, err
		}
		resultLen := f.prev.Len()
		if err := f.gen.Batch(scale.BaseRows / 100); err != nil {
			return nil, err
		}
		draT, fullT, _, _, _, err := f.measurePair(scale.NewEngine(), scale.Iterations)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f%%", sel*100), fmt.Sprint(resultLen), us(draT), us(fullT), ratio(draT, fullT),
		})
	}
	return t, nil
}

// joinFixture builds the 3-way join A ⋈ B ⋈ C used by E5 and the
// ablations.
type joinFixture struct {
	store  *storage.Store
	plan   algebra.Plan
	prev   *relation.Relation
	lastTS vclock.Timestamp
	tids   map[string][]relation.TID
}

func newJoinFixture(n int, seed int64) (*joinFixture, error) {
	store := storage.NewStore()
	schemas := map[string]relation.Schema{
		"a": relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "tag", Type: relation.TString}),
		"b": relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "y", Type: relation.TInt}),
		"c": relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt}, relation.Column{Name: "name", Type: relation.TString}),
	}
	for name, schema := range schemas {
		if err := store.CreateTable(name, schema); err != nil {
			return nil, err
		}
	}
	jf := &joinFixture{store: store, tids: make(map[string][]relation.TID)}
	// Key domains sized so each join key matches ~1 partner row.
	tx := store.Begin()
	for i := 0; i < n; i++ {
		ta, err := tx.Insert("a", []relation.Value{relation.Int(int64(i)), relation.Str(fmt.Sprintf("tag%d", i%7))})
		if err != nil {
			return nil, err
		}
		tb, err := tx.Insert("b", []relation.Value{relation.Int(int64(i)), relation.Int(int64(i * 2))})
		if err != nil {
			return nil, err
		}
		tc, err := tx.Insert("c", []relation.Value{relation.Int(int64(i * 2)), relation.Str(fmt.Sprintf("c%d", i))})
		if err != nil {
			return nil, err
		}
		jf.tids["a"] = append(jf.tids["a"], ta)
		jf.tids["b"] = append(jf.tids["b"], tb)
		jf.tids["c"] = append(jf.tids["c"], tc)
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	plan, err := algebra.PlanSQL("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y", store.Live())
	if err != nil {
		return nil, err
	}
	jf.plan = algebra.Optimize(plan)
	prev, err := dra.InitialResult(jf.plan, store.Live())
	if err != nil {
		return nil, err
	}
	jf.prev = prev
	jf.lastTS = store.Now()
	_ = seed
	return jf, nil
}

// touch modifies k tuples in each of the named tables.
func (jf *joinFixture) touch(k int, tables ...string) error {
	tx := jf.store.Begin()
	for _, table := range tables {
		for i := 0; i < k; i++ {
			tid := jf.tids[table][i]
			schema, err := jf.store.Schema(table)
			if err != nil {
				return err
			}
			snap, err := jf.store.Contents(table)
			if err != nil {
				return err
			}
			cur, ok := snap.Lookup(tid)
			if !ok {
				continue
			}
			vals := make([]relation.Value, len(cur.Values))
			copy(vals, cur.Values)
			// Mutate the non-key column.
			last := schema.Len() - 1
			if schema.Col(last).Type == relation.TString {
				vals[last] = relation.Str(cur.Values[last].AsString() + "'")
			} else {
				vals[last] = relation.Int(cur.Values[last].AsInt() + 1_000_000)
			}
			if err := tx.Update(table, tid, vals); err != nil {
				return err
			}
		}
	}
	_, err := tx.Commit()
	return err
}

func (jf *joinFixture) ctx() (*dra.Context, error) {
	deltas := make(map[string]*delta.Delta, 3)
	for _, table := range []string{"a", "b", "c"} {
		d, err := jf.store.DeltaSince(table, jf.lastTS)
		if err != nil {
			return nil, err
		}
		deltas[table] = d
	}
	return &dra.Context{
		Pre:    jf.store.At(jf.lastTS),
		Post:   jf.store.Live(),
		Deltas: deltas,
		LastTS: jf.lastTS,
		Prev:   jf.prev,
	}, nil
}

// E5 measures the truth-table expansion on a 3-way join as the number of
// changed operands k grows: 2^k - 1 terms (Algorithm 1 step 1).
func E5(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "3-way join: truth-table terms vs changed operands",
		Note:   fmt.Sprintf("|A|=|B|=|C| = %d, 10 modified tuples per changed operand", scale.BaseRows/5),
		Header: []string{"changed", "terms", "DRA us", "full us", "full/DRA"},
	}
	subsets := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}}
	for _, tables := range subsets {
		jf, err := newJoinFixture(scale.BaseRows/5, 5)
		if err != nil {
			return nil, err
		}
		if err := jf.touch(10, tables...); err != nil {
			return nil, err
		}
		ctx, err := jf.ctx()
		if err != nil {
			return nil, err
		}
		engine := scale.NewEngine()
		ts := jf.store.Now()
		var lastStats dra.Stats
		draT, err := stopwatch(scale.Iterations, func() error {
			res, err := engine.Reevaluate(jf.plan, ctx, ts)
			if err == nil {
				lastStats = res.Stats
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		fullT, err := stopwatch(scale.Iterations, func() error {
			_, err := dra.FullReevaluate(jf.plan, jf.store.Live(), jf.prev, ts)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("k=%d", len(tables)),
			fmt.Sprint(lastStats.Terms),
			us(draT), us(fullT), ratio(draT, fullT),
		})
	}
	return t, nil
}

// E12 measures the query-refinement rule of Section 5.2: a refresh whose
// update window is provably irrelevant performs no computation ("nothing
// needs to be returned"), where complete re-evaluation would rescan the
// base relation regardless. Batches are insert-only with prices strictly
// on one side of the predicate threshold, so relevance is exact.
func E12(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "irrelevant-update refinement (Section 5.2)",
		Note:   "sigma(price>190), insert-only batches strictly below (irrelevant) or above (relevant) the threshold",
		Header: []string{"irrelevant share", "skipped/refreshes", "DRA us", "full us", "full/DRA"},
	}
	const rounds = 10
	for _, share := range []float64{0, 0.5, 1.0} {
		f, err := newEngineFixture(scale.BaseRows, 12, workload.DefaultMix, "SELECT * FROM stocks WHERE price > 190")
		if err != nil {
			return nil, err
		}
		engine := scale.NewEngine()
		skipped := 0
		var draTotal, fullTotal time.Duration
		for round := 0; round < rounds; round++ {
			lo, hi := 191.0, 200.0 // relevant batch
			if float64(round) < share*rounds {
				lo, hi = 10.0, 150.0 // irrelevant batch
			}
			tx := f.store.Begin()
			for i := 0; i < 20; i++ {
				price := lo + (hi-lo)*float64(i)/20
				if _, err := tx.Insert("stocks", []relation.Value{
					relation.Str("E12"), relation.Float(price), relation.Int(int64(i)),
				}); err != nil {
					return nil, err
				}
			}
			if _, err := tx.Commit(); err != nil {
				return nil, err
			}

			ctx, err := f.ctx()
			if err != nil {
				return nil, err
			}
			ts := f.store.Now()
			start := time.Now()
			res, err := engine.Reevaluate(f.plan, ctx, ts)
			if err != nil {
				return nil, err
			}
			draTotal += time.Since(start)
			if res.Stats.Skipped {
				skipped++
			}
			start = time.Now()
			if _, err := dra.FullReevaluate(f.plan, f.store.Live(), f.prev, ts); err != nil {
				return nil, err
			}
			fullTotal += time.Since(start)
			f.prev = res.ApplyTo(f.prev)
			f.lastTS = ts
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", share*100),
			fmt.Sprintf("%d/%d", skipped, rounds),
			us(draTotal / rounds),
			us(fullTotal / rounds),
			ratio(draTotal, fullTotal),
		})
	}
	return t, nil
}

// E13 measures complete-result maintenance (Section 4.3: Et ∪ inserts −
// deletes) against recomputation as the maintained result grows.
func E13(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "complete-result maintenance vs recompute",
		Note:   "fixed 20-row update batches; result size set by selectivity",
		Header: []string{"|result|", "DRA us", "full us", "full/DRA"},
	}
	for _, sel := range []float64{0.01, 0.1, 0.3, 0.6, 0.95} {
		threshold := 200 * (1 - sel)
		f, err := newEngineFixture(scale.BaseRows, 13,
			workload.DefaultMix, fmt.Sprintf("SELECT * FROM stocks WHERE price > %.3f", threshold))
		if err != nil {
			return nil, err
		}
		size := f.prev.Len()
		if err := f.gen.Batch(20); err != nil {
			return nil, err
		}
		draT, fullT, _, _, _, err := f.measurePair(scale.NewEngine(), scale.Iterations)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(size), us(draT), us(fullT), ratio(draT, fullT)})
	}
	return t, nil
}

// A1 ablates the term-evaluation heuristics (delta-first ordering and
// predicate application order, Section 5.2).
func A1(scale Scale) (*Table, error) {
	return ablateJoin(scale, "A1", "heuristic term ordering on vs off", func(e *dra.Engine, on bool) {
		e.UseHeuristics = on
	})
}

// A2 ablates delta compaction on a join: with heavy per-tuple churn in
// the window, folding each tuple to its net effect shrinks the signed
// rows every truth-table term must join against partner relations.
func A2(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "delta compaction on vs off (churn-heavy join window)",
		Note:   "3-way join; 10 tuples of A modified 40 times each between refreshes",
		Header: []string{"config", "signed rows", "DRA us"},
	}
	for _, compact := range []bool{true, false} {
		jf, err := newJoinFixture(scale.BaseRows/5, 21)
		if err != nil {
			return nil, err
		}
		for round := 0; round < 40; round++ {
			if err := jf.touch(10, "a"); err != nil {
				return nil, err
			}
		}
		engine := scale.NewEngine()
		engine.CompactDeltas = compact
		ctx, err := jf.ctx()
		if err != nil {
			return nil, err
		}
		ts := jf.store.Now()
		var lastStats dra.Stats
		d, err := stopwatch(scale.Iterations, func() error {
			res, err := engine.Reevaluate(jf.plan, ctx, ts)
			if err == nil {
				lastStats = res.Stats
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		name := "compaction on"
		if !compact {
			name = "compaction off"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(lastStats.DeltaRows), us(d)})
	}
	return t, nil
}

// A3 ablates hash joins inside differential terms.
func A3(scale Scale) (*Table, error) {
	return ablateJoin(scale, "A3", "hash join vs nested loop in term evaluation", func(e *dra.Engine, on bool) {
		e.UseHashJoin = on
	})
}

func ablateJoin(scale Scale, id, title string, set func(*dra.Engine, bool)) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Note:   fmt.Sprintf("3-way join, |A|=|B|=|C| = %d, 10 modified tuples in A and C", scale.BaseRows/5),
		Header: []string{"config", "DRA us"},
	}
	for _, on := range []bool{true, false} {
		jf, err := newJoinFixture(scale.BaseRows/5, 31)
		if err != nil {
			return nil, err
		}
		if err := jf.touch(10, "a", "c"); err != nil {
			return nil, err
		}
		ctx, err := jf.ctx()
		if err != nil {
			return nil, err
		}
		engine := scale.NewEngine()
		set(engine, on)
		ts := jf.store.Now()
		d, err := stopwatch(scale.Iterations, func() error {
			_, err := engine.Reevaluate(jf.plan, ctx, ts)
			return err
		})
		if err != nil {
			return nil, err
		}
		name := "on"
		if !on {
			name = "off"
		}
		t.Rows = append(t.Rows, []string{name, us(d)})
	}
	return t, nil
}

// A5 measures the maintained-index join extension (a plan prepared under
// dra.StrategyIncremental: the telescoping kernel over operand replicas)
// against the paper's truth-table evaluation and complete re-evaluation
// on the E5 workload: the maintained variant avoids the per-refresh
// partner scans that bound Algorithm 1's join gains.
func A5(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "A5",
		Title:  "maintained-index join vs truth table vs complete re-evaluation",
		Note:   fmt.Sprintf("3-way join, |A|=|B|=|C| = %d, 10 modified tuples in A per refresh", scale.BaseRows/5),
		Header: []string{"strategy", "refresh us"},
	}
	jf, err := newJoinFixture(scale.BaseRows/5, 51)
	if err != nil {
		return nil, err
	}
	prep, err := scale.NewEngine().Prepare(jf.plan, dra.StrategyIncremental)
	if err != nil {
		return nil, err
	}
	defer prep.Close()
	// The maintainer folds state destructively, so measure the median over
	// a sequence of real windows (one touch + Step per sample) instead of
	// re-running a single window.
	rounds := scale.Iterations*2 + 1
	incTimes := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		if err := jf.touch(10, "a"); err != nil {
			return nil, err
		}
		ctx, err := jf.ctx()
		if err != nil {
			return nil, err
		}
		ts := jf.store.Now()
		start := time.Now()
		res, err := prep.Step(ctx, ts)
		if err != nil {
			return nil, err
		}
		incTimes = append(incTimes, time.Since(start))
		jf.prev = res.ApplyTo(jf.prev)
		jf.lastTS = ts
	}
	sortDurations(incTimes)
	incT := incTimes[len(incTimes)/2]

	// Truth table and complete re-evaluation over the final pending window
	// shape (a fresh identical touch).
	if err := jf.touch(10, "a"); err != nil {
		return nil, err
	}
	ctx, err := jf.ctx()
	if err != nil {
		return nil, err
	}
	ts := jf.store.Now()
	engine := scale.NewEngine()
	ttT, err := stopwatch(scale.Iterations, func() error {
		_, err := engine.Reevaluate(jf.plan, ctx, ts)
		return err
	})
	if err != nil {
		return nil, err
	}
	fullT, err := stopwatch(scale.Iterations, func() error {
		_, err := dra.FullReevaluate(jf.plan, jf.store.Live(), jf.prev, ts)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"maintained indexes (A5)", us(incT)},
		[]string{"truth table (Algorithm 1)", us(ttT)},
		[]string{"complete re-evaluation", us(fullT)},
	)
	return t, nil
}
