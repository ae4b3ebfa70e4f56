// Benchmarks regenerating the experiments of EXPERIMENTS.md. Each
// BenchmarkE* and BenchmarkA* is the same-numbered experiment or
// ablation, its sub-benchmarks are the points of the table
// EXPERIMENTS.md reports, and b.ReportMetric carries the table's columns
// that are not a time per refresh. The cells seed 20k-row bases where
// the recorded tables used 50k, so absolute numbers differ; who wins, by
// roughly what factor and where crossovers fall are the targets.
//
//	go test -run '^$' -bench . -benchmem .
//	go test -run '^$' -bench BenchmarkE3 -benchmem .   # one experiment
package continual_test

import (
	"fmt"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/workload"
)

const benchBaseRows = 20_000

// benchFixture is a seeded single-table world with a pending update
// window ready for repeated re-evaluation.
type benchFixture struct {
	store  *storage.Store
	plan   algebra.Plan
	prev   *relation.Relation
	ctx    *dra.Context
	execTS vclock.Timestamp
}

func newBenchFixture(b *testing.B, rows, updates int, query string) *benchFixture {
	b.Helper()
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewStocks(store, "stocks", 1, workload.DefaultMix)
	if err := gen.Seed(rows); err != nil {
		b.Fatal(err)
	}
	plan, err := algebra.PlanSQL(query, store.Live())
	if err != nil {
		b.Fatal(err)
	}
	plan = algebra.Optimize(plan)
	prev, err := dra.InitialResult(plan, store.Live())
	if err != nil {
		b.Fatal(err)
	}
	lastTS := store.Now()
	if err := gen.Batch(updates); err != nil {
		b.Fatal(err)
	}
	d, err := store.DeltaSince("stocks", lastTS)
	if err != nil {
		b.Fatal(err)
	}
	return &benchFixture{
		store: store,
		plan:  plan,
		prev:  prev,
		ctx: &dra.Context{
			Pre:    store.At(lastTS),
			Post:   store.Live(),
			Deltas: map[string]*delta.Delta{"stocks": d},
			LastTS: lastTS,
			Prev:   prev,
		},
		execTS: store.Now(),
	}
}

// runDRA steps a plan prepared on engine over the fixture's window,
// b.N times. The fixture's plans are join-free, which keep no state, so
// every iteration does the same work.
func (f *benchFixture) runDRA(b *testing.B, engine *dra.Engine) {
	b.Helper()
	prep, err := engine.Prepare(f.plan, dra.StrategyAuto)
	if err != nil {
		b.Fatal(err)
	}
	defer prep.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Step(f.ctx, f.execTS); err != nil {
			b.Fatal(err)
		}
	}
}

func (f *benchFixture) runFull(b *testing.B) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dra.FullReevaluate(f.plan, f.store.Live(), f.prev, f.execTS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2SelectDRAvsFull: Example 2's query after one Example-1-sized
// transaction.
func BenchmarkE2SelectDRAvsFull(b *testing.B) {
	for _, mode := range []string{"DRA", "Full"} {
		b.Run(mode, func(b *testing.B) {
			f := newBenchFixture(b, benchBaseRows, 3, "SELECT * FROM stocks WHERE price > 120")
			if mode == "DRA" {
				f.runDRA(b, dra.NewEngine())
			} else {
				f.runFull(b)
			}
		})
	}
}

// BenchmarkE3UpdateFractionSweep: refresh cost vs |ΔR|/|R|.
func BenchmarkE3UpdateFractionSweep(b *testing.B) {
	for _, frac := range []float64{0.0005, 0.002, 0.01, 0.05, 0.2, 0.5, 1.0} {
		updates := int(frac * benchBaseRows)
		if updates < 1 {
			updates = 1
		}
		for _, mode := range []string{"DRA", "Full"} {
			b.Run(fmt.Sprintf("f=%g/%s", frac, mode), func(b *testing.B) {
				f := newBenchFixture(b, benchBaseRows, updates, "SELECT * FROM stocks WHERE price > 120")
				if mode == "DRA" {
					f.runDRA(b, dra.NewEngine())
				} else {
					f.runFull(b)
				}
			})
		}
	}
}

// BenchmarkE4SelectivitySweep: refresh cost vs query selectivity at 1%
// updates.
func BenchmarkE4SelectivitySweep(b *testing.B) {
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		threshold := 200 * (1 - sel)
		query := fmt.Sprintf("SELECT * FROM stocks WHERE price > %.3f", threshold)
		for _, mode := range []string{"DRA", "Full"} {
			b.Run(fmt.Sprintf("sel=%g/%s", sel, mode), func(b *testing.B) {
				f := newBenchFixture(b, benchBaseRows, benchBaseRows/100, query)
				if mode == "DRA" {
					f.runDRA(b, dra.NewEngine())
				} else {
					f.runFull(b)
				}
			})
		}
	}
}

// joinStream is the 3-way join A ⋈ B ⋈ C over rows tuples per operand,
// standing as a plan prepared and seeded on an engine. Each window is
// churn commits, each modifying the same 10 tuples of every touched
// operand (the next 10 in the next window).
type joinStream struct {
	store   *storage.Store
	plan    algebra.Plan
	prep    *dra.Prepared
	tids    map[string][]relation.TID
	touched []string
	churn   int
	windows int
	lastTS  vclock.Timestamp
}

func newJoinStream(b *testing.B, engine *dra.Engine, rows, churn int, touched ...string) *joinStream {
	b.Helper()
	j := &joinStream{store: storage.NewStore(), tids: map[string][]relation.TID{}, touched: touched, churn: churn}
	for name, schema := range map[string]relation.Schema{
		"a": relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "tag", Type: relation.TString}),
		"b": relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "y", Type: relation.TInt}),
		"c": relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt}, relation.Column{Name: "name", Type: relation.TString}),
	} {
		if err := j.store.CreateTable(name, schema); err != nil {
			b.Fatal(err)
		}
	}
	tx := j.store.Begin()
	for i := 0; i < rows; i++ {
		ta, _ := tx.Insert("a", []relation.Value{relation.Int(int64(i)), relation.Str("t")})
		tb, _ := tx.Insert("b", []relation.Value{relation.Int(int64(i)), relation.Int(int64(2 * i))})
		tc, _ := tx.Insert("c", []relation.Value{relation.Int(int64(2 * i)), relation.Str("c")})
		j.tids["a"] = append(j.tids["a"], ta)
		j.tids["b"] = append(j.tids["b"], tb)
		j.tids["c"] = append(j.tids["c"], tc)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	plan, err := algebra.PlanSQL("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y", j.store.Live())
	if err != nil {
		b.Fatal(err)
	}
	j.plan = algebra.Optimize(plan)
	if j.prep, err = engine.Prepare(j.plan, dra.StrategyAuto); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(j.prep.Close)
	j.lastTS = j.store.Now()
	if _, err := j.prep.Seed(j.store.Live(), j.lastTS); err != nil {
		b.Fatal(err)
	}
	return j
}

// commit commits the next window.
func (j *joinStream) commit(b *testing.B) {
	b.Helper()
	for c := 0; c < j.churn; c++ {
		tx := j.store.Begin()
		for _, table := range j.touched {
			live, _ := j.store.Contents(table)
			for k := 0; k < 10; k++ {
				tid := j.tids[table][(j.windows*10+k)%len(j.tids[table])]
				cur, _ := live.Lookup(tid)
				vals := append([]relation.Value(nil), cur.Values...)
				if vals[1].Kind == relation.TString {
					vals[1] = relation.Str(vals[1].AsString() + "'")
				} else {
					vals[1] = relation.Int(vals[1].AsInt() + 1)
				}
				if err := tx.Update(table, tid, vals); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	j.windows++
}

// step commits the next window with the timer stopped and times the
// plan's step over it.
func (j *joinStream) step(b *testing.B) *dra.Result {
	b.Helper()
	b.StopTimer()
	j.commit(b)
	ctx := &dra.Context{Pre: j.store.At(j.lastTS), Post: j.store.Live(), Deltas: map[string]*delta.Delta{}, LastTS: j.lastTS}
	for _, name := range []string{"a", "b", "c"} {
		d, err := j.store.DeltaSince(name, j.lastTS)
		if err != nil {
			b.Fatal(err)
		}
		ctx.Deltas[name] = d
	}
	ts := j.store.Now()
	b.StartTimer()
	res, err := j.prep.Step(ctx, ts)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	j.lastTS = ts
	j.store.CollectGarbage(ts)
	b.StartTimer()
	return res
}

// BenchmarkE5JoinTerms: 3-way join, k changed operands: one telescoping
// term per changed operand, where Algorithm 1's truth table runs 2^k−1.
func BenchmarkE5JoinTerms(b *testing.B) {
	cases := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}}
	for _, touched := range cases {
		b.Run(fmt.Sprintf("k=%d/DRA", len(touched)), func(b *testing.B) {
			j := newJoinStream(b, dra.NewEngine(), 4000, 1, touched...)
			var res *dra.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = j.step(b)
			}
			b.ReportMetric(float64(res.Stats.Terms), "terms")
		})
	}
	b.Run("Full", func(b *testing.B) {
		j := newJoinStream(b, dra.NewEngine(), 4000, 1, "a")
		prev, err := dra.InitialResult(j.plan, j.store.Live())
		if err != nil {
			b.Fatal(err)
		}
		j.commit(b)
		ts := j.store.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dra.FullReevaluate(j.plan, j.store.Live(), prev, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6NetworkBytes: per-refresh wire bytes, delta vs full-result
// shipping, as the updates per refresh grow. Bytes reported as custom
// metrics.
func BenchmarkE6NetworkBytes(b *testing.B) {
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewStocks(store, "stocks", 6, workload.DefaultMix)
	if err := gen.Seed(benchBaseRows / 2); err != nil {
		b.Fatal(err)
	}
	srv := remote.NewServer(store)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	const query = "SELECT * FROM stocks WHERE price > 120"
	for _, updates := range []int{1, 10, 100, 1000} {
		for _, mode := range []string{"delta", "full"} {
			b.Run(fmt.Sprintf("updates=%d/%s", updates, mode), func(b *testing.B) {
				client, err := remote.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = client.Close() }()
				refresh := func() error { _, _, err := client.Query(query); return err }
				if mode == "delta" {
					mirror, err := remote.NewMirrorCQ(client, query)
					if err != nil {
						b.Fatal(err)
					}
					refresh = func() error { _, err := mirror.Refresh(); return err }
				}
				start := client.BytesRead()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := gen.Batch(updates); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := refresh(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(client.BytesRead()-start)/float64(b.N), "wireB/op")
			})
		}
	}
}

// BenchmarkE7ClientScalability: server tuples scanned per refresh round
// as clients multiply, full-shipping vs delta-shipping.
func BenchmarkE7ClientScalability(b *testing.B) {
	const query = "SELECT * FROM stocks WHERE price > 120"
	for _, nClients := range []int{1, 2, 4, 8, 16} {
		for _, mode := range []string{"full-shipping", "delta-shipping"} {
			b.Run(fmt.Sprintf("clients=%d/%s", nClients, mode), func(b *testing.B) {
				store := storage.NewStore()
				if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
					b.Fatal(err)
				}
				gen := workload.NewStocks(store, "stocks", 7, workload.DefaultMix)
				if err := gen.Seed(benchBaseRows / 2); err != nil {
					b.Fatal(err)
				}
				srv := remote.NewServer(store)
				addr, err := srv.Serve("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = srv.Close() }()
				refreshes := make([]func() error, nClients)
				for i := range refreshes {
					c, err := remote.Dial(addr)
					if err != nil {
						b.Fatal(err)
					}
					defer func() { _ = c.Close() }()
					refreshes[i] = func() error { _, _, err := c.Query(query); return err }
					if mode == "delta-shipping" {
						m, err := remote.NewMirrorCQ(c, query)
						if err != nil {
							b.Fatal(err)
						}
						refreshes[i] = func() error { _, err := m.Refresh(); return err }
					}
				}
				before := srv.Stats().TuplesExecuted
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := gen.Batch(10); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, refresh := range refreshes {
						if err := refresh(); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(srv.Stats().TuplesExecuted-before)/float64(b.N), "srvTuples/op")
			})
		}
	}
}

// BenchmarkE8TriggerEval: differential trigger evaluation vs base scan,
// as the update window grows.
func BenchmarkE8TriggerEval(b *testing.B) {
	store := storage.NewStore()
	if err := store.CreateTable("accounts", workload.AccountSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewAccounts(store, "accounts", 8)
	for i := 0; i < benchBaseRows; i++ {
		if err := gen.Deposit(0); err != nil {
			b.Fatal(err)
		}
	}
	amountExpr, _ := sql.ParseExpr("amount")
	plan, err := algebra.PlanSQL("SELECT SUM(amount) AS total FROM accounts", store.Live())
	if err != nil {
		b.Fatal(err)
	}
	for _, ops := range []int{1, 10, 100, 1000} {
		mark := store.Now()
		if err := gen.Activity(ops); err != nil {
			b.Fatal(err)
		}
		window, err := store.DeltaSince("accounts", mark)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("window=%d/differential", ops), func(b *testing.B) {
			acct, err := epsilon.NewAccountant(epsilon.Spec{Expr: amountExpr, Bound: 1e18}, workload.AccountSchema())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acct.Reset()
				if err := acct.Observe(window); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("window=%d/base-scan", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.NewExecutor(store.Live()).Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9GC: cost of one garbage collection pass over a large
// differential relation. Each op commits one batch of benchBaseRows/2
// modifications with the timer stopped, so the log holds the previous
// batch and this one, and collects at their boundary: half the log goes,
// half is copied down.
func BenchmarkE9GC(b *testing.B) {
	const rows = benchBaseRows / 2
	store := storage.NewStore()
	if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewStocks(store, "stocks", 9, workload.Mix{Modify: 1})
	if err := gen.Seed(rows); err != nil {
		b.Fatal(err)
	}
	collected := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		horizon := store.Now() // the older half of the log ends here
		if err := gen.Batch(rows); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		collected += store.CollectGarbage(horizon)
	}
	b.ReportMetric(float64(collected)/float64(b.N), "rows_collected/op")
}

// BenchmarkE10EpsilonSweep: refreshes per 400-op deposit/withdrawal
// stream across the epsilon bounds, and the largest divergence the CQ
// accumulated before a refresh.
func BenchmarkE10EpsilonSweep(b *testing.B) {
	for _, bound := range []float64{100_000, 500_000, 1_000_000, 2_000_000, 4_000_000} {
		b.Run(fmt.Sprintf("eps=%.0fk", bound/1e3), func(b *testing.B) {
			refreshes, maxDiv := 0, 0.0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := storage.NewStore()
				if err := store.CreateTable("accounts", workload.AccountSchema()); err != nil {
					b.Fatal(err)
				}
				mgr := cq.NewManager(store)
				on, _ := sql.ParseExpr("amount")
				if _, err := mgr.Register(cq.Def{
					Name:    "banksum",
					Query:   "SELECT SUM(amount) AS total FROM accounts",
					Trigger: sql.TriggerSpec{Kind: sql.TriggerEpsilon, Bound: bound, On: on},
				}); err != nil {
					b.Fatal(err)
				}
				gen := workload.NewAccounts(store, "accounts", 10)
				b.StartTimer()
				for op := 0; op < 400; op++ {
					if err := gen.Activity(1); err != nil {
						b.Fatal(err)
					}
					st, err := mgr.State("banksum")
					if err != nil {
						b.Fatal(err)
					}
					maxDiv = max(maxDiv, st.Divergence)
					n, err := mgr.Poll()
					if err != nil {
						b.Fatal(err)
					}
					refreshes += n
				}
				b.StopTimer()
				_ = mgr.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(refreshes)/float64(b.N), "refreshes/op")
			b.ReportMetric(maxDiv, "max_divergence")
		})
	}
}

// BenchmarkE11AppendOnly: per-step cost of the Terry-style baseline vs
// DRA on an append-only stream.
func BenchmarkE11AppendOnly(b *testing.B) {
	setup := func(b *testing.B) (*storage.Store, algebra.Plan, *workload.Stocks) {
		store := storage.NewStore()
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStocks(store, "stocks", 11, workload.AppendOnlyMix)
		if err := gen.Seed(benchBaseRows / 2); err != nil {
			b.Fatal(err)
		}
		plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 120", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		return store, algebra.Optimize(plan), gen
	}
	b.Run("append-only-baseline", func(b *testing.B) {
		store, plan, gen := setup(b)
		ao, err := baseline.NewAppendOnly(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		last := store.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(20); err != nil {
				b.Fatal(err)
			}
			d, err := store.DeltaSince("stocks", last)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ao.Step(map[string]*delta.Delta{"stocks": d}, store.At(last), store.Live(), store.Now()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			last = store.Now()
			b.StartTimer()
		}
	})
	b.Run("dra", func(b *testing.B) {
		store, plan, gen := setup(b)
		prep, err := dra.NewEngine().Prepare(plan, dra.StrategyAuto)
		if err != nil {
			b.Fatal(err)
		}
		defer prep.Close()
		last := store.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := gen.Batch(20); err != nil {
				b.Fatal(err)
			}
			d, err := store.DeltaSince("stocks", last)
			if err != nil {
				b.Fatal(err)
			}
			ctx := &dra.Context{
				Pre: store.At(last), Post: store.Live(),
				Deltas: map[string]*delta.Delta{"stocks": d},
				LastTS: last,
			}
			b.StartTimer()
			if _, err := prep.Step(ctx, store.Now()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			last = store.Now()
			b.StartTimer()
		}
	})
}

// BenchmarkE12IrrelevantUpdates: the §5.2 refinement as the share of
// irrelevant update batches grows. Each op commits one 20-row
// insert-only batch with the timer stopped, strictly below σ(price>190)'s
// threshold (irrelevant) for the first share×10 of every 10 ops and above
// it otherwise, and refreshes once: DRA, or complete re-evaluation, the
// paper's comparison point. skipped/op is the share of refreshes DRA
// reported skipped; relevance is a by-product of the evaluation, so the
// refinement has no arm of its own to time.
func BenchmarkE12IrrelevantUpdates(b *testing.B) {
	for _, share := range []float64{0, 0.5, 1.0} {
		for _, mode := range []string{"refinement-on", "full"} {
			b.Run(fmt.Sprintf("share=%g/%s", share, mode), func(b *testing.B) {
				f := newBenchFixture(b, benchBaseRows, 0, "SELECT * FROM stocks WHERE price > 190")
				prep, err := dra.NewEngine().Prepare(f.plan, dra.StrategyAuto)
				if err != nil {
					b.Fatal(err)
				}
				defer prep.Close()
				skipped := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					lo, hi := 191.0, 200.0
					if float64(i%10) < share*10 {
						lo, hi = 10.0, 150.0
					}
					tx := f.store.Begin()
					for k := 0; k < 20; k++ {
						if _, err := tx.Insert("stocks", []relation.Value{
							relation.Str("E12"), relation.Float(lo + (hi-lo)*float64(k)/20), relation.Int(int64(k)),
						}); err != nil {
							b.Fatal(err)
						}
					}
					ts, err := tx.Commit()
					if err != nil {
						b.Fatal(err)
					}
					d, err := f.store.DeltaSince("stocks", f.ctx.LastTS)
					if err != nil {
						b.Fatal(err)
					}
					ctx := &dra.Context{
						Pre: f.store.At(f.ctx.LastTS), Post: f.store.Live(),
						Deltas: map[string]*delta.Delta{"stocks": d},
						LastTS: f.ctx.LastTS, Prev: f.prev,
					}
					b.StartTimer()
					var res *dra.Result
					if mode == "full" {
						res, err = dra.FullReevaluate(f.plan, f.store.Live(), f.prev, ts)
					} else {
						res, err = prep.Step(ctx, ts)
					}
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Skipped {
						skipped++
					}
					f.prev = res.ApplyTo(f.prev)
					f.ctx.LastTS = ts
					f.store.CollectGarbage(ts)
					b.StartTimer()
				}
				b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
			})
		}
	}
}

// BenchmarkE13AssembleComplete: complete-result maintenance as the
// maintained result grows with the query's selectivity.
func BenchmarkE13AssembleComplete(b *testing.B) {
	for _, sel := range []float64{0.01, 0.1, 0.3, 0.6, 0.95} {
		query := fmt.Sprintf("SELECT * FROM stocks WHERE price > %.3f", 200*(1-sel))
		for _, mode := range []string{"DRA", "Full"} {
			b.Run(fmt.Sprintf("sel=%g/%s", sel, mode), func(b *testing.B) {
				f := newBenchFixture(b, benchBaseRows, 20, query)
				if mode == "DRA" {
					f.runDRA(b, dra.NewEngine())
				} else {
					f.runFull(b)
				}
				b.ReportMetric(float64(f.prev.Len()), "result_rows")
			})
		}
	}
}

// BenchmarkA2Compaction: delta compaction on/off over a churn-heavy
// window (10 tuples modified 40 times each), on a selection and on the
// 3-way join; signed_rows is the window the terms evaluate.
func BenchmarkA2Compaction(b *testing.B) {
	mk := func(b *testing.B) *benchFixture {
		store := storage.NewStore()
		if err := store.CreateTable("stocks", workload.StockSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStocks(store, "stocks", 21, workload.DefaultMix)
		if err := gen.Seed(1000); err != nil {
			b.Fatal(err)
		}
		plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 120", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		plan = algebra.Optimize(plan)
		prev, err := dra.InitialResult(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		lastTS := store.Now()
		for round := 0; round < 50; round++ { // churn
			if err := gen.Batch(20); err != nil {
				b.Fatal(err)
			}
		}
		d, err := store.DeltaSince("stocks", lastTS)
		if err != nil {
			b.Fatal(err)
		}
		return &benchFixture{
			store: store, plan: plan, prev: prev,
			ctx: &dra.Context{
				Pre: store.At(lastTS), Post: store.Live(),
				Deltas: map[string]*delta.Delta{"stocks": d},
				LastTS: lastTS, Prev: prev,
			},
			execTS: store.Now(),
		}
	}
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("select/compaction=%v", on), func(b *testing.B) {
			f := mk(b)
			engine := dra.NewEngine()
			engine.CompactDeltas = on
			f.runDRA(b, engine)
		})
		b.Run(fmt.Sprintf("join/compaction=%v", on), func(b *testing.B) {
			engine := dra.NewEngine()
			engine.CompactDeltas = on
			j := newJoinStream(b, engine, 4000, 40, "a")
			var res *dra.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = j.step(b)
			}
			b.ReportMetric(float64(res.Stats.DeltaRows), "signed_rows")
		})
	}
}

// BenchmarkA4IncrementalAggregates: the bank-sum refresh via incremental
// per-group state vs the Propagate fallback.
func BenchmarkA4IncrementalAggregates(b *testing.B) {
	setup := func(b *testing.B) (*storage.Store, algebra.Plan, *dra.Context, vclock.Timestamp) {
		store := storage.NewStore()
		if err := store.CreateTable("accounts", workload.AccountSchema()); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewAccounts(store, "accounts", 44)
		for i := 0; i < benchBaseRows; i++ {
			if err := gen.Deposit(0); err != nil {
				b.Fatal(err)
			}
		}
		plan, err := algebra.PlanSQL("SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts", store.Live())
		if err != nil {
			b.Fatal(err)
		}
		plan = algebra.Optimize(plan)
		prev, err := dra.InitialResult(plan, store.Live())
		if err != nil {
			b.Fatal(err)
		}
		lastTS := store.Now()
		if err := gen.Activity(50); err != nil {
			b.Fatal(err)
		}
		window, err := store.DeltaSince("accounts", lastTS)
		if err != nil {
			b.Fatal(err)
		}
		ctx := &dra.Context{
			Pre:    store.At(lastTS),
			Post:   store.Live(),
			Deltas: map[string]*delta.Delta{"accounts": window},
			LastTS: lastTS,
			Prev:   prev,
		}
		return store, plan, ctx, store.Now()
	}

	b.Run("incremental", func(b *testing.B) {
		store, plan, ctx, ts := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A maintainer folds state destructively; rebuild per iteration
			// from the pre-window snapshot so each Step sees the same work.
			ia, err := dra.NewIncrementalAggregate(dra.NewEngine(), plan, store.At(ctx.LastTS))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ia.Step(ctx, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("propagate-fallback", func(b *testing.B) {
		_, plan, ctx, ts := setup(b)
		prep, err := dra.NewEngine().Prepare(plan, dra.StrategyPropagate)
		if err != nil {
			b.Fatal(err)
		}
		defer prep.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Step(ctx, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA5MaintainedJoin: the maintained-index join extension on the
// E5 k=1 workload: the prepared plan telescopes over its operand
// replicas, each iteration stepping a fresh real window (10 modified
// tuples of A) on one persistent fixture, window generation with the
// timer stopped. It is also E16, a standing query: allocs/op, and
// ix_hits/op, the operand replicas the plan found current.
func BenchmarkA5MaintainedJoin(b *testing.B) {
	b.Run("maintained-indexes", func(b *testing.B) {
		j := newJoinStream(b, dra.NewEngine(), 4000, 1, "a")
		j.step(b) // warm-up: builds the probe indexes the seed did not
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits += j.step(b).Stats.IndexCacheHits
		}
		b.ReportMetric(float64(hits)/float64(b.N), "ix_hits/op")
	})
}

// BenchmarkObsOverhead measures the cost of the obs instrumentation on
// the hot refresh path: the E2 selection refresh with the engine
// attached to a live registry vs fully uninstrumented (Metrics=nil).
// The instrumented path should stay within a few percent — per refresh
// it adds a handful of atomic adds, one histogram slot claim, and a
// span record.
func BenchmarkObsOverhead(b *testing.B) {
	const query = "SELECT * FROM stocks WHERE price > 120"
	b.Run("uninstrumented", func(b *testing.B) {
		f := newBenchFixture(b, benchBaseRows, 3, query)
		f.runDRA(b, dra.NewEngine())
	})
	b.Run("instrumented", func(b *testing.B) {
		f := newBenchFixture(b, benchBaseRows, 3, query)
		engine := dra.NewEngine()
		engine.Instrument(obs.NewRegistry())
		f.runDRA(b, engine)
	})
}
