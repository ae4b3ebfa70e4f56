package dra

import (
	"fmt"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// newBenchStep seeds |R| = base rows, commits one window of modifies,
// and freezes one refresh — a prepared selection plan plus the context
// and timestamp of the pending window, reusable across benchmark
// iterations because a selection has no operand caches to advance — the
// way the cq manager hands it to the engine: window compacted once,
// columnar image prebuilt and shared.
func newBenchStep(b *testing.B, base, window int) (*Prepared, *Context, vclock.Timestamp) {
	b.Helper()
	store := storage.NewStore()
	schema := relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
	)
	if err := store.CreateTable("r", schema); err != nil {
		b.Fatal(err)
	}
	tx := store.Begin()
	tids := make([]relation.TID, 0, base)
	for i := 0; i < base; i++ {
		tid, err := tx.Insert("r", []relation.Value{
			relation.Str(fmt.Sprintf("k%d", i%97)), relation.Float(float64(i % 200)),
		})
		if err != nil {
			b.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}

	plan, err := algebra.PlanSQL("SELECT * FROM r WHERE a > 120", store.Live())
	if err != nil {
		b.Fatal(err)
	}
	plan = algebra.Optimize(plan)
	prev, err := InitialResult(plan, store.Live())
	if err != nil {
		b.Fatal(err)
	}
	lastTS := store.Now()

	tx = store.Begin()
	for i := 0; i < window; i++ {
		tid := tids[i%len(tids)]
		if err := tx.Update("r", tid, []relation.Value{
			relation.Str(fmt.Sprintf("k%d", i%97)), relation.Float(float64((i * 7) % 200)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}

	prep, err := NewEngine().Prepare(plan, StrategyAuto)
	if err != nil {
		b.Fatal(err)
	}

	d, err := store.DeltaSince("r", lastTS)
	if err != nil {
		b.Fatal(err)
	}
	d = d.Compact()
	ctx := &Context{
		Pre:       store.At(lastTS),
		Post:      store.Live(),
		Deltas:    map[string]*delta.Delta{"r": d},
		LastTS:    lastTS,
		Prev:      prev,
		Versions:  store.ChangeCounts(),
		Compacted: true,
	}
	img, ok := batch.FromDelta(nil, d)
	if !ok {
		b.Fatal("benchmark window unrepresentable in columnar form")
	}
	ctx.Batches = map[string]*batch.Batch{"r": img}
	return prep, ctx, store.Now()
}

// joinBench is a live 3-way equi-join fixture for the join arm: unlike
// a selection, a join step advances its operand replicas, so every
// iteration needs a fresh window, committed and imaged with the timer
// stopped.
type joinBench struct {
	store  *storage.Store
	prep   *Prepared
	prev   *relation.Relation
	tids   [3][]relation.TID
	lastTS vclock.Timestamp
	round  int
}

var joinBenchTables = [3]string{"a", "b", "c"}

func newJoinBench(b *testing.B, base int) *joinBench {
	b.Helper()
	jb := &joinBench{store: storage.NewStore()}
	schema := relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TFloat},
	)
	tx := jb.store.Begin()
	for ti, name := range joinBenchTables {
		if err := jb.store.CreateTable(name, schema); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < base; i++ {
			tid, err := tx.Insert(name, []relation.Value{relation.Int(int64(i)), relation.Int(int64(i)), relation.Float(float64(i % 1000))})
			if err != nil {
				b.Fatal(err)
			}
			jb.tids[ti] = append(jb.tids[ti], tid)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	plan, err := algebra.PlanSQL("SELECT a.id, b.id, c.id, a.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE a.v > 500", jb.store.Live())
	if err != nil {
		b.Fatal(err)
	}
	plan = algebra.Optimize(plan)
	if jb.prep, err = NewEngine().Prepare(plan, StrategyAuto); err != nil {
		b.Fatal(err)
	}
	if jb.prev, err = InitialResult(plan, jb.store.Live()); err != nil {
		b.Fatal(err)
	}
	jb.lastTS = jb.store.Now()
	return jb
}

// window commits `rows` modifications to the round's table (a tenth of
// them key-moving) and returns the refresh inputs as the cq manager
// builds them: compacted window, prebuilt columnar image, change
// counters snapshotted before the execution timestamp.
func (jb *joinBench) window(b *testing.B, rows int) (*Context, vclock.Timestamp) {
	b.Helper()
	ti := jb.round % 3
	table, tids := joinBenchTables[ti], jb.tids[ti]
	tx := jb.store.Begin()
	for i := 0; i < rows; i++ {
		n := (jb.round*rows + i*7) % len(tids)
		k := n
		if i%10 == 0 {
			k = (n * 31) % len(tids)
		}
		if err := tx.Update(table, tids[n], []relation.Value{
			relation.Int(int64(n)), relation.Int(int64(k)), relation.Float(float64((jb.round + i*13) % 1000)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	jb.round++
	ctx := &Context{
		Pre: jb.store.At(jb.lastTS), Post: jb.store.Live(),
		Deltas: map[string]*delta.Delta{}, Batches: map[string]*batch.Batch{},
		LastTS: jb.lastTS, Prev: jb.prev, Compacted: true, Versions: jb.store.ChangeCounts(),
	}
	for _, name := range joinBenchTables {
		d, err := jb.store.DeltaSince(name, jb.lastTS)
		if err != nil {
			b.Fatal(err)
		}
		d = d.Compact()
		ctx.Deltas[name] = d
		if img, ok := batch.FromDelta(nil, d); ok {
			ctx.Batches[name] = img
		}
	}
	return ctx, jb.store.Now()
}

func (jb *joinBench) step(b *testing.B, ctx *Context, ts vclock.Timestamp) {
	res, err := jb.prep.Step(ctx, ts)
	jb.finish(b, res, err, ts)
}

// finish folds a step's result into the fixture's bookkeeping.
func (jb *joinBench) finish(b *testing.B, res *Result, err error, ts vclock.Timestamp) {
	if err != nil {
		b.Fatal(err)
	}
	jb.prev = res.ApplyTo(jb.prev)
	jb.lastTS = ts
	jb.store.CollectGarbage(ts)
}

// groupBench is a live single-table fixture for the agg and distinct
// arms: 16k rows over 2k (k, bucket) groups. A state keeper folds its
// window for good, so — as on the join arm — every iteration commits
// and images a fresh one with the timer stopped.
type groupBench struct {
	store  *storage.Store
	tids   []relation.TID
	lastTS vclock.Timestamp
	round  int
}

const groupBenchKeys = 2048

func groupBenchRow(id, k, v int) []relation.Value {
	return []relation.Value{relation.Int(int64(id)), relation.Int(int64(k)), relation.Int(int64(k % 16)), relation.Int(int64(v))}
}

func newGroupBench(b *testing.B, base int) *groupBench {
	b.Helper()
	gb := &groupBench{store: storage.NewStore()}
	if err := gb.store.CreateTable("e", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "bucket", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
	)); err != nil {
		b.Fatal(err)
	}
	tx := gb.store.Begin()
	for i := 0; i < base; i++ {
		tid, err := tx.Insert("e", groupBenchRow(i, i%groupBenchKeys, i%100))
		if err != nil {
			b.Fatal(err)
		}
		gb.tids = append(gb.tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	gb.lastTS = gb.store.Now()
	return gb
}

// window commits `rows` modifications (a tenth of them moving the row
// to another group) and returns the refresh inputs as the cq manager
// builds them: compacted window plus its prebuilt columnar image.
func (gb *groupBench) window(b *testing.B, rows int) (*Context, vclock.Timestamp) {
	b.Helper()
	tx := gb.store.Begin()
	for i := 0; i < rows; i++ {
		n := (gb.round*rows + i*7) % len(gb.tids)
		k := n % groupBenchKeys
		if i%10 == 0 {
			k = (n * 31) % groupBenchKeys
		}
		if err := tx.Update("e", gb.tids[n], groupBenchRow(n, k, (gb.round+i*13)%100)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	gb.round++
	d, err := gb.store.DeltaSince("e", gb.lastTS)
	if err != nil {
		b.Fatal(err)
	}
	d = d.Compact()
	img, ok := batch.FromDelta(nil, d)
	if !ok {
		b.Fatal("benchmark window unrepresentable in columnar form")
	}
	ctx := &Context{
		Pre: gb.store.At(gb.lastTS), Post: gb.store.Live(), LastTS: gb.lastTS, Compacted: true,
		Deltas: map[string]*delta.Delta{"e": d}, Batches: map[string]*batch.Batch{"e": img},
	}
	return ctx, gb.store.Now()
}

// BenchmarkRefreshStep measures the steady-state refresh step: the
// columnar arm (a selection) over a 2048-row signed window of a 16k-row
// relation; the join arm over a 256-row signed window of a 3-way
// equi-join of 16k-row operands (the telescoping kernel, its replicas
// built by an untimed first step); the agg
// and distinct arms over a 256-row signed window of a 16k-row input —
// GROUP BY two int keys with SUM and COUNT(*) over 2k groups, and
// DISTINCT over 2k values — through the group table. It is the
// per-refresh engine work of a pushed CQ, with window fetch,
// compaction, and batch building amortized outside (as the shared
// window cache amortizes them across every CQ of a round); the notify
// arm adds what follows the step for a selection — ApplyTo, the
// maintenance of the complete result. The five arms, with
// BenchmarkRefreshRound's round arm in internal/cq, are the allocation
// contract scripts/check-allocs.sh gates in CI.
func BenchmarkRefreshStep(b *testing.B) {
	for _, arm := range []struct{ name, query string }{
		{"agg", "SELECT k, bucket, SUM(v) AS s, COUNT(*) AS n FROM e GROUP BY k, bucket"},
		{"distinct", "SELECT DISTINCT k FROM e"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			gb := newGroupBench(b, 16_384)
			plan, err := algebra.PlanSQL(arm.query, gb.store.Live())
			if err != nil {
				b.Fatal(err)
			}
			plan = algebra.Optimize(plan)
			var maint interface {
				Step(*Context, vclock.Timestamp) (*Result, error)
			}
			if arm.name == "agg" {
				maint, err = NewIncrementalAggregate(NewEngine(), plan, gb.store.Live())
			} else {
				maint, err = NewIncrementalDistinct(NewEngine(), plan, gb.store.Live())
			}
			if err != nil {
				b.Fatal(err)
			}
			// The timer is stopped except around Step itself.
			step := func() {
				ctx, ts := gb.window(b, 128)
				b.StartTimer()
				_, err := maint.Step(ctx, ts)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				gb.lastTS = ts
				gb.store.CollectGarbage(ts)
			}
			b.StopTimer()
			for i := 0; i < 3; i++ {
				step() // warm-up: the fold's scratch buffers reach window size
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}

	b.Run("join", func(b *testing.B) {
		jb := newJoinBench(b, 16_384)
		defer jb.prep.Close()
		for i := 0; i < 3; i++ {
			ctx, ts := jb.window(b, 128) // warm-up: the first step builds the replicas
			jb.step(b, ctx, ts)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx, ts := jb.window(b, 128)
			b.StartTimer()
			res, err := jb.prep.Step(ctx, ts)
			b.StopTimer()
			jb.finish(b, res, err, ts)
			b.StartTimer()
		}
	})

	b.Run("columnar", func(b *testing.B) {
		prep, ctx, ts := newBenchStep(b, 16_384, 1024)
		defer prep.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Step(ctx, ts); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same refresh carried through to the maintenance of the complete
	// result, in place, as the cq manager applies it; the notification
	// reads the result's delta as it stands and renders nothing per
	// refresh. Every iteration applies the window to a fresh copy of the
	// pre-window result, cloned with the timer stopped.
	b.Run("notify", func(b *testing.B) {
		prep, ctx, ts := newBenchStep(b, 16_384, 1024)
		defer prep.Close()
		before := ctx.Prev
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx.Prev = before.Clone()
			b.StartTimer()
			res, err := prep.Step(ctx, ts)
			if err != nil {
				b.Fatal(err)
			}
			ctx.Prev = res.ApplyTo(ctx.Prev)
		}
	})
}
