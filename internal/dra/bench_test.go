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

// benchStep is one frozen refresh: a prepared selection plan plus the
// context of a pending window, reusable across benchmark iterations
// because a selection has no operand caches to advance.
type benchStep struct {
	prep *Prepared
	ctx  *Context
	ts   int64
}

// newBenchStep seeds |R| = base rows, commits one window of modifies,
// and freezes the refresh inputs the way the cq manager hands them to
// the engine: window compacted once, columnar image prebuilt and shared
// when vectorized.
func newBenchStep(b *testing.B, base, window int, vectorized bool) (*Prepared, *Context, func() error) {
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

	eng := NewEngine()
	eng.Vectorized = vectorized
	prep, err := eng.Prepare(plan, StrategyTruthTable)
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
	if vectorized {
		img, ok := batch.FromDelta(nil, d)
		if !ok {
			b.Fatal("benchmark window unrepresentable in columnar form")
		}
		ctx.Batches = map[string]*batch.Batch{"r": img}
	}
	ts := store.Now()
	step := func() error {
		_, err := prep.Step(ctx, ts)
		return err
	}
	return prep, ctx, step
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

// BenchmarkRefreshStep measures the steady-state prepared refresh step:
// the row/columnar arms over a 2048-row signed window of a 16k-row
// relation, the join arm over a 256-row signed window of a 3-way
// equi-join of 16k-row operands under StrategyAuto (after the warm-up
// that lets the cost model settle on the telescoping kernel) — the
// per-refresh engine work of a pushed CQ, with window fetch,
// compaction, and batch building amortized outside (as the shared
// window cache amortizes them across every CQ of a round). The three
// arms are the allocation contract scripts/check-allocs.sh gates in CI.
func BenchmarkRefreshStep(b *testing.B) {
	b.Run("join", func(b *testing.B) {
		jb := newJoinBench(b, 16_384)
		defer jb.prep.Close()
		for i := 0; i < 3*repickEvery; i++ {
			ctx, ts := jb.window(b, 128)
			jb.step(b, ctx, ts)
		}
		if got := jb.prep.Strategy(); got != StrategyIncremental {
			b.Fatalf("warm-up left strategy %v, want incremental", got)
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

	for _, arm := range []struct {
		name       string
		vectorized bool
	}{{"row", false}, {"columnar", true}} {
		b.Run(arm.name, func(b *testing.B) {
			prep, _, step := newBenchStep(b, 16_384, 1024, arm.vectorized)
			defer prep.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
