package dra

import (
	"fmt"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
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

// joinBench is a live fixture of equi-joins over three tables for the
// join arms, every plan prepared on one engine, so they share its
// arrangements: unlike a selection, a join step advances the
// arrangements, so every iteration needs a fresh window, committed and
// imaged with the timer stopped.
type joinBench struct {
	store  *storage.Store
	preps  []*Prepared
	prevs  []*relation.Relation
	tids   [3][]relation.TID
	lastTS vclock.Timestamp
	round  int
}

var joinBenchTables = [3]string{"a", "b", "c"}

// joinBenchQueries are the join arm's 3-way join and, for the
// join_shared arm, the three other joins of the repo benchmark's
// join3_churn workload beside it.
var joinBenchQueries = []string{
	"SELECT a.id, b.id, c.id, a.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE a.v > 500",
	"SELECT a.id, b.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE c.v < 300",
	"SELECT a.id, b.id, a.v, b.v FROM a JOIN b ON a.k = b.k WHERE b.v < 400",
	"SELECT b.id, c.v FROM b JOIN c ON b.k = c.k",
}

func newJoinBench(b *testing.B, base int, queries ...string) *joinBench {
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
	e := NewEngine()
	for _, q := range queries {
		plan, err := algebra.PlanSQL(q, jb.store.Live())
		if err != nil {
			b.Fatal(err)
		}
		plan = algebra.Optimize(plan)
		p, err := e.Prepare(plan, StrategyAuto)
		if err != nil {
			b.Fatal(err)
		}
		prev, err := InitialResult(plan, jb.store.Live())
		if err != nil {
			b.Fatal(err)
		}
		jb.preps, jb.prevs = append(jb.preps, p), append(jb.prevs, prev)
	}
	jb.lastTS = jb.store.Now()
	return jb
}

func (jb *joinBench) close() {
	for _, p := range jb.preps {
		p.Close()
	}
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
		Batches: map[string]*batch.Batch{}, LastTS: jb.lastTS, Compacted: true,
	}
	for _, name := range joinBenchTables {
		d, err := jb.store.DeltaSince(name, jb.lastTS)
		if err != nil {
			b.Fatal(err)
		}
		d = d.Compact()
		if img, ok := batch.FromDelta(nil, d); ok {
			ctx.Batches[name] = img
		}
	}
	return ctx, jb.store.Now()
}

// warm steps every plan over a few windows, untimed: the first step
// builds the arrangements.
func (jb *joinBench) warm(b *testing.B) {
	for i := 0; i < 3; i++ {
		ctx, ts := jb.window(b, 128)
		for p := range jb.preps {
			res, err := jb.preps[p].Step(ctx, ts)
			jb.apply(b, p, res, err)
		}
		jb.done(ts)
	}
}

// apply folds plan p's step into its result.
func (jb *joinBench) apply(b *testing.B, p int, res *Result, err error) {
	if err != nil {
		b.Fatal(err)
	}
	jb.prevs[p] = res.ApplyTo(jb.prevs[p])
}

// done ends the window at ts: every plan has stepped over it.
func (jb *joinBench) done(ts vclock.Timestamp) {
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
		Batches: map[string]*batch.Batch{"e": img},
	}
	return ctx, gb.store.Now()
}

// filterBench is the measured cell's fixture: table p (the probing
// side, whose windows every step reads) joined on k with table q, whose
// v is uniform over 0..99 so that v < pct keeps pct% of it; the copy
// form joins instead with qf, which holds q's rows with v < pct.
type filterBench struct {
	store  *storage.Store
	prep   *Prepared
	tids   []relation.TID
	lastTS vclock.Timestamp
	round  int
	probed string
}

func newFilterBench(b *testing.B, base, pct int, copied bool) *filterBench {
	b.Helper()
	fb := &filterBench{store: storage.NewStore(), probed: "q"}
	schema := relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
	)
	for _, name := range []string{"p", "q", "qf"} {
		if err := fb.store.CreateTable(name, schema); err != nil {
			b.Fatal(err)
		}
	}
	tx := fb.store.Begin()
	for i := 0; i < base; i++ {
		row := []relation.Value{relation.Int(int64(i)), relation.Int(int64(i % 4096)), relation.Int(int64(i * 37 % 100))}
		tid, err := tx.Insert("p", row)
		if err == nil {
			_, err = tx.Insert("q", row)
		}
		if err == nil && i*37%100 < pct {
			_, err = tx.Insert("qf", row)
		}
		if err != nil {
			b.Fatal(err)
		}
		fb.tids = append(fb.tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf("SELECT p.id, q.id, q.v FROM p JOIN q ON p.k = q.k WHERE q.v < %d", pct)
	if copied {
		fb.probed = "qf"
		q = "SELECT p.id, qf.id, qf.v FROM p JOIN qf ON p.k = qf.k"
	}
	plan, err := algebra.PlanSQL(q, fb.store.Live())
	if err != nil {
		b.Fatal(err)
	}
	if fb.prep, err = NewEngine().Prepare(algebra.Optimize(plan), StrategyAuto); err != nil {
		b.Fatal(err)
	}
	fb.lastTS = fb.store.Now()
	if _, err := fb.prep.Seed(fb.store.At(fb.lastTS), fb.lastTS); err != nil {
		b.Fatal(err)
	}
	return fb
}

// window commits `rows` modifications to p, moving a tenth of them to
// another key, and returns the refresh inputs as the cq manager builds
// them.
func (fb *filterBench) window(b *testing.B, rows int) (*Context, vclock.Timestamp) {
	b.Helper()
	tx := fb.store.Begin()
	for i := 0; i < rows; i++ {
		n := (fb.round*rows + i*7) % len(fb.tids)
		k := n % 4096
		if i%10 == 0 {
			k = (n * 31) % 4096
		}
		if err := tx.Update("p", fb.tids[n], []relation.Value{
			relation.Int(int64(n)), relation.Int(int64(k)), relation.Int(int64((fb.round + i) % 100)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	fb.round++
	d, err := fb.store.DeltaSince("p", fb.lastTS)
	if err != nil {
		b.Fatal(err)
	}
	d = d.Compact()
	img, ok := batch.FromDelta(nil, d)
	if !ok {
		b.Fatal("benchmark window unrepresentable in columnar form")
	}
	return &Context{LastTS: fb.lastTS, Compacted: true, Batches: map[string]*batch.Batch{"p": img}}, fb.store.Now()
}

// probedBytes is the memory of the probed operand's arrangement, as
// dra.replica.bytes counts it.
func (fb *filterBench) probedBytes() int {
	n := 0
	fb.prep.root.eachJoin(func(cj *compiledJoin) {
		for _, u := range cj.uses {
			if u.a.table == fb.probed {
				n = u.a.bytes
			}
		}
	})
	return n
}

// BenchmarkRefreshStep measures the steady-state refresh step: the
// columnar arm (a selection) over a 2048-row signed window of a 16k-row
// relation; the join arm over a 256-row signed window of a 3-way
// equi-join of 16k-row operands (the telescoping kernel, its
// arrangements built by an untimed first step), and the join_shared arm
// over the same window of four joins sharing those arrangements, one
// step each; the filter arms, the cell that decided for base
// arrangements (see DESIGN §5d); the agg
// and distinct arms over a 256-row signed window of a 16k-row input —
// GROUP BY two int keys with SUM and COUNT(*) over 2k groups, and
// DISTINCT over 2k values — through the group table. It is the
// per-refresh engine work of a pushed CQ, with window fetch,
// compaction, and batch building amortized outside (as the shared
// window cache amortizes them across every CQ of a round); the notify
// arm adds what follows the step for a selection — ApplyTo, the
// maintenance of the complete result. Every arm steps into one Result it
// holds (StepInto), as a standing query's holder does, so the header is
// not counted per refresh. Every arm but the filter ones, with
// BenchmarkRefreshRound's round arm in internal/cq, is the allocation
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
				StepInto(*Context, vclock.Timestamp, *Result) error
			}
			if arm.name == "agg" {
				maint, err = NewIncrementalAggregate(NewEngine(), plan, gb.store.Live())
			} else {
				maint, err = NewIncrementalDistinct(NewEngine(), plan, gb.store.Live())
			}
			if err != nil {
				b.Fatal(err)
			}
			// The timer is stopped except around the step itself, into
			// one held Result as a standing query's holder steps.
			var res Result
			step := func() {
				ctx, ts := gb.window(b, 128)
				b.StartTimer()
				err := maint.StepInto(ctx, ts, &res)
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

	// join steps one 3-way join; join_shared four joins over the same
	// three arrangements, each one step per window: the one step that
	// finds an arrangement behind the window advances it, the others
	// probe it as it stands.
	for _, arm := range []struct {
		name  string
		plans int
	}{{"join", 1}, {"join_shared", 4}} {
		b.Run(arm.name, func(b *testing.B) {
			jb := newJoinBench(b, 16_384, joinBenchQueries[:arm.plans]...)
			defer jb.close()
			jb.warm(b)
			res := make([]Result, len(jb.preps))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ctx, ts := jb.window(b, 128)
				for p, prep := range jb.preps {
					b.StartTimer()
					err := prep.StepInto(ctx, ts, &res[p])
					b.StopTimer()
					jb.apply(b, p, &res[p], err)
				}
				jb.done(ts)
				b.StartTimer()
			}
		})
	}

	// The measured cell of base against filtered arrangements: a 2-way
	// join whose probed operand is filtered to 1% or 50% of its table,
	// read through its filter at probe time from the base arrangement
	// every plan over the table shares (base), against the same join
	// over a copy of the table holding only the rows the filter keeps —
	// what a per-plan filtered arrangement would hold (copy). Every
	// window modifies the probing table only. replica_kb is the probed
	// operand's arrangement.
	for _, pct := range []int{1, 50} {
		for _, kind := range []string{"base", "copy"} {
			b.Run(fmt.Sprintf("filter%d_%s", pct, kind), func(b *testing.B) {
				fb := newFilterBench(b, 16_384, pct, kind == "copy")
				defer fb.prep.Close()
				var res Result
				step := func() {
					ctx, ts := fb.window(b, 128)
					b.StartTimer()
					err := fb.prep.StepInto(ctx, ts, &res)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					fb.lastTS = ts
					fb.store.CollectGarbage(ts)
				}
				b.StopTimer()
				for i := 0; i < 3; i++ {
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.ReportMetric(float64(fb.probedBytes())/1024, "replica_kb")
			})
		}
	}

	b.Run("columnar", func(b *testing.B) {
		prep, ctx, ts := newBenchStep(b, 16_384, 1024)
		defer prep.Close()
		var res Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := prep.StepInto(ctx, ts, &res); err != nil {
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
		var res Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx.Prev = before.Clone()
			b.StartTimer()
			err := prep.StepInto(ctx, ts, &res)
			if err != nil {
				b.Fatal(err)
			}
			ctx.Prev = res.ApplyTo(ctx.Prev)
		}
	})
}
