package dra_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// world is a three-table store under a seeded random history. Key
// columns draw from small domains, so probes fan out; u.note is touched
// by no predicate, which makes it the safe place to plant values written
// under another kind than the column's.
type world struct {
	t      *testing.T
	store  *storage.Store
	rng    *rand.Rand
	live   map[string][]relation.TID
	lastTS vclock.Timestamp
}

var worldSchemas = map[string]relation.Schema{
	"r": relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
		relation.Column{Name: "f", Type: relation.TFloat},
	),
	"u": relation.MustSchema(
		relation.Column{Name: "s2", Type: relation.TString},
		relation.Column{Name: "b", Type: relation.TFloat},
		relation.Column{Name: "x", Type: relation.TInt},
		relation.Column{Name: "g", Type: relation.TFloat},
		relation.Column{Name: "note", Type: relation.TString},
	),
	"w": relation.MustSchema(
		relation.Column{Name: "x", Type: relation.TInt},
		relation.Column{Name: "c", Type: relation.TFloat},
	),
}

var worldTables = []string{"r", "u", "w"}

func newWorld(t *testing.T, seed int64, rows int) *world {
	t.Helper()
	w := &world{t: t, store: storage.NewStore(), rng: rand.New(rand.NewSource(seed)), live: map[string][]relation.TID{}}
	for _, name := range worldTables {
		if err := w.store.CreateTable(name, worldSchemas[name]); err != nil {
			t.Fatal(err)
		}
	}
	tx := w.store.Begin()
	for _, name := range worldTables {
		for i := 0; i < rows; i++ {
			w.insert(tx, name, w.row(name))
		}
	}
	w.commit(tx)
	w.lastTS = w.store.Now()
	return w
}

func (w *world) row(table string) []relation.Value {
	schema := worldSchemas[table]
	out := make([]relation.Value, schema.Len())
	for i := range out {
		switch col := schema.Col(i); {
		case col.Name == "f" || col.Name == "g": // float join keys
			out[i] = relation.Float(float64(w.rng.Intn(5)) + 0.5)
		case col.Type == relation.TInt:
			out[i] = relation.Int(int64(w.rng.Intn(6)))
		case col.Type == relation.TFloat:
			out[i] = relation.Float(float64(w.rng.Intn(200)))
		default:
			out[i] = relation.Str(fmt.Sprintf("k%d", w.rng.Intn(5)))
		}
	}
	return out
}

func (w *world) insert(tx *storage.Tx, table string, vals []relation.Value) relation.TID {
	tid, err := tx.Insert(table, vals)
	if err != nil {
		w.t.Fatal(err)
	}
	w.live[table] = append(w.live[table], tid)
	return tid
}

func (w *world) remove(tx *storage.Tx, table string, tid relation.TID) {
	if err := tx.Delete(table, tid); err != nil {
		w.t.Fatal(err)
	}
	l := w.live[table]
	for i, have := range l {
		if have == tid {
			w.live[table] = append(l[:i], l[i+1:]...)
			return
		}
	}
}

func (w *world) commit(tx *storage.Tx) {
	if _, err := tx.Commit(); err != nil {
		w.t.Fatal(err)
	}
}

// churn commits nTx random transactions: inserts, deletes, and
// modifications that redraw every column — join keys included, so rows
// move between index chains. Now and then a row is inserted and deleted
// again by the very next transaction, inside one window.
func (w *world) churn(nTx, opsPerTx int) {
	for n := 0; n < nTx; n++ {
		tx := w.store.Begin()
		for op := 0; op < opsPerTx; op++ {
			table := worldTables[w.rng.Intn(len(worldTables))]
			live := w.live[table]
			switch k := w.rng.Intn(4); {
			case k == 0 || len(live) == 0:
				w.insert(tx, table, w.row(table))
			case k == 1 && len(live) > 4:
				w.remove(tx, table, live[w.rng.Intn(len(live))])
			default:
				if err := tx.Update(table, live[w.rng.Intn(len(live))], w.row(table)); err != nil {
					w.t.Fatal(err)
				}
			}
		}
		w.commit(tx)
		if w.rng.Intn(3) == 0 {
			table := worldTables[w.rng.Intn(len(worldTables))]
			tx := w.store.Begin()
			tid := w.insert(tx, table, w.row(table))
			w.commit(tx)
			tx = w.store.Begin()
			w.remove(tx, table, tid)
			w.commit(tx)
		}
	}
}

// touchAll modifies one live row of every table in one transaction, so
// the window changes every operand of every query at once.
func (w *world) touchAll() {
	tx := w.store.Begin()
	for _, table := range worldTables {
		live := w.live[table]
		if err := tx.Update(table, live[w.rng.Intn(len(live))], w.row(table)); err != nil {
			w.t.Fatal(err)
		}
	}
	w.commit(tx)
}

// touchOne modifies a few live rows of one table: a window with a single
// changed operand.
func (w *world) touchOne(table string, rows int) {
	tx := w.store.Begin()
	live := w.live[table]
	for i := 0; i < rows; i++ {
		if err := tx.Update(table, live[w.rng.Intn(len(live))], w.row(table)); err != nil {
			w.t.Fatal(err)
		}
	}
	w.commit(tx)
}

// rewrite modifies every live row of every table: a window the size of
// the base.
func (w *world) rewrite() {
	tx := w.store.Begin()
	for _, table := range worldTables {
		for _, tid := range w.live[table] {
			if err := tx.Update(table, tid, w.row(table)); err != nil {
				w.t.Fatal(err)
			}
		}
	}
	w.commit(tx)
}

// window assembles the refresh inputs of the pending window. With image
// set it hands them over the way the cq manager does, as compacted
// images; otherwise as the raw ones, which the general netting nets.
func (w *world) window(image bool) (*dra.Context, vclock.Timestamp) {
	execTS := w.store.Now()
	ctx := &dra.Context{
		Pre: w.store.At(w.lastTS), Post: w.store.Live(), LastTS: w.lastTS,
		Batches:   images(w.t, w.store, worldTables, w.lastTS, execTS, image),
		Compacted: image,
		Versions:  w.store.ChangeCounts(), // before the execution timestamp
	}
	return ctx, execTS
}

// images reads each table's window (from, to] as the store's columnar
// image, compacted when compact is set: the form a step reads.
func images(t testing.TB, s *storage.Store, tables []string, from, to vclock.Timestamp, compact bool) map[string]*batch.Batch {
	t.Helper()
	out := make(map[string]*batch.Batch, len(tables))
	for _, table := range tables {
		b, err := s.WindowImage(table, from, to, compact)
		if err != nil {
			t.Fatal(err)
		}
		out[table] = b
	}
	return out
}

// subject is one way to refresh a plan — a prepared plan, or a plan
// prepared afresh per step (prep is nil) — with the complete result it
// maintains.
type subject struct {
	name string
	prep *dra.Prepared
	eval func(*dra.Context, vclock.Timestamp) (*dra.Result, error)
	prev *relation.Relation
}

func newSubject(t *testing.T, name string, e *dra.Engine, plan algebra.Plan, strat dra.Strategy, src algebra.Source) *subject {
	t.Helper()
	prep, err := e.Prepare(plan, strat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prep.Close)
	return &subject{name: name, prep: prep, eval: prep.Step, prev: initialResult(t, plan, src)}
}

// newFresh prepares plan anew for every step: a plan with no position
// re-seeds its replicas from ctx.Pre, so every step starts from the
// pre-state and keeps nothing afterwards.
func newFresh(t *testing.T, name string, e *dra.Engine, plan algebra.Plan, src algebra.Source) *subject {
	t.Helper()
	return &subject{name: name, prev: initialResult(t, plan, src), eval: func(ctx *dra.Context, ts vclock.Timestamp) (*dra.Result, error) {
		p, err := e.Prepare(plan, dra.StrategyAuto)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		return p.Step(ctx, ts)
	}}
}

func initialResult(t *testing.T, plan algebra.Plan, src algebra.Source) *relation.Relation {
	t.Helper()
	prev, err := dra.InitialResult(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	return prev
}

func (s *subject) step(t *testing.T, ctx *dra.Context, ts vclock.Timestamp) *delta.Signed {
	t.Helper()
	c := *ctx
	c.Prev = s.prev
	res, err := s.eval(&c, ts)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	s.prev = res.ApplyTo(s.prev)
	return res.Delta.ToSigned()
}

var telescopeQueries = []string{
	"SELECT * FROM r JOIN u ON r.s1 = u.s2",                                             // string key
	"SELECT r.s1, u.b FROM r JOIN u ON r.f = u.g WHERE r.a > 80",                        // float key, operand filter
	"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",          // 3-way, string + int keys
	"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 AND r.f = u.g JOIN w ON u.x = w.x",    // composite key
	"SELECT * FROM r p JOIN r q ON p.s1 = q.s1",                                         // self join
	"SELECT r.s1, u.s2 FROM r JOIN u ON r.a > u.b WHERE u.x < 3",                        // no equi key: cross step
	"SELECT r.s1, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE r.a > u.b", // residual over two operands
	"SELECT r.s1, u.s2, w.c FROM r JOIN u ON r.a > u.b JOIN w ON u.b > w.c",             // 3-way, no equi key: two cross steps
	"SELECT r.s1, u.s2, w.c FROM r JOIN u ON r.a > u.b JOIN w ON u.x = w.x",             // 3-way, partial equi coverage
	"SELECT r.s1, u.s2, w.c FROM r JOIN u ON r.a > u.b JOIN w ON r.a = w.c",             // 3-way, cross-joined operand in the middle
}

// TestTelescopeTranscriptEquivalence is the kernel's property test: over
// random histories, the telescoping kernel — a standing plan (by name,
// and as the plan's shape picks it), and a plan prepared afresh per
// step, which re-seeds from the pre-state — must report the net change
// of complete re-evaluation (baseline.Full) every round and hold its
// complete result. Histories include key-moving
// modifications, a tid inserted and deleted within one window, probe
// fan-out above one, windows touching every operand (touchAll), string,
// float and composite keys, and 3-way joins whose cross steps enumerate
// an operand that an earlier term of the same refresh already advanced;
// the drift variants write values of another kind than their column (an
// INT into a STRING column, which the store's write boundary must refuse;
// an untyped NULL, which it conforms), and the rounds around them prove
// the replicas stay coherent.
func TestTelescopeTranscriptEquivalence(t *testing.T) {
	type variant struct {
		name    string
		strat   dra.Strategy
		compact bool // engine reads compacted correction images
		image   bool // manager-style compacted images, else raw ones
		drift   bool
	}
	variants := []variant{
		{"incremental", dra.StrategyIncremental, true, false, false},
		{"incremental_images", dra.StrategyIncremental, true, true, false},
		{"incremental_uncompacted", dra.StrategyIncremental, false, false, false},
		{"incremental_drift", dra.StrategyIncremental, true, false, true},
		{"incremental_images_drift", dra.StrategyIncremental, true, true, true},
		{"auto", dra.StrategyAuto, true, true, false},
	}
	for qi, q := range telescopeQueries {
		for _, va := range variants {
			t.Run(fmt.Sprintf("q%d_%s", qi, va.name), func(t *testing.T) {
				w := newWorld(t, int64(100*qi+len(va.name)), 12)
				plan, err := algebra.PlanSQL(q, w.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				plan = algebra.Optimize(plan)

				reg := obs.NewRegistry()
				kernelEng := dra.NewEngine()
				kernelEng.CompactDeltas = va.compact
				kernelEng.Instrument(reg)
				kernel := newSubject(t, "kernel", kernelEng, plan, va.strat, w.store.Live())
				fresh := newFresh(t, "fresh", kernelEng, plan, w.store.Live())
				full, err := baseline.NewFull(plan, w.store.Live())
				if err != nil {
					t.Fatal(err)
				}

				var drifted relation.TID
				for round := 0; round < 14; round++ {
					w.churn(1+w.rng.Intn(3), 1+w.rng.Intn(5))
					if round%2 == 1 {
						w.touchAll()
					}
					if va.drift {
						switch round {
						case 3, 9: // plant: a kind-drifted cell (refused), an untyped NULL
							bad := w.row("u")
							bad[4] = relation.Int(7)
							tx := w.store.Begin()
							if _, err := tx.Insert("u", bad); !errors.Is(err, relation.ErrTypeMismatch) {
								t.Fatalf("INT into the STRING column: err = %v, want relation.ErrTypeMismatch", err)
							}
							bad[4] = relation.NullValue()
							// Not tracked as live: churn must not touch it.
							if drifted, err = tx.Insert("u", bad); err != nil {
								t.Fatal(err)
							}
							w.commit(tx)
						case 5, 11: // and take it out again
							tx := w.store.Begin()
							if err := tx.Delete("u", drifted); err != nil {
								t.Fatal(err)
							}
							w.commit(tx)
						}
					}
					ctx, ts := w.window(va.image)
					label := fmt.Sprintf("round %d", round)
					fd, err := full.Step(w.store.Live(), ts)
					if err != nil {
						t.Fatal(err)
					}
					want := fd.ToSigned()
					dra.AssertSameNet(t, label+" full vs fresh", want, fresh.step(t, ctx, ts))
					dra.AssertSameNet(t, label+" full vs kernel", want, kernel.step(t, ctx, ts))
					if !kernel.prev.EqualByTID(full.Result()) || !fresh.prev.EqualByTID(full.Result()) {
						t.Fatalf("%s: complete results diverge", label)
					}
					w.lastTS = ts
				}

				if reg.Snapshot().Counter("dra.vector_steps") == 0 {
					t.Error("the kernel never ran columnar")
				}
			})
		}
	}
}

// TestJoinShapeDecidesAtPrepare covers the cells of DESIGN.md 5d's
// table, where no other join kernel or strategy won: for every join
// shape — 2- and 3-way equi-joins, operands of 32 and of 4 rows, a theta
// join, partial equi coverage, a cross step — and every window — one
// changed operand, all operands, every row of every operand rewritten —
// a StrategyAuto plan is incremental before its first Step and after
// every one, and its transcript equals Propagate's net change and the
// from-scratch result each round.
func TestJoinShapeDecidesAtPrepare(t *testing.T) {
	shapes := []struct {
		name, query string
		rows        int
	}{
		{"3-way equi", "SELECT r.s1, u.b, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x", 32},
		{"2-way equi", "SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2", 32},
		{"3-way equi, 4-row operands", "SELECT r.s1, u.b, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x", 4},
		{"2-way equi, 4-row operands", "SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2", 4},
		{"theta", "SELECT r.s1, u.s2 FROM r JOIN u ON r.a > u.b", 32},
		{"partial coverage", "SELECT r.s1, u.s2, w.c FROM r JOIN u ON r.a > u.b JOIN w ON u.x = w.x", 32},
		{"cross step", "SELECT r.s1, w.x FROM r, w WHERE w.c > 100", 32},
	}
	windows := []struct {
		name  string
		apply func(w *world, round int)
	}{
		{"one operand", func(w *world, round int) { w.touchOne(worldTables[round%len(worldTables)], 3) }},
		{"all operands", func(w *world, _ int) { w.touchAll() }},
		{"all rows rewritten", func(w *world, _ int) { w.rewrite() }},
	}
	for si, shape := range shapes {
		for _, win := range windows {
			t.Run(shape.name+"/"+win.name, func(t *testing.T) {
				w := newWorld(t, int64(40+si), shape.rows)
				plan, err := algebra.PlanSQL(shape.query, w.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				plan = algebra.Optimize(plan)
				auto := newSubject(t, "auto", dra.NewEngine(), plan, dra.StrategyAuto, w.store.Live())
				if got := auto.prep.Strategy(); got != dra.StrategyIncremental {
					t.Fatalf("before the first Step: strategy %v, want incremental", got)
				}
				for round := 0; round < 10; round++ {
					win.apply(w, round)
					ctx, ts := w.window(round%2 == 0)
					want, err := dra.Propagate(plan, ctx.Pre, ctx.Post, 0)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("round %d", round)
					dra.AssertSameNet(t, label, want.ToSigned(), auto.step(t, ctx, ts))
					scratch, err := dra.InitialResult(plan, w.store.Live())
					if err != nil {
						t.Fatal(err)
					}
					if !auto.prev.EqualByTID(scratch) {
						t.Fatalf("%s: maintained result diverges from the from-scratch one", label)
					}
					if got := auto.prep.Strategy(); got != dra.StrategyIncremental {
						t.Fatalf("%s: strategy %v, want incremental", label, got)
					}
					w.lastTS = ts
				}
			})
		}
	}
}
