package dra

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
)

// windowMode is how a refresh's windows reach the engine.
type windowMode struct {
	name string
	// engine adjusts the engine's flags; ctx dresses the context of the
	// fixture's pending window.
	engine func(*Engine)
	ctx    func(*testing.T, *fixture, *Context)
}

// selectionModes are the three ways a scan meets its window: the
// caller's own conversion of the compacted row window (batch.FromDelta),
// the round's shared compacted image (read in place — the cq
// scheduler's path), and the uncompacted image, where a tid may occur
// any number of times and only the general netting is sound.
var selectionModes = []windowMode{
	{"converted", func(*Engine) {}, func(t *testing.T, f *fixture, ctx *Context) {
		for name := range ctx.Batches {
			d, err := f.store.DeltaSince(name, ctx.LastTS)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := batch.FromDelta(nil, d.Compact())
			if !ok {
				t.Fatalf("window of %q has no columnar image", name)
			}
			ctx.Batches[name] = b
		}
	}},
	{"shared-image", func(*Engine) {}, func(*testing.T, *fixture, *Context) {}},
	{"uncompacted", func(e *Engine) { e.CompactDeltas = false }, func(t *testing.T, f *fixture, ctx *Context) {
		ctx.Compacted = false
		for name := range ctx.Batches {
			b, err := f.store.WindowImage(name, ctx.LastTS, f.store.Now(), false)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Batches[name] = b
		}
	}},
}

// assertNetted checks the invariant result assembly rests on: a result
// delta holds each tid at most once, as one insert, delete or modify
// row, and a modification's halves differ.
func assertNetted(t *testing.T, label string, res *Result) {
	t.Helper()
	seen := make(map[relation.TID]bool, res.Delta.Len())
	for _, r := range res.Delta.Rows() {
		if seen[r.TID] {
			t.Fatalf("%s: result delta holds tid %d twice", label, r.TID)
		}
		seen[r.TID] = true
	}
	for _, r := range res.Delta.Rows() {
		if r.Old == nil && r.New == nil {
			t.Fatalf("%s: result delta row of tid %d has neither half", label, r.TID)
		}
		if r.Kind() == delta.Modify && sameValues(r.Old, r.New) {
			t.Fatalf("%s: result delta modifies tid %d to the same values", label, r.TID)
		}
		if r.TS != res.ExecTS {
			t.Fatalf("%s: result delta row of tid %d stamped %d, want %d", label, r.TID, r.TS, res.ExecTS)
		}
	}
}

// imagesOf renders every shared window image, to prove a refresh left
// them as it found them.
func imagesOf(ctx *Context) map[string]*delta.Signed {
	out := make(map[string]*delta.Signed, len(ctx.Batches))
	for name, b := range ctx.Batches {
		out[name] = b.ToSigned()
	}
	return out
}

func assertImagesUntouched(t *testing.T, label string, ctx *Context, before map[string]*delta.Signed) {
	t.Helper()
	for name, want := range before {
		got := ctx.Batches[name].ToSigned()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: shared image of %q changed length", label, name)
		}
		for i, r := range got.Rows {
			if w := want.Rows[i]; r.TID != w.TID || r.Sign != w.Sign || !sameValues(r.Values, w.Values) {
				t.Fatalf("%s: shared image of %q row %d changed: %v, was %v", label, name, i, r, w)
			}
		}
	}
}

// selectionStep runs one refresh of p over the pending window in the
// given mode and checks it against complete re-evaluation: same net
// signed change, netted result delta, shared images untouched, same
// complete result.
func selectionStep(t *testing.T, label string, f *fixture, mode windowMode, plan algebra.Plan, p subject, prev *relation.Relation) (*Result, *relation.Relation) {
	t.Helper()
	ctx := f.ctx(t)
	mode.ctx(t, f, ctx)
	ctx.Prev = prev
	before := imagesOf(ctx)
	res, err := p.Step(ctx, f.store.Now())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameNet(t, label, oracle(t, plan, ctx), res.Delta.ToSigned())
	assertNetted(t, label, res)
	assertImagesUntouched(t, label, ctx, before)
	prev = res.ApplyTo(prev)
	assertComplete(t, label, plan, f, prev)
	f.mark()
	return res, prev
}

// TestSelectionViewEquivalence drives the join-free refresh — selection
// read in place off the window, netted by adjacent pair, rendered once —
// against complete re-evaluation over random histories, for the shapes
// that are selections (bare and duplicated columns), the shapes that
// keep the general kernels (a computed item), and every window mode.
func TestSelectionViewEquivalence(t *testing.T) {
	queries := []struct {
		query string
		view  bool // the root compiles to a selection
	}{
		{"SELECT * FROM r", true},
		{"SELECT * FROM r WHERE a > 100", true},
		{"SELECT a FROM r WHERE a > 50 AND s1 != 'k0'", true},
		{"SELECT s1 FROM r WHERE a >= 20 AND a < 150", true},
		{"SELECT a, s1, a FROM r WHERE a > 30", true},
		{"SELECT s1, a * 2 AS a2 FROM r WHERE a > 40", false},
		{"SELECT s1, a, a + 1 AS b FROM r", false},
	}
	for qi, q := range queries {
		for _, mode := range selectionModes {
			t.Run(fmt.Sprintf("q%d_%s", qi, mode.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*17 + 3)))
				f := newFixture(t, map[string]relation.Schema{"r": vecFixtureSchemas()["r"]})
				live := liveSet{}
				applyRandomBatch(t, f, rng, live, 10, 3)

				plan := f.plan(t, q.query)
				eng := NewEngine()
				mode.engine(eng)
				p, err := eng.Prepare(plan, StrategyAuto)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.root.view != nil; got != q.view {
					t.Fatalf("root compiles to a selection: %v, want %v", got, q.view)
				}
				prev, err := InitialResult(plan, f.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				f.mark()
				for round := 0; round < 8; round++ {
					// Several transactions per window: tids recur in the raw
					// window (insert+modify+delete of one tid included).
					applyRandomBatch(t, f, rng, live, 1+rng.Intn(4), 1+rng.Intn(4))
					_, prev = selectionStep(t, fmt.Sprintf("round %d", round), f, mode, plan, p, prev)
				}
			})
		}
	}
}

// TestSelectionViewCases pins the corners of the join-free refresh by
// hand-built windows, in every window mode.
func TestSelectionViewCases(t *testing.T) {
	update := func(t *testing.T, f *fixture, tid relation.TID, vals []relation.Value) {
		t.Helper()
		tx := f.store.Begin()
		if err := tx.Update("r", tid, vals); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, f *fixture, tid relation.TID) {
		t.Helper()
		tx := f.store.Begin()
		if err := tx.Delete("r", tid); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	null := relation.NullValue()
	for _, mode := range selectionModes {
		setup := func(t *testing.T, query string) (*fixture, []relation.TID, algebra.Plan, *Prepared, *relation.Relation) {
			f := newFixture(t, map[string]relation.Schema{"r": vecFixtureSchemas()["r"]})
			tids := f.insert(t, "r", sv("k1", 60), sv("k2", 70), sv("k3", 10), []relation.Value{relation.Str("k4"), null})
			plan := f.plan(t, query)
			eng := NewEngine()
			mode.engine(eng)
			p, err := eng.Prepare(plan, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := InitialResult(plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			f.mark()
			return f, tids, plan, p, prev
		}

		// The projection drops the only changed column: the row passes
		// before and after, so the window is relevant, and its -x/+x nets
		// to nothing.
		t.Run(mode.name+"/projection-drops-the-change", func(t *testing.T) {
			f, tids, plan, p, prev := setup(t, "SELECT s1 FROM r WHERE a > 50")
			update(t, f, tids[0], sv("k1", 65))
			res, _ := selectionStep(t, "step", f, mode, plan, p, prev)
			if res.Stats.Skipped {
				t.Error("a window whose rows pass the predicate is relevant: Skipped must be false")
			}
			if res.Delta.Len() != 0 {
				t.Errorf("-x/+x over the projected columns must net to nothing, got %v", res.Delta.Rows())
			}
			if res.Stats.DeltaRows == 0 {
				t.Error("a relevant refresh counts the window rows it consumed")
			}
		})

		// NULLs in the predicate column: a NULL never passes, so a row
		// moving to NULL leaves the result and one moving off it enters.
		t.Run(mode.name+"/null-predicate-column", func(t *testing.T) {
			f, tids, plan, p, prev := setup(t, "SELECT s1, a FROM r WHERE a > 50")
			update(t, f, tids[0], []relation.Value{relation.Str("k1"), null}) // leaves
			update(t, f, tids[3], sv("k4", 90))                               // enters
			update(t, f, tids[2], []relation.Value{relation.Str("k3"), null}) // never in
			res, prev := selectionStep(t, "step", f, mode, plan, p, prev)
			if ins, del, mod := res.Delta.Counts(); ins != 1 || del != 1 || mod != 0 {
				t.Errorf("counts = %d inserted, %d deleted, %d modified; want 1, 1, 0", ins, del, mod)
			}
			f.insert(t, "r", []relation.Value{relation.Str("k5"), null})
			res, _ = selectionStep(t, "null insert", f, mode, plan, p, prev)
			if !res.Stats.Skipped || res.Delta.Len() != 0 {
				t.Errorf("an inserted NULL passes nothing: skipped=%v, delta %d rows", res.Stats.Skipped, res.Delta.Len())
			}
		})

		// Every window row is filtered out: the refresh is skipped and
		// counted as such, and reports no consumed rows.
		t.Run(mode.name+"/all-filtered", func(t *testing.T) {
			f, tids, plan, _, prev := setup(t, "SELECT * FROM r WHERE a > 50")
			reg := obs.NewRegistry()
			eng := NewEngine()
			mode.engine(eng)
			eng.Instrument(reg)
			p, err := eng.Prepare(plan, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			update(t, f, tids[2], sv("k3", 20))
			f.insert(t, "r", sv("low", 5))
			res, _ := selectionStep(t, "step", f, mode, plan, p, prev)
			if !res.Stats.Skipped || res.Stats.DeltaRows != 0 || res.Delta.Len() != 0 {
				t.Errorf("stats = %+v, delta %d rows; want skipped, no rows consumed, no change", res.Stats, res.Delta.Len())
			}
			if got := reg.Snapshot().Counters["dra.skipped"]; got != 1 {
				t.Errorf("dra.skipped = %d, want 1", got)
			}
		})

		// An empty window is the degenerate irrelevant one.
		t.Run(mode.name+"/empty-window", func(t *testing.T) {
			f, _, plan, p, prev := setup(t, "SELECT s1 FROM r WHERE a > 50")
			res, _ := selectionStep(t, "step", f, mode, plan, p, prev)
			if !res.Stats.Skipped || res.Delta.Len() != 0 {
				t.Errorf("skipped=%v, delta %d rows; want skipped and empty", res.Stats.Skipped, res.Delta.Len())
			}
		})

		// One tid inserted, modified and deleted inside the window, another
		// modified twice, a third deleted and its value re-entered under a
		// new tid. Uncompacted, the window holds the first tid three times
		// and the second four: the adjacent-pair pass would emit them all,
		// so this passes there only through the general netting.
		t.Run(mode.name+"/tid-recurs-in-window", func(t *testing.T) {
			f, tids, plan, p, prev := setup(t, "SELECT s1, a FROM r WHERE a > 50")
			fresh := f.insert(t, "r", sv("new", 80))[0]
			update(t, f, fresh, sv("new", 95))
			remove(t, f, fresh)
			update(t, f, tids[1], sv("k2", 150))
			update(t, f, tids[1], sv("k2", 120))
			remove(t, f, tids[0])
			f.insert(t, "r", sv("k1", 60))
			res, _ := selectionStep(t, "step", f, mode, plan, p, prev)
			if ins, del, mod := res.Delta.Counts(); ins != 1 || del != 1 || mod != 1 {
				t.Errorf("counts = %d inserted, %d deleted, %d modified; want 1, 1, 1", ins, del, mod)
			}
		})
	}
}

// TestSelectionViewJoinOperands: a 3-way join whose operands are
// selections gathers each from its window once; with one operand
// unchanged, and with every operand's window filtered away (skipped:
// a standing query's replicas still move to the execution timestamp, so
// the next refresh finds them current), a standing Prepared and a plan
// prepared afresh per step equal complete re-evaluation.
func TestSelectionViewJoinOperands(t *testing.T) {
	const query = "SELECT r.s1, u.b, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE r.a > 20 AND w.c > 10"
	for _, strat := range []string{"fresh", "incremental"} {
		for _, mode := range selectionModes {
			t.Run(strat+"/"+mode.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				f := newFixture(t, vecFixtureSchemas())
				live := liveSet{}
				applyRandomBatch(t, f, rng, live, 12, 3)

				plan := f.plan(t, query)
				reg := obs.NewRegistry()
				eng := NewEngine()
				mode.engine(eng)
				eng.Instrument(reg)
				p := subjectFor(t, eng, plan, strat)
				root, err := compilePlan(plan)
				if err != nil {
					t.Fatal(err)
				}
				prep, standing := p.(*Prepared)
				if standing {
					root = prep.root
				}
				var cj *compiledJoin
				root.eachJoin(func(j *compiledJoin) { cj = j })
				if len(cj.ops) != 3 {
					t.Fatalf("join has %d operands, want 3", len(cj.ops))
				}
				for i, op := range cj.opNodes {
					if op.view == nil {
						t.Fatalf("operand %d does not compile to a selection", i)
					}
				}
				prev, err := InitialResult(plan, f.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				f.mark()

				// Rounds that leave w alone.
				rw := &fixture{store: f.store}
				for round := 0; round < 4; round++ {
					for i := 0; i < 3; i++ {
						for _, table := range []string{"r", "u"} {
							schema, _ := f.store.Schema(table)
							rw.insert(t, table, randomRow(rng, schema))
						}
					}
					_, prev = selectionStep(t, fmt.Sprintf("w unchanged, round %d", round), f, mode, plan, p, prev)
				}

				// A window no operand's predicate lets through.
				f.insert(t, "r", sv("k1", 5), sv("k2", 0))
				f.insert(t, "w", []relation.Value{relation.Int(1), relation.Float(2)})
				skipsBefore := reg.Snapshot().Counters["dra.skipped"]
				res, prev := selectionStep(t, "all filtered", f, mode, plan, p, prev)
				if !res.Stats.Skipped || res.Delta.Len() != 0 {
					t.Fatalf("skipped=%v, delta %d rows; want skipped and empty", res.Stats.Skipped, res.Delta.Len())
				}
				if got := reg.Snapshot().Counters["dra.skipped"] - skipsBefore; got != 1 {
					t.Fatalf("dra.skipped moved by %d, want 1", got)
				}
				// A fresh plan's arrangements go with it.
				if standing {
					prep.root.eachJoin(func(cj *compiledJoin) {
						for _, u := range cj.uses {
							if u.a.at != res.ExecTS {
								t.Fatalf("arrangement of %s did not move to the skipped refresh's timestamp: at %d", u.a.table, u.a.at)
							}
						}
					})
				}

				// The next relevant refresh reads the arrangements it moved.
				applyRandomBatch(t, f, rng, live, 3, 3)
				res, _ = selectionStep(t, "after skip", f, mode, plan, p, prev)
				if standing && res.Stats.PreTuplesScanned != 0 {
					t.Fatalf("refresh after a skipped one rebuilt replicas: %d pre-state tuples scanned", res.Stats.PreTuplesScanned)
				}
			})
		}
	}
}
