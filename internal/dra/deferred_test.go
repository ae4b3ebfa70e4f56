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

// TestDeferredChangeMatchesEager: across the equivalence shapes, a plan
// stepped over the round's shared window images (Context.Batches, as
// the cq scheduler steps it) and one stepped over the same images
// without Context.Compacted (so the general netting runs and renders
// eagerly) report the same change: the same
// Len and Counts before any row is read, and then the same rows, row
// for row, ts included. A selection's change over the shared image is
// deferred — nothing renders until its rows are read, and then once —
// while a join's renders when it is made.
func TestDeferredChangeMatchesEager(t *testing.T) {
	for qi, q := range equivalenceShapes {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(qi) + 7))
			f := newFixture(t, equivalenceTables())
			live := liveSet{}
			applyRandomBatch(t, f, rng, live, 10, 3)
			plan := f.plan(t, q)
			e := NewEngine()
			reg := obs.NewRegistry()
			e.Instrument(reg)
			rendered := func() int64 { return reg.Snapshot().Counter("dra.changes_rendered") }
			shared, rows := mustPrepare(t, e, plan), mustPrepare(t, e, plan)
			f.mark()
			for _, p := range []*Prepared{shared, rows} {
				if _, err := p.Seed(f.store.At(f.lastTS), f.lastTS); err != nil {
					t.Fatal(err)
				}
			}
			deferredSteps, deferredMods := 0, 0
			for round := 0; round < 40; round++ {
				applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 2+rng.Intn(6))
				execTS := f.store.Now()
				cache := f.store.NewWindowCache()
				sctx := &Context{Pre: f.store.At(f.lastTS), LastTS: f.lastTS, Compacted: true, Batches: map[string]*batch.Batch{}}
				for _, table := range f.store.TableNames() {
					b, err := cache.WindowBatch(table, f.lastTS, execTS, true)
					if err != nil {
						t.Fatal(err)
					}
					sctx.Batches[table] = b
				}
				got, err := shared.Step(sctx, execTS)
				if err != nil {
					t.Fatal(err)
				}
				ectx := f.ctx(t)
				ectx.Compacted = false
				want, err := rows.Step(ectx, execTS)
				if err != nil {
					t.Fatal(err)
				}
				if want.change != nil {
					t.Fatalf("round %d: a change of the general netting was deferred", round)
				}
				before := rendered()
				if got.Delta.Len() != want.Delta.Len() {
					t.Fatalf("round %d: Len %d, eager %d", round, got.Delta.Len(), want.Delta.Len())
				}
				gi, gd, gm := got.Delta.Counts()
				wi, wd, wm := want.Delta.Counts()
				if gi != wi || gd != wd || gm != wm {
					t.Fatalf("round %d: Counts %d/%d/%d, eager %d/%d/%d", round, gi, gd, gm, wi, wd, wm)
				}
				if got.change != nil {
					deferredSteps++
					deferredMods += gm
					if rendered() != before {
						t.Fatalf("round %d: Len and Counts rendered the change", round)
					}
				}
				sameRows(t, round, got.Delta.Rows(), want.Delta.Rows())
				got.Delta.Rows()
				if got.change != nil && rendered() != before+1 {
					t.Fatalf("round %d: reading the rows twice rendered %d times, want once", round, rendered()-before)
				}
				f.lastTS = execTS
			}
			if joinFree := len(algebra.Tables(plan)) == 1; joinFree && (deferredSteps == 0 || deferredMods == 0) {
				t.Fatalf("%d selection steps deferred, %d modifications among them: the check proves too little", deferredSteps, deferredMods)
			} else if !joinFree && deferredSteps != 0 {
				t.Fatalf("%d join steps deferred their change", deferredSteps)
			}
		})
	}
}

func mustPrepare(t *testing.T, e *Engine, plan algebra.Plan) *Prepared {
	t.Helper()
	p, err := e.Prepare(plan, StrategyIncremental)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// sameRows holds a change's rows to the eager render's, row for row.
func sameRows(t *testing.T, round int, got, want []delta.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %d rows, eager %d", round, len(got), len(want))
	}
	same := func(a, b []relation.Value) bool {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) || a[i].Kind != b[i].Kind {
				return false
			}
		}
		return true
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.TID != w.TID || g.TS != w.TS || !same(g.Old, w.Old) || !same(g.New, w.New) {
			t.Fatalf("round %d: row %d is %+v, eager %+v", round, k, g, w)
		}
	}
}
