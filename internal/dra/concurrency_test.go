package dra

import (
	"sync"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
)

// collidingRows returns two distinct value slices whose HashValues
// collide. The string encoding writes (kind, bytes..., 0xff) per value,
// so shifting the boundary between adjacent strings — with the payload
// carrying the separator and kind bytes — yields the same byte stream:
// ["a", "b\xff\x03c"] and ["a\xff\x03b", "c"] both hash the stream
// 3 'a' ff 3 'b' ff 3 'c' ff.
func collidingRows() (a, b []relation.Value) {
	a = []relation.Value{relation.Str("a"), relation.Str("b\xff\x03c")}
	b = []relation.Value{relation.Str("a\xff\x03b"), relation.Str("c")}
	return a, b
}

// TestNetCollidingRows is the regression for a netting pass that
// bucketed rows by value hash alone: netBatch compares candidate rows by
// value, so two distinct rows with one hash never merge.
func TestNetCollidingRows(t *testing.T) {
	net := func(s *delta.Signed) *delta.Signed {
		t.Helper()
		b, ok := batch.FromSigned(nil, s)
		if !ok {
			t.Fatal("fixture rows do not fit typed columns")
		}
		return delta.FromRows(s.Schema, (&vecEval{e: NewEngine()}).netBatch(b)).ToSigned()
	}
	a, b := collidingRows()
	if relation.HashValues(a) != relation.HashValues(b) {
		t.Fatal("fixture rows no longer collide; rebuild them against the current HashValues encoding")
	}
	if sameValues(a, b) {
		t.Fatal("fixture rows must be distinct values")
	}

	schema := relation.MustSchema(
		relation.Column{Name: "x", Type: relation.TString},
		relation.Column{Name: "y", Type: relation.TString},
	)
	// A modification from row a to row b under one tid: bucketing by
	// hash alone merged the two counts (-1 +1 = 0) and silently dropped
	// the change.
	in := &delta.Signed{Schema: schema, Rows: []delta.SignedRow{
		{TID: 7, Values: a, Sign: -1},
		{TID: 7, Values: b, Sign: +1},
	}}
	out := net(in)
	if len(out.Rows) != 2 {
		t.Fatalf("netBatch folded colliding distinct rows: got %d rows, want 2\n%+v", len(out.Rows), out.Rows)
	}
	if out.Rows[0].Sign != -1 || !sameValues(out.Rows[0].Values, a) {
		t.Errorf("first row = %+v, want -1 x %v", out.Rows[0], a)
	}
	if out.Rows[1].Sign != +1 || !sameValues(out.Rows[1].Values, b) {
		t.Errorf("second row = %+v, want +1 x %v", out.Rows[1], b)
	}

	// Sanity: rows that really are equal still cancel.
	canceled := net(&delta.Signed{Schema: schema, Rows: []delta.SignedRow{
		{TID: 9, Values: a, Sign: -1},
		{TID: 9, Values: a, Sign: +1},
	}})
	if len(canceled.Rows) != 0 {
		t.Fatalf("equal rows must net to zero, got %+v", canceled.Rows)
	}
}

// TestConcurrentReevaluateSharedEngine drives one engine from many
// goroutines over the same context, one Prepared per goroutine, as the
// cq scheduler's refresh workers step their CQs' plans. Run under -race
// this is the regression test for the stats being shared mutable engine
// state (the engine's pool and metrics are what the plans share); the
// assertions check every concurrent step still computes the serial
// answer.
func TestConcurrentReevaluateSharedEngine(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	tids := f.insert(t, "stocks",
		sv("DEC", 150), sv("QLI", 145), sv("IBM", 75), sv("MAC", 117), sv("SUN", 130))
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 120")
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	f.mark()

	tx := f.store.Begin()
	if err := tx.Update("stocks", tids[0], sv("DEC", 149)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", tids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("stocks", sv("HAL", 122)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ctx := f.ctx(t)
	ctx.Prev = prev
	execTS := f.store.Now()

	e := NewEngine()
	e.Instrument(obs.NewRegistry())
	ref, err := subjectFor(t, e, plan, "auto").Step(ctx, execTS)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		p := subjectFor(t, e, plan, "auto")
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := p.Step(ctx, execTS)
				if err != nil {
					errs[w] = err
					return
				}
				if res.Delta.Len() != ref.Delta.Len() {
					errs[w] = errMismatch(res.Delta.Len(), ref.Delta.Len())
					return
				}
				if res.Stats.DeltaRows != ref.Stats.DeltaRows || res.Stats.Terms != ref.Stats.Terms {
					errs[w] = errMismatch(res.Stats.DeltaRows, ref.Stats.DeltaRows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

type mismatchErr struct{ got, want int }

func (e mismatchErr) Error() string { return "concurrent result diverged from serial reference" }

func errMismatch(got, want int) error { return mismatchErr{got, want} }
