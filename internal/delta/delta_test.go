package delta

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "tid", Type: relation.TInt},
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
}

func row(tid int64, name string, price float64) []relation.Value {
	return []relation.Value{relation.Int(tid), relation.Str(name), relation.Float(price)}
}

// TestExample1 reproduces Example 1 of the paper exactly: transaction T
// inserts (101088, MAC, 117), modifies (120992, DEC, 150) to
// (120992, DEC, 149), and deletes tuple 092394. The insertions view must
// contain the inserted MAC tuple and the new DEC value; the deletions view
// must contain the deleted QLI tuple and the old DEC value.
func TestExample1(t *testing.T) {
	d := New(stockSchema())
	if err := d.AppendInsert(101088, row(101088, "MAC", 117), 10); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendModify(120992, row(120992, "DEC", 150), row(120992, "DEC", 149), 10); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendDelete(92394, row(92394, "QLI", 145), 10); err != nil {
		t.Fatal(err)
	}

	ins := d.Insertions()
	if ins.Len() != 2 {
		t.Fatalf("insertions len = %d, want 2\n%s", ins.Len(), ins)
	}
	mac, ok := ins.Lookup(101088)
	if !ok || mac.Values[2].AsFloat() != 117 {
		t.Errorf("insertions missing MAC@117: %v %v", mac, ok)
	}
	dec, ok := ins.Lookup(120992)
	if !ok || dec.Values[2].AsFloat() != 149 {
		t.Errorf("insertions missing DEC@149 (new half of modification): %v %v", dec, ok)
	}

	del := d.Deletions()
	if del.Len() != 2 {
		t.Fatalf("deletions len = %d, want 2\n%s", del.Len(), del)
	}
	qli, ok := del.Lookup(92394)
	if !ok || qli.Values[1].AsString() != "QLI" {
		t.Errorf("deletions missing QLI: %v %v", qli, ok)
	}
	decOld, ok := del.Lookup(120992)
	if !ok || decOld.Values[2].AsFloat() != 150 {
		t.Errorf("deletions missing DEC@150 (old half of modification): %v %v", decOld, ok)
	}
}

func TestAppendValidation(t *testing.T) {
	d := New(stockSchema())
	if err := d.Append(Row{TID: 1, TS: 1}); !errors.Is(err, ErrBadRow) {
		t.Errorf("nil/nil row err = %v", err)
	}
	if err := d.AppendInsert(1, []relation.Value{relation.Int(1)}, 1); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v", err)
	}
	if err := d.AppendInsert(1, row(1, "A", 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendInsert(2, row(2, "B", 2), 4); !errors.Is(err, ErrOrder) {
		t.Errorf("out-of-order err = %v", err)
	}
	if err := d.AppendInsert(2, row(2, "B", 2), 5); err != nil {
		t.Errorf("equal-ts append should be allowed: %v", err)
	}
}

func TestAfterWindow(t *testing.T) {
	d := New(stockSchema())
	for i := 1; i <= 10; i++ {
		if err := d.AppendInsert(relation.TID(i), row(int64(i), "X", float64(i)), vclock.Timestamp(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.After(0).Len(); got != 10 {
		t.Errorf("After(0) = %d", got)
	}
	if got := d.After(5).Len(); got != 5 {
		t.Errorf("After(5) = %d, want 5", got)
	}
	if got := d.After(10).Len(); got != 0 {
		t.Errorf("After(10) = %d", got)
	}
	w := d.Window(2, 7)
	if w.Len() != 5 || w.MinTS() != 3 || w.MaxTS() != 7 {
		t.Errorf("Window(2,7): len=%d min=%d max=%d", w.Len(), w.MinTS(), w.MaxTS())
	}
}

func TestInsertionsNetsOutInsertThenDelete(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendInsert(1, row(1, "A", 1), 1)
	_ = d.AppendDelete(1, row(1, "A", 1), 2)
	if got := d.Insertions().Len(); got != 0 {
		t.Errorf("insert-then-delete should net out of insertions view, got %d", got)
	}
	if got := d.Deletions().Len(); got != 0 {
		t.Errorf("tuple born and dead inside window should not appear in deletions, got %d", got)
	}
}

func TestDeletionsKeepsFirstOldValue(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendModify(1, row(1, "A", 10), row(1, "A", 20), 1)
	_ = d.AppendModify(1, row(1, "A", 20), row(1, "A", 30), 2)
	del := d.Deletions()
	tu, ok := del.Lookup(1)
	if !ok || tu.Values[2].AsFloat() != 10 {
		t.Errorf("deletions should hold first old value 10, got %v", tu)
	}
	ins := d.Insertions()
	tu, ok = ins.Lookup(1)
	if !ok || tu.Values[2].AsFloat() != 30 {
		t.Errorf("insertions should hold last new value 30, got %v", tu)
	}
}

func TestApplyUnapplyRoundTrip(t *testing.T) {
	base := relation.New(stockSchema())
	_ = base.Insert(relation.Tuple{TID: 100000, Values: row(100000, "DEC", 150)})
	_ = base.Insert(relation.Tuple{TID: 92394, Values: row(92394, "QLI", 145)})

	d := New(stockSchema())
	_ = d.AppendInsert(101088, row(101088, "MAC", 117), 1)
	_ = d.AppendModify(100000, row(100000, "DEC", 150), row(100000, "DEC", 149), 2)
	_ = d.AppendDelete(92394, row(92394, "QLI", 145), 3)

	post := base.Clone()
	if err := d.Apply(post); err != nil {
		t.Fatal(err)
	}
	if post.Len() != 2 || !post.Has(101088) || post.Has(92394) {
		t.Fatalf("post state wrong:\n%s", post)
	}
	dec, _ := post.Lookup(100000)
	if dec.Values[2].AsFloat() != 149 {
		t.Error("modify not applied")
	}

	back := post.Clone()
	if err := d.Unapply(back); err != nil {
		t.Fatal(err)
	}
	if !back.EqualByTID(base) {
		t.Errorf("Unapply(Apply(R)) != R:\n%s\nvs\n%s", back, base)
	}
}

func TestApplyErrorsOnBadReplay(t *testing.T) {
	base := relation.New(stockSchema())
	d := New(stockSchema())
	_ = d.AppendDelete(42, row(42, "X", 1), 1)
	if err := d.Apply(base); !errors.Is(err, ErrReplay) {
		t.Errorf("deleting absent tid should ErrReplay, got %v", err)
	}
}

func TestDiffComputesMinimalDelta(t *testing.T) {
	a := relation.New(stockSchema())
	_ = a.Insert(relation.Tuple{TID: 1, Values: row(1, "A", 10)})
	_ = a.Insert(relation.Tuple{TID: 2, Values: row(2, "B", 20)})
	_ = a.Insert(relation.Tuple{TID: 3, Values: row(3, "C", 30)})
	b := relation.New(stockSchema())
	_ = b.Insert(relation.Tuple{TID: 1, Values: row(1, "A", 10)}) // unchanged
	_ = b.Insert(relation.Tuple{TID: 2, Values: row(2, "B", 25)}) // modified
	_ = b.Insert(relation.Tuple{TID: 4, Values: row(4, "D", 40)}) // inserted

	d, err := Diff(a, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	ins, del, mod := d.Counts()
	if ins != 1 || del != 1 || mod != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 1/1/1", ins, del, mod)
	}
	// Applying the diff to a clone of a must produce b.
	c := a.Clone()
	if err := d.Apply(c); err != nil {
		t.Fatal(err)
	}
	if !c.EqualByTID(b) {
		t.Error("Diff(a,b) applied to a does not yield b")
	}
}

func TestCompactFoldsNetEffects(t *testing.T) {
	d := New(stockSchema())
	// tid 1: insert then modify -> net insert of final value
	_ = d.AppendInsert(1, row(1, "A", 10), 1)
	_ = d.AppendModify(1, row(1, "A", 10), row(1, "A", 15), 2)
	// tid 2: insert then delete -> net nothing
	_ = d.AppendInsert(2, row(2, "B", 20), 3)
	_ = d.AppendDelete(2, row(2, "B", 20), 4)
	// tid 3: modify then modify -> net single modify
	_ = d.AppendModify(3, row(3, "C", 30), row(3, "C", 31), 5)
	_ = d.AppendModify(3, row(3, "C", 31), row(3, "C", 32), 6)
	// tid 4: modify back to original -> net nothing
	_ = d.AppendModify(4, row(4, "D", 40), row(4, "D", 41), 7)
	_ = d.AppendModify(4, row(4, "D", 41), row(4, "D", 40), 8)
	// tid 5: delete then insert (same tid reused) -> net modify
	_ = d.AppendDelete(5, row(5, "E", 50), 9)
	_ = d.AppendInsert(5, row(5, "E", 55), 10)

	c := d.Compact()
	if c.Len() != 3 {
		t.Fatalf("Compact len = %d, want 3:\n%s", c.Len(), c)
	}
	ins, del, mod := c.Counts()
	if ins != 1 || del != 0 || mod != 2 {
		t.Fatalf("Compact counts = %d/%d/%d, want 1/0/2", ins, del, mod)
	}
}

// Property: for any base relation and any valid random update sequence,
// Apply(Compact(Δ)) produces the same state as Apply(Δ).
func TestCompactEquivalentToFullReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		base := relation.New(stockSchema())
		next := relation.TID(1)
		for i := 0; i < 20; i++ {
			_ = base.Insert(relation.Tuple{TID: next, Values: row(int64(next), "S", float64(rng.Intn(100)))})
			next++
		}
		d := New(stockSchema())
		shadow := base.Clone()
		clock := vclock.New()
		for i := 0; i < 60; i++ {
			ts := clock.Tick()
			switch op := rng.Intn(3); {
			case op == 0: // insert
				tid := next
				next++
				vs := row(int64(tid), "S", float64(rng.Intn(100)))
				_ = d.AppendInsert(tid, vs, ts)
				_ = shadow.Insert(relation.Tuple{TID: tid, Values: vs})
			case op == 1 && shadow.Len() > 0: // delete random live tuple
				victim := shadow.At(rng.Intn(shadow.Len()))
				_ = d.AppendDelete(victim.TID, victim.Values, ts)
				_ = shadow.Delete(victim.TID)
			case op == 2 && shadow.Len() > 0: // modify random live tuple
				victim := shadow.At(rng.Intn(shadow.Len()))
				nv := row(victim.Values[0].AsInt(), "S", float64(rng.Intn(100)))
				_ = d.AppendModify(victim.TID, victim.Values, nv, ts)
				_ = shadow.Update(victim.TID, nv)
			}
		}
		full := base.Clone()
		if err := d.Apply(full); err != nil {
			t.Fatalf("trial %d: full replay: %v", trial, err)
		}
		compacted := base.Clone()
		if err := d.Compact().Apply(compacted); err != nil {
			t.Fatalf("trial %d: compacted replay: %v", trial, err)
		}
		if !full.EqualByTID(compacted) {
			t.Fatalf("trial %d: compacted state differs from full replay", trial)
		}
		if !full.EqualByTID(shadow) {
			t.Fatalf("trial %d: replay differs from shadow state", trial)
		}
	}
}

func TestTruncateBefore(t *testing.T) {
	d := New(stockSchema())
	for i := 1; i <= 10; i++ {
		_ = d.AppendInsert(relation.TID(i), row(int64(i), "X", 1), vclock.Timestamp(i))
	}
	if n := d.TruncateBefore(0); n != 0 {
		t.Errorf("TruncateBefore(0) dropped %d", n)
	}
	if n := d.TruncateBefore(4); n != 4 {
		t.Errorf("TruncateBefore(4) dropped %d, want 4", n)
	}
	if d.Len() != 6 || d.MinTS() != 5 {
		t.Errorf("after truncate: len=%d min=%d", d.Len(), d.MinTS())
	}
	if n := d.TruncateBefore(100); n != 6 || d.Len() != 0 {
		t.Errorf("full truncate dropped %d, len=%d", n, d.Len())
	}
}

// TestTruncateReleasesCollectedRows: the slots a collection vacates
// past the kept rows hold no row, so the collected rows' value slices
// are not pinned until later appends overwrite the slots.
func TestTruncateReleasesCollectedRows(t *testing.T) {
	d := New(stockSchema())
	for i := 1; i <= 10; i++ {
		_ = d.AppendInsert(relation.TID(i), row(int64(i), "X", 1), vclock.Timestamp(i))
	}
	if n := d.TruncateBefore(8); n != 8 {
		t.Fatalf("TruncateBefore(8) dropped %d, want 8", n)
	}
	rows := d.Rows()
	for i, r := range rows[len(rows):cap(rows)] {
		if r.TID != 0 || r.Old != nil || r.New != nil {
			t.Errorf("slot %d past len still holds tid %d", len(rows)+i, r.TID)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendInsert(1, row(1, "A", 10), 1)
	c := d.Clone()
	c.Rows()[0].New[2] = relation.Float(999)
	if d.Rows()[0].New[2].AsFloat() == 999 {
		t.Error("Clone shares value storage")
	}
}

// TestInsertionsFollowsRowOrder: a tid deleted and then inserted again
// inside the window (storage.Tx.InsertWithTID re-uses tids: a group row's
// tid is its key hash) is present afterwards with the new value, so its
// new half belongs in the insertions view — as it does once Compact has
// folded the two rows into a modification.
func TestInsertionsFollowsRowOrder(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendDelete(7, row(7, "G", 1), 1)
	_ = d.AppendInsert(7, row(7, "G", 2), 2)
	for name, w := range map[string]*Delta{"raw": d, "compacted": d.Compact()} {
		ins, del := w.Insertions(), w.Deletions()
		if tu, ok := ins.Lookup(7); !ok || ins.Len() != 1 || tu.Values[2].AsFloat() != 2 {
			t.Errorf("%s: insertions = %v, want the re-inserted row at 2", name, ins.Tuples())
		}
		if tu, ok := del.Lookup(7); !ok || del.Len() != 1 || tu.Values[2].AsFloat() != 1 {
			t.Errorf("%s: deletions = %v, want the deleted row at 1", name, del.Tuples())
		}
	}
	// And the other way round: born, gone, born again is one insertion.
	d = New(stockSchema())
	_ = d.AppendInsert(8, row(8, "H", 1), 1)
	_ = d.AppendDelete(8, row(8, "H", 1), 2)
	_ = d.AppendInsert(8, row(8, "H", 3), 3)
	if tu, ok := d.Insertions().Lookup(8); !ok || tu.Values[2].AsFloat() != 3 {
		t.Errorf("insertions = %v, want the last insert at 3", d.Insertions().Tuples())
	}
	if got := d.Deletions().Len(); got != 0 {
		t.Errorf("a tid born inside the window has no deletion, got %d", got)
	}
}

// randomWindow builds a valid update history over 12 tids with tid
// reuse — a deleted tid may be inserted again — and returns it with the
// number of rows appended. Every written price is new, so no tid's
// window nets to "no change": that is the one case where the views and
// Compact differ by design (Compact drops a tid modified and back; the
// views, which list halves, show it in both with equal values).
func randomWindow(rng *rand.Rand, rows int) *Delta {
	d := New(stockSchema())
	live := map[relation.TID][]relation.Value{}
	price := 0.0
	fresh := func(tid relation.TID) []relation.Value {
		price++
		return row(int64(tid), "S", price)
	}
	for tid := relation.TID(1); tid <= 6; tid++ {
		live[tid] = fresh(tid) // present before the window
	}
	for ts := vclock.Timestamp(1); d.Len() < rows; ts++ {
		tid := relation.TID(1 + rng.Intn(12))
		old, present := live[tid]
		switch {
		case !present:
			live[tid] = fresh(tid)
			_ = d.AppendInsert(tid, live[tid], ts)
		case rng.Intn(2) == 0:
			delete(live, tid)
			_ = d.AppendDelete(tid, old, ts)
		default:
			live[tid] = fresh(tid)
			_ = d.AppendModify(tid, old, live[tid], ts)
		}
	}
	return d
}

// Property: the insertions and deletions views of a window are those of
// its net effect, Insertions/Deletions(d) ≡ Insertions/Deletions(d.Compact()),
// over random windows in which tids recur and are re-used after a delete.
func TestViewsOfWindowEqualViewsOfCompactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d := randomWindow(rng, 1+rng.Intn(40))
		c := d.Compact()
		if !d.Insertions().EqualByTID(c.Insertions()) {
			t.Fatalf("trial %d: insertions of the window\n%s\ndiffer from those of its compacted form\n%s\nwindow: %+v",
				trial, d.Insertions(), c.Insertions(), d.Rows())
		}
		if !d.Deletions().EqualByTID(c.Deletions()) {
			t.Fatalf("trial %d: deletions of the window\n%s\ndiffer from those of its compacted form\n%s\nwindow: %+v",
				trial, d.Deletions(), c.Deletions(), d.Rows())
		}
	}
}

// referenceCompact is the per-tid fold Compact was first written as, one
// heap state per tid, kept as the reference Fold is checked against.
func referenceCompact(d *Delta) []Row {
	type state struct{ row Row }
	net := map[relation.TID]*state{}
	var order []relation.TID
	for _, r := range d.Rows() {
		st, ok := net[r.TID]
		if !ok {
			net[r.TID] = &state{row: r}
			order = append(order, r.TID)
			continue
		}
		st.row = Row{TID: r.TID, TS: r.TS, Old: st.row.Old, New: r.New}
	}
	var out []Row
	for _, tid := range order {
		r := net[tid].row
		if r.Old == nil && r.New == nil {
			continue
		}
		if r.Old != nil && r.New != nil && valuesEqual(r.Old, r.New) {
			continue
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// TestFoldMatchesReferenceProperty: Compact (and so every image folded
// with Fold) emits exactly the reference fold's rows, in its order —
// over windows of multi-row commits in which tids recur, are deleted
// and inserted again, and are modified back to their original values.
func TestFoldMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		d := New(stockSchema())
		live := map[relation.TID][]relation.Value{}
		for tid := relation.TID(1); tid <= 4; tid++ {
			live[tid] = row(int64(tid), "S", float64(rng.Intn(2)))
		}
		for ts := vclock.Timestamp(1); ts <= vclock.Timestamp(1+rng.Intn(8)); ts++ {
			touched := map[relation.TID]bool{} // a commit writes a tid once
			for op := 0; op < 1+rng.Intn(4); op++ {
				tid := relation.TID(1 + rng.Intn(8))
				if touched[tid] {
					continue
				}
				touched[tid] = true
				old, present := live[tid]
				now := row(int64(tid), "S", float64(rng.Intn(2)))
				switch {
				case !present:
					_ = d.AppendInsert(tid, now, ts)
					live[tid] = now
				case rng.Intn(3) == 0:
					_ = d.AppendDelete(tid, old, ts)
					delete(live, tid)
				default:
					_ = d.AppendModify(tid, old, now, ts)
					live[tid] = now
				}
			}
		}
		got, want := d.Compact().Rows(), referenceCompact(d)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d\nwindow: %+v", trial, len(got), len(want), d.Rows())
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.TID != w.TID || g.TS != w.TS || !sameHalf(g.Old, w.Old) || !sameHalf(g.New, w.New) {
				t.Fatalf("trial %d row %d: %+v, want %+v\nwindow: %+v", trial, i, g, w, d.Rows())
			}
		}
	}
}

func sameHalf(a, b []relation.Value) bool {
	return (a == nil) == (b == nil) && valuesEqual(a, b)
}

// rowsSource is a Source over rows it already holds, counting the reads
// of its rows.
type rowsSource struct {
	rows     []Row
	reads    int
	ins, del int
}

func (s *rowsSource) Len() int                    { return len(s.rows) }
func (s *rowsSource) Counts() (ins, del, mod int) { return s.ins, s.del, len(s.rows) - s.ins - s.del }

func (s *rowsSource) Rows() []Row {
	s.reads++
	return s.rows
}

// TestDeferredDelta: a deferred delta answers Len, Counts and Schema
// from its source without reading its rows, reads them from the source
// for Rows and every view, and is read-only: Append fails with
// ErrDeferred and TruncateBefore panics.
func TestDeferredDelta(t *testing.T) {
	src := &rowsSource{
		rows: []Row{
			{TID: 1, New: row(1, "MAC", 117), TS: 5},
			{TID: 2, Old: row(2, "DEC", 150), New: row(2, "DEC", 149), TS: 5},
			{TID: 3, Old: row(3, "QLI", 145), TS: 5},
		},
		ins: 1, del: 1,
	}
	var d Delta
	d.Defer(stockSchema(), src)
	if d.Len() != 3 || !d.Schema().TypesEqual(stockSchema()) {
		t.Fatalf("Len %d, Schema %s", d.Len(), d.Schema())
	}
	if ins, del, mod := d.Counts(); ins != 1 || del != 1 || mod != 1 {
		t.Fatalf("Counts %d/%d/%d, want 1/1/1", ins, del, mod)
	}
	if src.reads != 0 {
		t.Fatalf("Len, Counts and Schema read the rows %d times", src.reads)
	}
	if got := d.Insertions().Len(); got != 2 {
		t.Fatalf("%d insertions, want 2", got)
	}
	if got := len(d.Rows()); got != 3 || d.MaxTS() != 5 || len(d.Modifications()) != 1 {
		t.Fatalf("Rows %d, MaxTS %d", got, d.MaxTS())
	}
	if src.reads == 0 {
		t.Fatal("the views did not read the source's rows")
	}

	if err := d.Append(Row{TID: 4, New: row(4, "IBM", 75), TS: 6}); !errors.Is(err, ErrDeferred) {
		t.Fatalf("Append: %v, want ErrDeferred", err)
	}
	if err := d.AppendInsert(4, row(4, "IBM", 75), 6); !errors.Is(err, ErrDeferred) {
		t.Fatalf("AppendInsert: %v, want ErrDeferred", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TruncateBefore on a deferred delta did not panic")
			}
		}()
		d.TruncateBefore(5)
	}()
	if d.Len() != 3 || len(d.Rows()) != 3 {
		t.Fatalf("a refused write changed the delta: Len %d, rows %d", d.Len(), len(d.Rows()))
	}
}
