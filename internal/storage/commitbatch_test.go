package storage

import (
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
)

// TestCommitHookCarriesColumnarBatch verifies the commit hook's batch
// is an exact ordered signed image of the commit: the same rows, in tx
// op order, that the delta log recorded.
func TestCommitHookCarriesColumnarBatch(t *testing.T) {
	s := newStockStore(t)
	var events []CommitEvent
	s.SetCommitHook(func(ev CommitEvent) { events = append(events, ev) })

	tx := s.Begin()
	tid1, err := tx.Insert("stocks", sv("DEC", 150))
	if err != nil {
		t.Fatal(err)
	}
	tid2, err := tx.Insert("stocks", sv("IBM", 75))
	if err != nil {
		t.Fatal(err)
	}
	ts := mustCommit(t, tx)

	tx = s.Begin()
	if err := tx.Update("stocks", tid1, sv("DEC", 160)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", tid2); err != nil {
		t.Fatal(err)
	}
	ts2 := mustCommit(t, tx)

	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	b := events[0].Changes[0].Batch
	if b == nil {
		t.Fatal("first commit batch is nil")
	}
	if b.Len() != 2 {
		t.Fatalf("first commit batch rows = %d, want 2 (+DEC +IBM)", b.Len())
	}
	if b.Signs[0] != 1 || b.Signs[1] != 1 {
		t.Fatalf("signs = %v, want both +1", b.Signs)
	}
	if b.TIDs[0] != tid1 || b.TIDs[1] != tid2 {
		t.Fatalf("tids = %v, want tx op order [%d %d]", b.TIDs, tid1, tid2)
	}
	if b.TS == nil || b.TS[0] != ts {
		t.Fatalf("TS column = %v, want stamped with commit ts %d", b.TS, ts)
	}
	if got := b.Value(0, 0); !got.Equal(relation.Str("DEC")) {
		t.Fatalf("row 0 col 0 = %v, want DEC", got)
	}

	// Modify expands to -old then +new; the delete contributes one -old.
	b2 := events[1].Changes[0].Batch
	if b2 == nil || b2.Len() != 3 {
		t.Fatalf("second commit batch = %v, want 3 signed rows", b2)
	}
	wantSigns := []int8{-1, 1, -1}
	for i, w := range wantSigns {
		if b2.Signs[i] != w {
			t.Fatalf("sign[%d] = %d, want %d", i, b2.Signs[i], w)
		}
	}
	if !b2.Value(1, 1).Equal(relation.Float(160)) {
		t.Fatalf("+new price = %v, want 160", b2.Value(1, 1))
	}
	if b2.TS[2] != ts2 {
		t.Fatalf("TS[2] = %d, want %d", b2.TS[2], ts2)
	}

	// The batch must agree with the delta window the same commit wrote.
	w, err := s.DeltaSince("stocks", ts)
	if err != nil {
		t.Fatal(err)
	}
	img, ok := batch.FromDelta(nil, w)
	if !ok {
		t.Fatal("window unconvertible")
	}
	if img.Len() != b2.Len() {
		t.Fatalf("window image rows = %d, batch rows = %d", img.Len(), b2.Len())
	}
	for i := 0; i < img.Len(); i++ {
		if img.TIDs[i] != b2.TIDs[i] || img.Signs[i] != b2.Signs[i] {
			t.Fatalf("row %d: window (%d,%d) vs commit batch (%d,%d)",
				i, img.TIDs[i], img.Signs[i], b2.TIDs[i], b2.Signs[i])
		}
	}
}

// TestWindowBatchSharesOneConversion: the columnar image of a window is
// built once per cache key and shared.
func TestWindowBatchSharesOneConversion(t *testing.T) {
	s := newStockStore(t)
	t0 := s.Now()
	tx := s.Begin()
	if _, err := tx.Insert("stocks", sv("DEC", 150)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("stocks", sv("IBM", 75)); err != nil {
		t.Fatal(err)
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	b1, err := c.WindowBatch("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == nil || b1.Len() != 2 {
		t.Fatalf("window batch = %v, want 2 rows", b1)
	}
	b2, err := c.WindowBatch("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("second WindowBatch must share the first conversion")
	}
	// The image mirrors the row window exactly.
	w, err := c.Window("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != b1.Len() {
		t.Fatalf("rows: window %d vs batch %d", w.Len(), b1.Len())
	}
}
