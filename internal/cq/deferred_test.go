package cq

import (
	"sync"
	"testing"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
)

// TestPollRendersUnreadChangesNever: a selection's refresh keeps its
// change columnar, and its notification's Delta renders rows only when a
// reader asks. Polls of 64 selection CQs whose subscribers never read
// Delta deliver non-empty notifications and render no row
// (dra.changes_rendered stays 0); one subscriber that reads its rows
// renders exactly its own non-empty notifications, once each however
// often it reads them.
func TestPollRendersUnreadChangesNever(t *testing.T) {
	rb := newRoundBench(t, false)
	defer func() { _ = rb.mgr.Close() }()
	for i := 0; i < 4; i++ {
		rb.commit(t)
		rb.poll(t)
	}
	snap := rb.reg.Snapshot()
	if n := snap.Counter("dra.changes_rendered"); n != 0 {
		t.Fatalf("%d changes rendered, want 0: no subscriber read a row", n)
	}
	if refreshes, empty := snap.Counter("cq.refreshes"), snap.Counter("cq.refreshes_empty"); refreshes-empty == 0 {
		t.Fatalf("no refresh of %d had a change: the check proves nothing", refreshes)
	}

	read := 0
	if _, err := rb.mgr.SubscribeFunc("q00", func(n Notification, closed bool) {
		if closed || n.Delta.Len() == 0 {
			return
		}
		read++
		for k := 0; k < 3; k++ {
			if got := len(n.Delta.Rows()); got != n.Delta.Len() {
				t.Errorf("Rows() has %d rows, Len() %d", got, n.Delta.Len())
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rb.commit(t)
		rb.poll(t)
	}
	if read == 0 {
		t.Fatal("q00 got no non-empty notification in 8 polls")
	}
	if n := rb.reg.Snapshot().Counter("dra.changes_rendered"); n != int64(read) {
		t.Fatalf("%d changes rendered, want %d (the notifications q00's reader read)", n, read)
	}
}

// TestNotificationRendersOnce: eight goroutines read one notification's
// change at once — its rows and its insertions view — and all see one
// rendering: the change renders exactly once (run it under -race).
func TestNotificationRendersOnce(t *testing.T) {
	rb := newQuotesBench(t, Config{UseDRA: true, Parallelism: 1})
	defer func() { _ = rb.mgr.Close() }()
	var notes []Notification
	if _, err := rb.mgr.Register(Def{Name: "all", Query: "SELECT * FROM quotes WHERE px >= 0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.mgr.SubscribeFunc("all", func(n Notification, closed bool) {
		if !closed {
			notes = append(notes, n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rb.commit(t)
	if _, err := rb.mgr.Poll(); err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].Delta.Len() == 0 {
		t.Fatalf("got %d notifications, want one with a change", len(notes))
	}
	note := notes[0]
	want := note.Delta.Len()
	var wg sync.WaitGroup
	firsts := make([]*delta.Row, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if n := note.Inserted().Len(); n != want {
					t.Errorf("goroutine %d: %d insertions, want %d", g, n, want)
				}
			}
			rows := note.Delta.Rows()
			if len(rows) != want {
				t.Errorf("goroutine %d: %d rows, want %d", g, len(rows), want)
				return
			}
			firsts[g] = &rows[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(firsts); g++ {
		if firsts[g] != firsts[0] {
			t.Fatalf("goroutines 0 and %d read different renderings", g)
		}
	}
	if n := rb.reg.Snapshot().Counter("dra.changes_rendered"); n != 1 {
		t.Fatalf("the change rendered %d times, want once", n)
	}
}

// TestDeletionsModeCountsWithoutRendering: in ModeDeletions a refresh
// whose change only inserts shows nothing and is not delivered, and one
// that deletes is — decided from the change's counts (Notification.Empty),
// so neither renders a row until the subscriber reads one.
func TestDeletionsModeCountsWithoutRendering(t *testing.T) {
	rb := newQuotesBench(t, Config{UseDRA: true, Parallelism: 1})
	defer func() { _ = rb.mgr.Close() }()
	if _, err := rb.mgr.Register(Def{Name: "gone", Query: "SELECT * FROM quotes WHERE px >= 0", Mode: sql.ModeDeletions}); err != nil {
		t.Fatal(err)
	}
	var notes []Notification
	if _, err := rb.mgr.SubscribeFunc("gone", func(n Notification, closed bool) {
		if !closed {
			notes = append(notes, n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	step := func(write func(tx *storage.Tx) error) {
		t.Helper()
		tx := rb.store.Begin()
		if err := write(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := rb.mgr.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	step(func(tx *storage.Tx) error {
		_, err := tx.Insert("quotes", quotesRow(rb.rng, roundBenchRows))
		return err
	})
	if len(notes) != 0 {
		t.Fatalf("an insert-only change was delivered in ModeDeletions: %d notifications", len(notes))
	}
	step(func(tx *storage.Tx) error { return tx.Delete("quotes", rb.tids[0]) })
	if len(notes) != 1 {
		t.Fatalf("%d notifications after a delete, want 1", len(notes))
	}
	if n := rb.reg.Snapshot().Counter("dra.changes_rendered"); n != 0 {
		t.Fatalf("%d changes rendered before any row was read", n)
	}
	if got := notes[0].Deleted().Len(); got != 1 {
		t.Fatalf("%d deleted rows, want 1", got)
	}
}
