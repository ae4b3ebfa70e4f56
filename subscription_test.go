package continual

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// The backpressure policies run in Subscription.onNotification — the only
// place the engine buffers notifications — so this is where they are
// tested: each case attaches a one-slot subscription to a per-update
// query, refreshes against the full buffer, and reads what the consumer
// would see.

func backpressureSub(t *testing.T, policy BackpressurePolicy) (*DB, *Subscription) {
	t.Helper()
	db := Open()
	t.Cleanup(func() { _ = db.Close() })
	if err := db.Exec(`CREATE TABLE stocks (name STRING, price FLOAT)`); err != nil {
		t.Fatal(err)
	}
	// The registering subscription keeps its default 64-slot buffer and
	// never fills here; the one under test is the second subscriber.
	if _, err := db.Register("q", `SELECT * FROM stocks WHERE price > 0`, TriggerUpdates(1)); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeWith("q", SubscribeOptions{Buffer: 1, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return db, sub
}

// refreshOnce commits one row and runs the poll round that refreshes q.
func refreshOnce(t *testing.T, db *DB, name string, price float64) {
	t.Helper()
	if err := db.Exec(fmt.Sprintf(`INSERT INTO stocks VALUES ('%s', %g)`, name, price)); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 1 {
		t.Fatalf("poll after inserting %s refreshed %d queries, want 1", name, n)
	}
}

func TestBackpressureDropNewest(t *testing.T) {
	db, sub := backpressureSub(t, DropNewest)

	refreshOnce(t, db, "A", 10) // fills the buffer (seq 2)
	refreshOnce(t, db, "B", 20) // dropped
	refreshOnce(t, db, "C", 30) // dropped

	c1 := <-sub.Updates()
	if c1.Seq != 2 || c1.Dropped != 0 {
		t.Fatalf("first delivery = %+v", c1)
	}
	refreshOnce(t, db, "D", 40) // buffer free again
	c2 := <-sub.Updates()
	if c2.Seq != 5 || c2.Dropped != 2 {
		t.Fatalf("post-gap delivery seq=%d dropped=%d, want seq=5 dropped=2", c2.Seq, c2.Dropped)
	}
	if got := db.Stats().Counter("cq.notifications.dropped"); got != 2 {
		t.Errorf("cq.notifications.dropped = %d, want 2", got)
	}
}

func TestBackpressureDropOldest(t *testing.T) {
	db, sub := backpressureSub(t, DropOldest)

	refreshOnce(t, db, "A", 10) // seq 2 queued
	refreshOnce(t, db, "B", 20) // evicts seq 2, queues seq 3 with gap

	c := <-sub.Updates()
	if c.Seq != 3 || c.Dropped != 1 {
		t.Fatalf("delivery seq=%d dropped=%d, want freshest seq=3 with dropped=1", c.Seq, c.Dropped)
	}
	select {
	case extra := <-sub.Updates():
		t.Fatalf("unexpected extra change %+v", extra)
	default:
	}
}

// Chained evictions must not lose the evictee's own Dropped count: the
// gap accumulates, so delivered + Dropped always equals notifications
// sent.
func TestBackpressureDropOldestAccumulatesGap(t *testing.T) {
	db, sub := backpressureSub(t, DropOldest)

	// Five refreshes against a full buffer: seq 2 queues, 3-5 each
	// evict their predecessor, seq 6 must carry the whole gap.
	for i, price := range []float64{10, 20, 30, 40, 50} {
		refreshOnce(t, db, fmt.Sprintf("S%d", i), price)
	}
	c := <-sub.Updates()
	if c.Seq != 6 || c.Dropped != 4 {
		t.Fatalf("delivery seq=%d dropped=%d, want seq=6 with dropped=4", c.Seq, c.Dropped)
	}
	if got := db.Stats().Counter("cq.notifications.dropped"); got != 4 {
		t.Errorf("cq.notifications.dropped = %d, want 4", got)
	}
}

func TestBackpressureDisconnectAndResume(t *testing.T) {
	db, sub := backpressureSub(t, Disconnect)

	refreshOnce(t, db, "A", 10) // seq 2: delivered into the buffer
	refreshOnce(t, db, "B", 20) // seq 3: full buffer -> disconnect

	c1, ok := <-sub.Updates()
	if !ok || c1.Seq != 2 {
		t.Fatalf("queued delivery = %+v ok=%v", c1, ok)
	}
	if _, ok := <-sub.Updates(); ok {
		t.Fatal("channel not closed after disconnect")
	}
	if !sub.Disconnected() {
		t.Fatal("Disconnected() = false")
	}
	if got := db.Stats().Counter("cq.notifications.dropped"); got != 1 {
		t.Errorf("cq.notifications.dropped = %d, want 1 (the change that found the buffer full)", got)
	}

	// Resume from where the consumer left off: the catch-up carries the
	// gap count and the full current result; deliveries then continue
	// gap-free.
	sub2, catch, err := sub.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if catch.Seq != 3 || catch.Dropped != 1 || len(catch.Complete) != 2 {
		t.Fatalf("catch-up = %+v", catch)
	}
	if sub2.Disconnected() {
		t.Fatal("resumed subscription reports Disconnected")
	}
	refreshOnce(t, db, "C", 30)
	c3 := <-sub2.Updates()
	if c3.Seq != 4 || c3.Dropped != 0 {
		t.Fatalf("post-resume delivery = %+v", c3)
	}
}

// TestSubscriberBufferDropsWithoutBlocking: the default policy never
// makes a refresh wait for a consumer that reads nothing.
func TestSubscriberBufferDropsWithoutBlocking(t *testing.T) {
	db, sub := backpressureSub(t, DropNewest)
	for i := 0; i < 5; i++ {
		refreshOnce(t, db, "S", float64(i+1))
	}
	// Only one buffered; the rest dropped, but Poll never blocked.
	if got := len(sub.Updates()); got != 1 {
		t.Errorf("buffered = %d, want 1", got)
	}
	// The drops are counted, not silent: 5 notifications minus the 1
	// buffered.
	if got := db.Stats().Counter("cq.notifications.dropped"); got != 4 {
		t.Errorf("cq.notifications.dropped = %d, want 4", got)
	}
}

// toChange walks a notification's delta rows straight into Change rows;
// what it builds must be what the notification's rendered views give, in
// the same order, in every mode — and for a catch-up, which carries only
// the complete result.
func TestToChangeMatchesTheViews(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
	row := func(name string, price float64) []relation.Value {
		return []relation.Value{relation.Str(name), relation.Float(price)}
	}
	d := delta.New(schema)
	for _, err := range []error{
		d.AppendModify(4, row("DEC", 150), row("DEC", 149), 7),
		d.AppendInsert(9, row("MAC", 117), 7),
		d.AppendDelete(2, row("QLI", 145), 7),
		d.AppendInsert(1, row("IBM", 75), 7),
		d.AppendModify(3, row("HP", 20), row("HP", 21), 7),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	complete := relation.New(schema)
	if err := complete.Insert(relation.Tuple{TID: 4, Values: row("DEC", 149)}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sql.ResultMode{sql.ModeDifferential, sql.ModeDeletions, sql.ModeComplete} {
		n := cq.Notification{CQName: "q", Seq: 3, Mode: mode, Delta: d, Dropped: 1}
		if mode == sql.ModeComplete {
			n.Complete = complete
		}
		want := Change{
			CQ: "q", Seq: 3, Dropped: 1, Columns: []string{"name", "price"},
			Inserted: rowsData(n.Inserted()),
			Deleted:  rowsData(n.Deleted()),
			Modified: modifications(n.Modified()),
			Complete: rowsData(n.Complete),
		}
		if got := toChange(n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: toChange =\n %+v\nthe views give\n %+v", mode, got, want)
		}
	}
	catchUp := cq.Notification{CQName: "q", Seq: 3, Mode: sql.ModeDifferential, Complete: complete}
	want := Change{CQ: "q", Seq: 3, Columns: []string{"name", "price"}, Modified: []Modification{}}
	if got := toChange(catchUp); !reflect.DeepEqual(got, want) {
		t.Errorf("catch-up: toChange =\n %+v\nwant\n %+v", got, want)
	}
}
