package storage

import (
	"errors"
	"reflect"
	"testing"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// recSink records everything a store logs; fail makes the next call error.
type recSink struct {
	creates []string
	drops   []string
	txs     [][]wal.TxRow
	tss     []vclock.Timestamp
	fail    error
}

func (r *recSink) AppendTx(ts vclock.Timestamp, rows []wal.TxRow) error {
	if r.fail != nil {
		return r.fail
	}
	r.tss = append(r.tss, ts)
	r.txs = append(r.txs, rows)
	return nil
}

func (r *recSink) AppendCreateTable(name string, _ relation.Schema) error {
	if r.fail != nil {
		return r.fail
	}
	r.creates = append(r.creates, name)
	return nil
}

func (r *recSink) AppendDropTable(name string) error {
	if r.fail != nil {
		return r.fail
	}
	r.drops = append(r.drops, name)
	return nil
}

func TestWALSinkSeesCommitsWriteAhead(t *testing.T) {
	s := NewStore()
	sink := &recSink{}
	s.SetWALSink(sink)
	if err := s.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	tid, err := tx.Insert("stocks", []relation.Value{relation.Str("DEC"), relation.Int(100)})
	if err != nil {
		t.Fatal(err)
	}
	// Insert+delete in the same tx voids; the voided op must not be logged.
	tid2, _ := tx.Insert("stocks", []relation.Value{relation.Str("GONE"), relation.Int(1)})
	if err := tx.Delete("stocks", tid2); err != nil {
		t.Fatal(err)
	}
	ts := mustCommit(t, tx)

	if !reflect.DeepEqual(sink.creates, []string{"stocks"}) {
		t.Fatalf("creates: %v", sink.creates)
	}
	if len(sink.txs) != 1 || len(sink.txs[0]) != 1 || sink.tss[0] != ts {
		t.Fatalf("logged txs: %+v at %v", sink.txs, sink.tss)
	}
	row := sink.txs[0][0]
	if row.Table != "stocks" || row.Row.TID != tid || row.Row.TS != ts || row.Row.Old != nil {
		t.Fatalf("logged row: %+v", row)
	}
	if err := s.DropTable("stocks"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.drops, []string{"stocks"}) {
		t.Fatalf("drops: %v", sink.drops)
	}
}

func TestSinkFailureFailsCommitUntouched(t *testing.T) {
	s := NewStore()
	sink := &recSink{}
	s.SetWALSink(sink)
	if err := s.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	sink.fail = boom
	tx := s.Begin()
	if _, err := tx.Insert("stocks", []relation.Value{relation.Str("DEC"), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, boom) {
		t.Fatalf("commit: %v, want the sink error", err)
	}
	rel, err := s.Snapshot("stocks")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatal("commit applied despite sink failure")
	}
	if got := s.ChangeCount("stocks"); got != 0 {
		t.Fatalf("change count bumped to %d despite failed commit", got)
	}
	if n, _ := s.DeltaLen("stocks"); n != 0 {
		t.Fatal("delta appended despite sink failure")
	}
}

// buildStore commits a small history: 3 txs on "stocks", 1 on "orders",
// then garbage-collects up to the second commit.
func buildStore(t *testing.T) (*Store, map[string]uint64) {
	t.Helper()
	s := NewStore()
	if err := s.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("orders", stockSchema()); err != nil {
		t.Fatal(err)
	}
	var tids []relation.TID
	var second vclock.Timestamp
	for i := 0; i < 3; i++ {
		tx := s.Begin()
		tid, err := tx.Insert("stocks", []relation.Value{relation.Str("S"), relation.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
		if i == 2 {
			if err := tx.Update("stocks", tids[0], []relation.Value{relation.Str("S"), relation.Int(99)}); err != nil {
				t.Fatal(err)
			}
		}
		ts := mustCommit(t, tx)
		if i == 1 {
			second = ts
		}
	}
	tx := s.Begin()
	if _, err := tx.Insert("orders", []relation.Value{relation.Str("O"), relation.Int(7)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	s.CollectGarbage(second)
	return s, s.ChangeCounts()
}

// TestChangeCountsSurviveCheckpointRestore is the satellite guarantee:
// the per-table change counters — which the dra prepared-plan operand
// caches revalidate by — survive a checkpoint/restore cycle EXACTLY,
// and CollectGarbage neither bumps nor resets them.
func TestChangeCountsSurviveCheckpointRestore(t *testing.T) {
	s, counts := buildStore(t)
	if want := map[string]uint64{"stocks": 3, "orders": 1}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("pre-checkpoint counts: %v, want %v", counts, want)
	}
	// GC must not disturb counters (it does not change base contents).
	s.CollectGarbage(s.Now())
	if got := s.ChangeCounts(); !reflect.DeepEqual(got, counts) {
		t.Fatalf("counts changed by GC: %v vs %v", got, counts)
	}

	cutRan := false
	st, err := s.CheckpointState(func() error { cutRan = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !cutRan {
		t.Fatal("cut not invoked")
	}

	r := NewStore()
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := r.ChangeCounts(); !reflect.DeepEqual(got, counts) {
		t.Fatalf("counts after restore: %v, want %v", got, counts)
	}
	// Low-water marks, clock, contents and delta windows survive too.
	if r.Now() != s.Now() {
		t.Fatalf("clock: %d vs %d", r.Now(), s.Now())
	}
	for _, name := range []string{"stocks", "orders"} {
		ot, _ := s.Table(name)
		rt, _ := r.Table(name)
		if ot.LowWater() != rt.LowWater() {
			t.Fatalf("%s low water: %d vs %d", name, ot.LowWater(), rt.LowWater())
		}
		if ot.DeltaLen() != rt.DeltaLen() {
			t.Fatalf("%s delta len: %d vs %d", name, ot.DeltaLen(), rt.DeltaLen())
		}
		os, _ := s.Snapshot(name)
		rs, _ := r.Snapshot(name)
		if !os.EqualContents(rs) {
			t.Fatalf("%s contents differ after restore", name)
		}
	}
	// A snapshot below the restored low water must still refuse.
	lw, _ := r.Table("stocks")
	if lw.LowWater() == 0 {
		t.Fatal("test expects a nonzero low water")
	}
	if _, err := r.SnapshotAt("stocks", lw.LowWater()-1); !errors.Is(err, ErrStaleWindow) {
		t.Fatalf("stale snapshot: %v, want ErrStaleWindow", err)
	}
}

// TestCheckpointStateKeepsTheCut: a checkpoint state shares value
// slices with the store but not headers, so the updates, deletes and
// garbage collection that follow the cut leave it as it was cut.
func TestCheckpointStateKeepsTheCut(t *testing.T) {
	s := newStockStore(t)
	tx := s.Begin()
	var tids []relation.TID
	for _, name := range []string{"A", "B", "C"} {
		tid, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Float(1)})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	mustCommit(t, tx)
	st, err := s.CheckpointState(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := deepCopyState(st)

	s.CollectGarbage(s.Now()) // clears the log's vacated rows in place
	tx = s.Begin()
	if err := tx.Update("stocks", tids[2], []relation.Value{relation.Str("C"), relation.Float(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", tids[0]); err != nil { // swaps C's header into A's slot
		t.Fatal(err)
	}
	if _, err := tx.Insert("stocks", []relation.Value{relation.Str("D"), relation.Float(3)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	s.CollectGarbage(s.Now())

	if !reflect.DeepEqual(st, want) {
		t.Fatalf("checkpoint state changed after the cut:\n got %+v\nwant %+v", st.Tables, want.Tables)
	}
}

func deepCopyState(st State) State {
	out := st
	out.Tables = make([]wal.TableState, len(st.Tables))
	for i, ts := range st.Tables {
		ts.Tuples = append([]relation.Tuple(nil), ts.Tuples...)
		for j := range ts.Tuples {
			ts.Tuples[j] = ts.Tuples[j].Clone()
		}
		ts.DeltaRows = append(ts.DeltaRows[:0:0], ts.DeltaRows...)
		for j := range ts.DeltaRows {
			ts.DeltaRows[j] = cloneRow(ts.DeltaRows[j])
		}
		out.Tables[i] = ts
	}
	return out
}

func TestRestoreRefusesNonEmptyStore(t *testing.T) {
	s, _ := buildStore(t)
	st, err := s.CheckpointState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(st); err == nil {
		t.Fatal("restore into non-empty store must fail")
	}
}

// TestApplyReplayMatchesCommit replays the WAL records captured from a
// live store into a fresh one and requires identical state: contents,
// change counters, clock, and a working tid allocator.
func TestApplyReplayMatchesCommit(t *testing.T) {
	s := NewStore()
	sink := &recSink{}
	s.SetWALSink(sink)
	if err := s.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	tid, _ := tx.Insert("stocks", []relation.Value{relation.Str("A"), relation.Int(1)})
	mustCommit(t, tx)
	tx = s.Begin()
	if err := tx.Update("stocks", tid, []relation.Value{relation.Str("A"), relation.Int(2)}); err != nil {
		t.Fatal(err)
	}
	tid2, _ := tx.Insert("stocks", []relation.Value{relation.Str("B"), relation.Int(3)})
	mustCommit(t, tx)
	tx = s.Begin()
	if err := tx.Delete("stocks", tid2); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	r := NewStore()
	for _, name := range sink.creates {
		if err := r.CreateTable(name, stockSchema()); err != nil {
			t.Fatal(err)
		}
	}
	for i, rows := range sink.txs {
		if err := r.ApplyReplay(sink.tss[i], rows); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	os, _ := s.Snapshot("stocks")
	rs, _ := r.Snapshot("stocks")
	if !os.EqualContents(rs) {
		t.Fatal("replayed contents differ")
	}
	if !reflect.DeepEqual(r.ChangeCounts(), s.ChangeCounts()) {
		t.Fatalf("replayed counts: %v vs %v", r.ChangeCounts(), s.ChangeCounts())
	}
	if r.Now() != s.Now() {
		t.Fatalf("replayed clock: %d vs %d", r.Now(), s.Now())
	}
	// The allocator must be past every replayed tid.
	if got := r.NewTID(); got <= tid2 {
		t.Fatalf("tid allocator not advanced: %d <= %d", got, tid2)
	}
	// Replay against a missing table is corruption, not tolerated.
	bad := NewStore()
	if err := bad.ApplyReplay(99, sink.txs[0]); err == nil {
		t.Fatal("replay into missing table must fail")
	}
}
