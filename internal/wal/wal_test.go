package wal_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

func txRow(table string, tid uint64, ts uint64, name string) wal.TxRow {
	return wal.TxRow{Table: table, Row: delta.Row{
		TID: relation.TID(tid),
		TS:  vclock.Timestamp(ts),
		New: []relation.Value{relation.Str(name)},
	}}
}

// appendWorkload logs n single-row transactions and returns their names.
func appendWorkload(t *testing.T, l *wal.Log, n int) []string {
	t.Helper()
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("row-%03d", i)
		if err := l.AppendTx(vclock.Timestamp(i+1), []wal.TxRow{txRow("stocks", uint64(i+1), uint64(i+1), name)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		names = append(names, name)
	}
	return names
}

// scanNames replays a directory and extracts the tx row names in order.
func scanNames(t *testing.T, fs wal.FS, dir string) (*wal.ScanResult, []string) {
	t.Helper()
	var names []string
	res, err := wal.Scan(fs, dir, nil, func(rec *wal.Record) error {
		if rec.Kind == wal.KindTx {
			for _, r := range rec.Rows {
				names = append(names, r.Row.New[0].AsString())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return res, names
}

func TestLogAppendScanRoundTripOSFS(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := appendWorkload(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, got := scanNames(t, nil, dir)
	if res.Checkpoint != nil || res.Torn != 0 {
		t.Fatalf("unexpected scan result %+v", res)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestRotateSplitsSegments(t *testing.T) {
	fs := faults.NewMemFS(1)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendWorkload(t, l, 3)
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seg != 1 {
		t.Fatalf("rotate returned segment %d, want 1", seg)
	}
	if err := l.AppendTx(100, []wal.TxRow{txRow("stocks", 99, 100, "post-rotate")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, got := scanNames(t, fs, "wal")
	if len(got) != 4 || got[3] != "post-rotate" {
		t.Fatalf("replay across rotation: %v (result %+v)", got, res)
	}
}

// TestTornTailSweep arms a kill-point at every write boundary of a fixed
// workload; after each crash, recovery must replay a clean prefix of the
// acknowledged transactions and flag at most torn tails — never an error,
// never reordered or phantom records.
func TestTornTailSweep(t *testing.T) {
	const rows = 8
	// Clean run to learn the write count.
	clean := faults.NewMemFS(0)
	l, err := wal.Open("wal", wal.Options{FS: clean, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendWorkload(t, l, rows)
	l.Close()
	total := clean.Writes()

	for kill := 1; kill <= total; kill++ {
		fs := faults.NewMemFS(int64(kill))
		fs.KillAfterWrites(kill)
		l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
		if err != nil {
			if !errors.Is(err, faults.ErrCrashed) {
				t.Fatalf("kill %d: open: %v", kill, err)
			}
			fs.Crash()
			res, got := scanNames(t, fs, "wal")
			if len(got) != 0 {
				t.Fatalf("kill %d: records from crashed open: %v (%+v)", kill, got, res)
			}
			continue
		}
		acked := 0
		for i := 0; i < rows; i++ {
			name := fmt.Sprintf("row-%03d", i)
			err := l.AppendTx(vclock.Timestamp(i+1), []wal.TxRow{txRow("stocks", uint64(i+1), uint64(i+1), name)})
			if err != nil {
				break
			}
			acked++
		}
		fs.Crash()
		_, got := scanNames(t, fs, "wal")
		// Prefix property: replayed records are exactly row-000..row-k.
		for i, name := range got {
			if want := fmt.Sprintf("row-%03d", i); name != want {
				t.Fatalf("kill %d: replay out of order at %d: %v", kill, i, got)
			}
		}
		// With fsync=always every acknowledged append must survive. One
		// extra record may survive beyond acked: the write completed into
		// the cache and the crash flushed it — allowed, it was simply
		// never acknowledged.
		if len(got) < acked || len(got) > acked+1 {
			t.Fatalf("kill %d: %d acked but %d replayed", kill, acked, len(got))
		}
	}
}

func makeCheckpoint(seg uint64) *wal.Checkpoint {
	schema := relation.MustSchema(relation.Column{Name: "name", Type: relation.TString})
	return &wal.Checkpoint{
		Seg:     seg,
		TS:      17,
		NextTID: 40,
		Tables: []wal.TableState{{
			Name:   "stocks",
			Schema: schema,
			Tuples: []relation.Tuple{
				{TID: 1, Values: []relation.Value{relation.Str("row-000")}},
				{TID: 2, Values: []relation.Value{relation.Str("row-001")}},
			},
			DeltaRows: []delta.Row{{TID: 2, TS: 16, New: []relation.Value{relation.Str("row-001")}}},
			LowWater:  9,
			Version:   2,
		}},
		CQs: []wal.CQEntry{{Name: "q", Query: "SELECT * FROM stocks", TriggerKind: 3, TriggerUpdates: 1, Mode: 1, Seq: 2, LastExec: 16}},
	}
}

func TestCheckpointCutAndReplay(t *testing.T) {
	fs := faults.NewMemFS(2)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendWorkload(t, l, 4) // pre-cut: covered by the checkpoint
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(makeCheckpoint(seg)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTx(50, []wal.TxRow{txRow("stocks", 50, 50, "tail-0")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	res, got := scanNames(t, fs, "wal")
	if res.Checkpoint == nil {
		t.Fatal("no checkpoint recovered")
	}
	ck := res.Checkpoint
	if ck.Seg != seg || ck.TS != 17 || ck.NextTID != 40 {
		t.Fatalf("checkpoint header: %+v", ck)
	}
	if len(ck.Tables) != 1 || ck.Tables[0].Name != "stocks" || ck.Tables[0].Version != 2 ||
		ck.Tables[0].LowWater != 9 || len(ck.Tables[0].Tuples) != 2 || len(ck.Tables[0].DeltaRows) != 1 {
		t.Fatalf("checkpoint table: %+v", ck.Tables)
	}
	if len(ck.CQs) != 1 || ck.CQs[0].Name != "q" || ck.CQs[0].Seq != 2 {
		t.Fatalf("checkpoint cqs: %+v", ck.CQs)
	}
	// Only the tail past the cut replays — this is the property E17
	// measures as "recovery replays only the WAL tail".
	if len(got) != 1 || got[0] != "tail-0" {
		t.Fatalf("tail replay: %v", got)
	}
}

func TestCheckpointGCKeepsTwo(t *testing.T) {
	fs := faults.NewMemFS(3)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.AppendTx(vclock.Timestamp(100+i), []wal.TxRow{txRow("stocks", uint64(100+i), uint64(100+i), fmt.Sprintf("gen-%d", i))}); err != nil {
			t.Fatal(err)
		}
		seg, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(makeCheckpoint(seg)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	names, err := fs.List("wal")
	if err != nil {
		t.Fatal(err)
	}
	ckpts, segs := 0, 0
	for _, n := range names {
		switch {
		case len(n) > 5 && n[:5] == "check":
			ckpts++
		case len(n) > 4 && n[:4] == "wal-":
			segs++
		}
	}
	if ckpts != 2 {
		t.Fatalf("gc kept %d checkpoints, want 2 (%v)", ckpts, names)
	}
	// Segments before the older surviving checkpoint's cut are gone.
	if segs > 3 {
		t.Fatalf("gc kept %d segments (%v)", segs, names)
	}
	if res, _ := scanNames(t, fs, "wal"); res.Checkpoint == nil || res.Checkpoint.Seg != 3 {
		t.Fatalf("newest checkpoint not recovered: %+v", res.Checkpoint)
	}
}

// TestCheckpointCrashFallsBack kills the filesystem at every write
// boundary inside a WriteCheckpoint; recovery must come up with either
// the previous checkpoint or the new one — never nothing, never an error.
func TestCheckpointCrashFallsBack(t *testing.T) {
	build := func(fs *faults.MemFS) (*wal.Log, uint64) {
		l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		appendWorkload(t, l, 2)
		seg, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(makeCheckpoint(seg)); err != nil {
			t.Fatal(err)
		}
		return l, seg
	}

	clean := faults.NewMemFS(0)
	l, _ := build(clean)
	before := clean.Writes()
	seg2, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(makeCheckpoint(seg2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	ckptWrites := clean.Writes() - before

	for kill := 1; kill <= ckptWrites; kill++ {
		fs := faults.NewMemFS(int64(1000 + kill))
		l, firstSeg := build(fs)
		fs.KillAfterWrites(kill) // fire inside the second rotate+checkpoint
		var second uint64
		if s, err := l.Rotate(); err == nil {
			second = s
			l.WriteCheckpoint(makeCheckpoint(s)) // may fail at the kill-point
		}
		fs.Crash()
		res, err := wal.Scan(fs, "wal", nil, func(*wal.Record) error { return nil })
		if err != nil {
			t.Fatalf("kill %d: scan: %v", kill, err)
		}
		if res.Checkpoint == nil {
			t.Fatalf("kill %d: no checkpoint survived", kill)
		}
		if got := res.Checkpoint.Seg; got != firstSeg && got != second {
			t.Fatalf("kill %d: recovered checkpoint seg %d, want %d or %d", kill, got, firstSeg, second)
		}
	}
}

func TestFsyncNeverLosesUnsynced(t *testing.T) {
	fs := faults.NewMemFS(4)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendWorkload(t, l, 5)
	// Power loss with nothing flushed: everything pending is dropped.
	fs.CrashClean()
	res, got := scanNames(t, fs, "wal")
	if len(got) != 0 {
		t.Fatalf("unsynced records survived a clean-loss crash: %v (%+v)", got, res)
	}
}

func TestBrokenLogIsSticky(t *testing.T) {
	fs := faults.NewMemFS(5)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fs.KillAfterWrites(1)
	var firstErr error
	for i := 0; i < 3; i++ {
		if err := l.AppendTx(vclock.Timestamp(i+1), []wal.TxRow{txRow("t", uint64(i+1), uint64(i+1), "x")}); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("append survived the kill-point")
	}
	fs.Crash() // filesystem is healthy again...
	if err := l.AppendTx(99, []wal.TxRow{txRow("t", 99, 99, "y")}); err == nil {
		t.Fatal("...but the log must stay broken (fail-stop)")
	}
}

// A data directory whose log was written in the legacy layout (CQ
// results and result deltas inline) opens to the same recovered CQ as
// one written in the current layout, and its next refresh is the same.
func TestLegacyLogRecoversSameState(t *testing.T) {
	reopen := func(segment []byte) string {
		t.Helper()
		fs := faults.NewMemFS(1)
		if err := fs.MkdirAll("data"); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("data/wal-00000000.log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(segment); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		sys, err := durable.Open(durable.Options{Dir: "data", FS: fs, CQ: cq.Config{UseDRA: true}})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer func() { _ = sys.Close() }()
		var notes []string
		if _, err := sys.Manager.SubscribeFunc("q1", func(n cq.Notification, closed bool) {
			if !closed {
				notes = append(notes, fmt.Sprintf("seq=%d ins=%v", n.Seq, n.Inserted().Tuples()))
			}
		}); err != nil {
			t.Fatal(err)
		}
		before, err := sys.Manager.State("q1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Manager.Poll(); err != nil {
			t.Fatal(err)
		}
		after, _ := sys.Manager.State("q1")
		return fmt.Sprintf("%+v / %v / %+v", before, notes, after)
	}
	legacy, current := reopen(wal.LegacySegment(t)), reopen(wal.CurrentSegment(t))
	if legacy != current {
		t.Fatalf("legacy log recovers\n  %s\ncurrent layout\n  %s", legacy, current)
	}
	if !strings.Contains(legacy, "Seq:2 LastExec:2") || !strings.Contains(legacy, "ResultLen:2") ||
		!strings.Contains(legacy, "seq=3 ins=[{1 [DEC]}]") {
		t.Fatalf("recovered %s; want q1 at seq 2 with IBM and HP, then DEC inserted at seq 3", legacy)
	}
}
