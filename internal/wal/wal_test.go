package wal_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
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

// register logs a registration of each named CQ: the log refuses an
// execution of a CQ it does not hold registered, and so does Scan.
func register(t *testing.T, l *wal.Log, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := l.AppendCQ(&wal.Record{Kind: wal.KindCQRegister, CQ: &wal.CQEntry{Name: name, Query: "SELECT * FROM stocks"}}); err != nil {
			t.Fatal(err)
		}
	}
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

	// The same sweep over staged frames: each step stages two CQExec
	// frames, then appends a transaction, whose one Write carries all
	// three. At every kill point the replay must be a prefix of call
	// order, keep every acknowledged frame, and hold no frame that was
	// never written — at most the three of the write the crash hit.
	const perStep = 3
	step := func(l *wal.Log, i int) error {
		for k := 0; k < perStep-1; k++ {
			if err := l.StageCQExec(fmt.Sprintf("cq%d", k), i+1, vclock.Timestamp(i), false); err != nil {
				return err
			}
		}
		name := fmt.Sprintf("row-%03d", i)
		return l.AppendTx(vclock.Timestamp(i+1), []wal.TxRow{txRow("stocks", uint64(i+1), uint64(i+1), name)})
	}
	var calls []string
	for i := 0; i < rows; i++ {
		for k := 0; k < perStep-1; k++ {
			calls = append(calls, fmt.Sprintf("exec:cq%d:%d", k, i+1))
		}
		calls = append(calls, fmt.Sprintf("tx:row-%03d", i))
	}
	cqs := []string{"cq0", "cq1"}
	clean = faults.NewMemFS(0)
	l, err = wal.Open("wal", wal.Options{FS: clean, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	register(t, l, cqs...)
	for i := 0; i < rows; i++ {
		if err := step(l, i); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got, want := clean.Writes(), 1+len(cqs)+rows; got != want {
		t.Fatalf("staged workload made %d writes, want %d (the magic, the registrations, then one per step)", got, want)
	}
	for kill := 2; kill <= 1+rows; kill++ {
		fs := faults.NewMemFS(int64(100 + kill))
		l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		register(t, l, cqs...)
		fs.KillAfterWrites(kill - 1)
		acked := 0
		var stepErr error
		for i := 0; i < rows && stepErr == nil; i++ {
			if stepErr = step(l, i); stepErr == nil {
				acked += perStep
			}
		}
		if stepErr == nil {
			t.Fatalf("kill %d: the workload outran the kill point", kill)
		}
		// The log is broken: staging and flushing report the sticky
		// error, and what they were handed is never written.
		if err := l.StageCQExec("late", 1, 1, false); err == nil || err.Error() != stepErr.Error() {
			t.Fatalf("kill %d: stage on a broken log = %v, want %v", kill, err, stepErr)
		}
		if err := l.Flush(); err == nil || err.Error() != stepErr.Error() {
			t.Fatalf("kill %d: flush on a broken log = %v, want %v", kill, err, stepErr)
		}
		fs.Crash()
		got := scanLabels(t, fs, "wal")
		for i, label := range got {
			if i >= len(calls) || label != calls[i] {
				t.Fatalf("kill %d: replay is not a prefix of call order at %d: %v", kill, i, got)
			}
		}
		if len(got) < acked || len(got) > acked+perStep {
			t.Fatalf("kill %d: %d frames acked, %d replayed (at most %d more were written)", kill, acked, len(got), perStep)
		}
	}
}

// scanLabels replays a directory and labels every record in log order:
// "tx:<row name>" or "exec:<cq>:<seq>".
func scanLabels(t *testing.T, fs wal.FS, dir string) []string {
	t.Helper()
	var labels []string
	if _, err := wal.Scan(fs, dir, nil, func(rec *wal.Record) error {
		switch rec.Kind {
		case wal.KindTx:
			labels = append(labels, "tx:"+rec.Rows[0].Row.New[0].AsString())
		case wal.KindCQExec:
			labels = append(labels, fmt.Sprintf("exec:%s:%d", rec.Name, rec.Seq))
		}
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return labels
}

// Every write path carries the staged frames ahead of its own, so the
// log holds them in call order; a flush with nothing staged writes
// nothing, and a closed log refuses to stage or flush.
func TestStagedFramesKeepCallOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(l *wal.Log) error
		want  string // the last label, "" when the path logs no record
		extra int    // writes beyond the one carrying the frames
	}{
		{"flush", (*wal.Log).Flush, "", 0},
		{"sync", (*wal.Log).Sync, "", 0},
		{"tx", func(l *wal.Log) error {
			return l.AppendTx(9, []wal.TxRow{txRow("stocks", 9, 9, "row-tx")})
		}, "tx:row-tx", 0},
		{"exec", func(l *wal.Log) error {
			if err := l.StageCQExec("q", 7, 9, false); err != nil {
				return err
			}
			return l.Flush()
		}, "exec:q:7", 0},
		{"drop", func(l *wal.Log) error { return l.AppendCQ(&wal.Record{Kind: wal.KindCQDrop, Name: "q"}) }, "", 0},
		{"rotate", func(l *wal.Log) error { _, err := l.Rotate(); return err }, "", 1}, // the new segment's magic
		{"close", (*wal.Log).Close, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, policy := range []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncNever} {
				fs := faults.NewMemFS(1)
				l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: policy})
				if err != nil {
					t.Fatal(err)
				}
				register(t, l, "q")
				base := fs.Writes()
				if err := l.Flush(); err != nil || fs.Writes() != base {
					t.Fatalf("%v: an empty flush wrote (err %v)", policy, err)
				}
				for seq := 1; seq <= 3; seq++ {
					if err := l.StageCQExec("q", seq, 1, false); err != nil {
						t.Fatal(err)
					}
				}
				if fs.Writes() != base {
					t.Fatalf("%v: staging wrote", policy)
				}
				if err := tc.write(l); err != nil {
					t.Fatal(err)
				}
				if got := fs.Writes() - base; got != 1+tc.extra {
					t.Fatalf("%v: %d writes, want the staged frames and the path's own in one", policy, got)
				}
				_ = l.Close()
				fs.CrashClean() // only what was synced survives
				got := scanLabels(t, fs, "wal")
				want := []string{"exec:q:1", "exec:q:2", "exec:q:3"}
				if tc.want != "" {
					want = append(want, tc.want)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v: replay %v, want %v", policy, got, want)
				}
				if err := l.StageCQExec("q", 4, 1, false); !errors.Is(err, wal.ErrClosed) {
					t.Fatalf("%v: stage on a closed log = %v", policy, err)
				}
				if err := l.Flush(); !errors.Is(err, wal.ErrClosed) {
					t.Fatalf("%v: flush on a closed log = %v", policy, err)
				}
			}
		})
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

// gatedFS parks the first Write to a checkpoint's temporary file until
// release is closed, and closes parked when it gets there.
type gatedFS struct {
	*faults.MemFS
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (fs *gatedFS) Create(name string) (wal.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".ckpt.tmp") {
		return f, err
	}
	return &gatedFile{File: f, fs: fs}, nil
}

type gatedFile struct {
	wal.File
	fs *gatedFS
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.fs.once.Do(func() {
		close(f.fs.parked)
		<-f.fs.release
	})
	return f.File.Write(p)
}

// TestAppendsGoOnWhileCheckpointWrites: the checkpoint file is written
// outside the log lock, so a commit, and a staged record's flush, return
// while the checkpoint's write is parked. Both land in the tail after
// the checkpoint.
func TestAppendsGoOnWhileCheckpointWrites(t *testing.T) {
	fs := &gatedFS{MemFS: faults.NewMemFS(4), parked: make(chan struct{}), release: make(chan struct{})}
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	register(t, l, "q")
	appendWorkload(t, l, 4)
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan error, 1)
	go func() { written <- l.WriteCheckpoint(makeCheckpoint(seg)) }()
	<-fs.parked

	appended := make(chan error, 1)
	go func() {
		if err := l.AppendTx(50, []wal.TxRow{txRow("stocks", 50, 50, "tail-0")}); err != nil {
			appended <- fmt.Errorf("append: %w", err)
			return
		}
		if err := l.StageCQExec("q", 3, 50, false); err != nil {
			appended <- fmt.Errorf("stage: %w", err)
			return
		}
		appended <- l.Flush()
	}()
	select {
	case err := <-appended:
		close(fs.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(fs.release)
		t.Fatal("an append waited for the checkpoint file's write")
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	execs := 0
	res, err := wal.Scan(fs, "wal", nil, func(rec *wal.Record) error {
		if rec.Kind == wal.KindCQExec {
			execs++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.Seg != seg {
		t.Fatalf("checkpoint not recovered: %+v", res.Checkpoint)
	}
	if _, got := scanNames(t, fs, "wal"); len(got) != 1 || got[0] != "tail-0" || execs != 1 {
		t.Fatalf("tail replay: %v, %d cq executions", got, execs)
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

// A segment written before derived commits rode their CQ records holds a
// materializing query's rows as transactions of their own, and a crash
// between those and the query's record cannot be re-derived: recovery
// refuses such a segment with an error that says how to bring the data
// directory over. One without a materializing query still opens
// (TestLegacyLogRecoversSameState).
func TestLegacyLogWithProducerRefused(t *testing.T) {
	stocks := relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
	names := relation.MustSchema(relation.Column{Name: "name", Type: relation.TString})
	segment := wal.LegacySegmentOf(t,
		&wal.Record{Kind: wal.KindCreateTable, Table: "stocks", Schema: stocks},
		&wal.Record{Kind: wal.KindTx, TS: 1, Rows: []wal.TxRow{
			{Table: "stocks", Row: delta.Row{TID: 1, TS: 1, New: []relation.Value{relation.Str("IBM"), relation.Float(150)}}},
		}},
		&wal.Record{Kind: wal.KindCreateTable, Table: "hot", Schema: names},
		&wal.Record{Kind: wal.KindTx, TS: 2, Rows: []wal.TxRow{
			{Table: "hot", Row: delta.Row{TID: 1, TS: 2, New: []relation.Value{relation.Str("IBM")}}},
		}},
		&wal.Record{Kind: wal.KindCQRegister, CQ: &wal.CQEntry{Name: "mid",
			Query: "SELECT name INTO hot FROM stocks WHERE price > 100", TriggerKind: 3, TriggerUpdates: 1, Mode: 1, Seq: 1, LastExec: 1}},
		&wal.Record{Kind: wal.KindTx, TS: 3, Rows: []wal.TxRow{
			{Table: "stocks", Row: delta.Row{TID: 2, TS: 3, New: []relation.Value{relation.Str("HP"), relation.Float(120)}}},
		}},
		// mid's commit of HP, whose execution record the crash cut off.
		&wal.Record{Kind: wal.KindTx, TS: 4, Rows: []wal.TxRow{
			{Table: "hot", Row: delta.Row{TID: 2, TS: 4, New: []relation.Value{relation.Str("HP")}}},
		}},
	)
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
	if err == nil {
		_ = sys.Close()
		t.Fatal("a legacy segment holding a materializing query's rows opened")
	}
	if !strings.Contains(err.Error(), "close it cleanly") {
		t.Fatalf("refused with %v; want the way to bring the directory over", err)
	}
}

// goldenDir is a data directory holding one checkpoint file, of
// segment 3, with the given bytes, and the segment after its cut.
func goldenDir(t *testing.T, ckpt []byte) *faults.MemFS {
	t.Helper()
	fs := faults.NewMemFS(1)
	if err := fs.MkdirAll("data"); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"data/checkpoint-00000003.ckpt": ckpt, "data/wal-00000003.log": []byte("CQWAL002")} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// recoverGolden restores a directory's checkpoint into a fresh store
// and renders the store state and the CQ registry it recovers.
func recoverGolden(t *testing.T, fs wal.FS) (string, error) {
	t.Helper()
	store := storage.NewStore()
	var cqs []wal.CQEntry
	res, err := wal.Scan(fs, "data", func(ck *wal.Checkpoint) error {
		cqs = ck.CQs
		return store.Restore(storage.State{TS: ck.TS, NextTID: ck.NextTID, Tables: ck.Tables})
	}, func(*wal.Record) error { return nil })
	if err != nil {
		return "", err
	}
	if res.Checkpoint == nil || res.Checkpoint.Seg != 3 {
		t.Fatalf("recovered checkpoint %+v, want the one of segment 3", res.Checkpoint)
	}
	st, err := store.CheckpointState(nil)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v / %+v", st, cqs), nil
}

// The golden checkpoint in the CQCKPT01 format, the only one in its
// data directory, fails recovery with the way to bring it over: it is
// never passed over as a crash artifact.
func TestGoldenV1RecoversSameState(t *testing.T) {
	got, err := recoverGolden(t, goldenDir(t, wal.GoldenV1(t)))
	if !errors.Is(err, wal.ErrCheckpointV1) {
		t.Fatalf("golden v1 recovers %s, %v; want ErrCheckpointV1", got, err)
	}
	if !strings.Contains(err.Error(), "checkpoint-00000003.ckpt") {
		t.Fatalf("refusal %q does not name the file", err)
	}
}

// The golden checkpoint in the CQCKPT02 format, the only one in its
// data directory, recovers the same store state and CQ registry as the
// same checkpoint written in the current format.
func TestGoldenV2RecoversSameState(t *testing.T) {
	current := faults.NewMemFS(1)
	l, err := wal.Open("data", wal.Options{FS: current, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(wal.GoldenCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	golden := wal.GoldenCheckpoint()
	want := fmt.Sprintf("%+v / %+v", storage.State{TS: golden.TS, NextTID: golden.NextTID, Tables: golden.Tables}, golden.CQs)
	for name, fs := range map[string]wal.FS{"golden v2": goldenDir(t, wal.GoldenV2(t)), "written now": current} {
		got, err := recoverGolden(t, fs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s recovers\n %s\nwant\n %s", name, got, want)
		}
	}
}

// When no checkpoint loads, recovery does not replay the segments left
// as if they were the whole log: the checkpoints stood for the segments
// collected before them, so Scan refuses, naming the newest checkpoint.
// With the older checkpoint readable, it falls back to it as before.
func TestScanRefusesReplayPastUnreadableCheckpoints(t *testing.T) {
	fs := faults.NewMemFS(12)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendWorkload(t, l, 2)
	for i := 0; i < 3; i++ {
		seg, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(makeCheckpoint(seg)); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendTx(vclock.Timestamp(10+i), []wal.TxRow{txRow("stocks", uint64(10+i), uint64(10+i), fmt.Sprintf("tail-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	garble := func(name string) {
		t.Helper()
		f, err := fs.Create("wal/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("not a checkpoint at all")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	garble("checkpoint-00000003.ckpt")
	res, err := wal.Scan(fs, "wal", nil, func(*wal.Record) error { return nil })
	if err != nil || res.Checkpoint == nil || res.Checkpoint.Seg != 2 {
		t.Fatalf("with the older checkpoint readable: %+v, %v; want it recovered", res, err)
	}
	garble("checkpoint-00000002.ckpt")
	res, err = wal.Scan(fs, "wal", nil, func(*wal.Record) error { return nil })
	if err == nil {
		t.Fatalf("replayed %d records with no checkpoint readable and segments 0 and 1 collected", res.Records)
	}
	if !strings.Contains(err.Error(), "checkpoint-00000003.ckpt") {
		t.Fatalf("refusal %q does not name the unreadable checkpoint", err)
	}
}

// A rotation's cut leaves the old segment unsynced; whatever syncs next
// syncs it first. Each case crashes (dropping every unsynced byte) right
// after a sync that comes before the rotation's own Finish: the log
// must recover every record that sync covered, in call order — never a
// later segment's record without the earlier segment's.
func TestRotationSyncsOldSegmentFirst(t *testing.T) {
	tail := func(name string) func(*testing.T, *faults.MemFS, *wal.Log) error {
		return func(_ *testing.T, _ *faults.MemFS, l *wal.Log) error {
			return l.AppendTx(9, []wal.TxRow{txRow("stocks", 9, 9, name)})
		}
	}
	for _, tc := range []struct {
		name   string
		policy wal.FsyncPolicy
		after  func(*testing.T, *faults.MemFS, *wal.Log) error // runs after the cut
		want   []string
	}{
		// The interval ticker's sync: appends after the cut wait in the
		// buffer, and reach the new segment once the old one is synced.
		{"interval sync", wal.FsyncInterval, func(t *testing.T, fs *faults.MemFS, l *wal.Log) error {
			if err := tail("tail-0")(t, fs, l); err != nil {
				return err
			}
			if got := segmentBytes(t, fs, "wal/wal-00000001.log"); got != len("CQWAL001") {
				t.Fatalf("the new segment holds %d bytes before the old one is synced, want its magic only", got)
			}
			return l.Sync()
		}, []string{"tx:row-000", "tx:row-001", "tx:row-002", "exec:q:1", "tx:tail-0"}},
		// An acknowledged append is synced whichever segment holds it,
		// and so is the staged frame the cut wrote to the old segment.
		{"always append", wal.FsyncAlways, tail("tail-0"),
			[]string{"tx:row-000", "tx:row-001", "tx:row-002", "exec:q:1", "tx:tail-0"}},
		// A flush whose frame the cut wrote returns once it is synced.
		{"always flush", wal.FsyncAlways, func(_ *testing.T, _ *faults.MemFS, l *wal.Log) error { return l.Flush() },
			[]string{"tx:row-000", "tx:row-001", "tx:row-002", "exec:q:1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faults.NewMemFS(6)
			l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: tc.policy, SyncEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			register(t, l, "q")
			appendWorkload(t, l, 3)
			if err := l.StageCQExec("q", 1, 3, false); err != nil {
				t.Fatal(err)
			}
			r, err := l.BeginRotate()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.Cut(); err != nil {
				t.Fatal(err)
			}
			if err := tc.after(t, fs, l); err != nil {
				t.Fatal(err)
			}
			fs.CrashClean()
			if got := scanLabels(t, fs, "wal"); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
			if err := r.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// segmentBytes reads a file's process-visible length.
func segmentBytes(t *testing.T, fs wal.FS, name string) int {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// Appends, flushes and the interval ticker go on beside rotations:
// after a clean close every acknowledged transaction replays, each
// writer's in its call order.
func TestRotationsBesideAppends(t *testing.T) {
	for _, policy := range []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncInterval} {
		fs := faults.NewMemFS(8)
		l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: policy, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		register(t, l, "q")
		const writers, per = 3, 150
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					ts := uint64(w*per + i + 1)
					if err := l.AppendTx(vclock.Timestamp(ts), []wal.TxRow{txRow("stocks", ts, ts, fmt.Sprintf("w%d-%03d", w, i))}); err != nil {
						t.Error(err)
						return
					}
					if i%10 == 0 {
						if err := l.StageCQExec("q", i, vclock.Timestamp(ts), false); err != nil {
							t.Error(err)
							return
						}
						if err := l.Flush(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		rotations := 0
		for running := true; running; rotations++ {
			select {
			case <-done:
				running = false
			default:
			}
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		fs.CrashClean()
		_, got := scanNames(t, fs, "wal")
		next := make([]int, writers)
		for _, name := range got {
			var w, i int
			if _, err := fmt.Sscanf(name, "w%d-%d", &w, &i); err != nil || i != next[w] {
				t.Fatalf("%v: replayed %s out of order (%d rotations)", policy, name, rotations)
			}
			next[w]++
		}
		for w, n := range next {
			if n != per {
				t.Fatalf("%v: writer %d: %d of %d transactions replayed", policy, w, n, per)
			}
		}
	}
}

// A rotation's cut returns the registry fold of every record before it:
// the entries Scan computes from the segments before the cut — alone,
// and from a checkpoint holding the previous cut's entries plus the
// segments after it — through registrations, staged executions, a drop
// and a re-registration of the dropped name.
func TestCutEntriesMatchScan(t *testing.T) {
	fs := faults.NewMemFS(9)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stage := func(name string, seq int, term bool) {
		t.Helper()
		if err := l.StageCQExec(name, seq, vclock.Timestamp(10*seq), term); err != nil {
			t.Fatal(err)
		}
	}
	cut := func(checkpoint bool) []wal.CQEntry {
		t.Helper()
		r, err := l.BeginRotate()
		if err != nil {
			t.Fatal(err)
		}
		seg, entries, err := r.Cut()
		if ferr := r.Finish(); err == nil {
			err = ferr
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := wal.Scan(fs, "wal", nil, func(*wal.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", entries) != fmt.Sprintf("%+v", res.CQs) {
			t.Fatalf("cut at segment %d:\n%+v\nscan:\n%+v", seg, entries, res.CQs)
		}
		if checkpoint {
			if err := l.WriteCheckpoint(&wal.Checkpoint{Seg: seg, CQs: entries}); err != nil {
				t.Fatal(err)
			}
		}
		return entries
	}

	register(t, l, "a", "b", "c")
	stage("a", 2, false)
	stage("b", 2, false)
	cut(false)
	stage("a", 3, false)
	if err := l.AppendCQ(&wal.Record{Kind: wal.KindCQDrop, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	stage("c", 2, true)
	cut(true)
	register(t, l, "b")
	stage("b", 2, false)
	stage("a", 4, false) // staged, written by the cut
	got := cut(true)
	want := []string{"a:4:40:false", "c:2:20:true", "b:2:20:false"}
	var labels []string
	for _, e := range got {
		labels = append(labels, fmt.Sprintf("%s:%d:%d:%v", e.Name, e.Seq, e.LastExec, e.Terminated))
	}
	if fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Fatalf("registry %v, want %v (registration order)", labels, want)
	}
	register(t, l, "d")
	if err := l.AppendCQ(&wal.Record{Kind: wal.KindCQDrop, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	cut(false)
}

// An execution record for a CQ that is not registered is refused: the
// live log stages none (and stays usable), and Scan fails on one whose
// registration it cannot see.
func TestScanRefusesUnregisteredExec(t *testing.T) {
	fs := faults.NewMemFS(10)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.StageCQExec("q", 2, 5, false); err == nil || !strings.Contains(err.Error(), `unregistered cq "q"`) {
		t.Fatalf("staging an unregistered execution = %v", err)
	}
	register(t, l, "q")
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.StageCQExec("q", 2, 5, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if res, _ := scanNames(t, fs, "wal"); len(res.CQs) != 1 || res.CQs[0].Seq != 2 {
		t.Fatalf("registry %+v, want q at seq 2", res.CQs)
	}
	// Without the segment holding the registration, the execution is
	// an execution of nothing.
	if err := fs.Remove("wal/wal-00000000.log"); err != nil {
		t.Fatal(err)
	}
	_, err = wal.Scan(fs, "wal", nil, func(*wal.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), `execution record for unregistered cq "q"`) {
		t.Fatalf("scan = %v, want the unregistered execution refused", err)
	}
}

// Staging an execution record, its encoding and its step of the
// registry fold, allocates nothing once the log's buffer has grown.
func TestStageCQExecAllocatesNothing(t *testing.T) {
	l, err := wal.Open("wal", wal.Options{FS: faults.NewMemFS(11), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	register(t, l, "q")
	seq := 0
	stage := func() {
		seq++
		if err := l.StageCQExec("q", seq, vclock.Timestamp(seq), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		stage()
	}
	if err := l.Flush(); err != nil { // the buffer keeps its capacity
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, stage); got != 0 {
		t.Fatalf("staging an execution record allocates %v times, want 0", got)
	}
}
