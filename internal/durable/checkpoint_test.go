package durable_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

var errCkptDisk = errors.New("checkpoint disk full")

// failCkptFS fails every write to a checkpoint's temporary file and
// nothing else.
type failCkptFS struct{ *faults.MemFS }

func (fs failCkptFS) Create(name string) (wal.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".ckpt.tmp") {
		return f, err
	}
	return failFile{f}, nil
}

type failFile struct{ wal.File }

func (failFile) Write([]byte) (int, error) { return 0, errCkptDisk }

// A checkpoint that cannot be written returns its error and leaves the
// log usable: the next commit succeeds, no temporary file is left, and
// a reopen after a crash recovers every acknowledged commit from the
// segments the failed checkpoint did not collect.
func TestCheckpointFailureLeavesLogUsable(t *testing.T) {
	fs := failCkptFS{faults.NewMemFS(3)}
	sys := openSys(t, fs, 0)
	setup(t, sys.Store, sys.Manager)
	insertRow(t, sys.Store, "before", 70)
	if err := sys.Checkpoint(); !errors.Is(err, errCkptDisk) {
		t.Fatalf("checkpoint = %v, want %v", err, errCkptDisk)
	}
	insertRow(t, sys.Store, "after", 80)
	if _, err := sys.Manager.Poll(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") || strings.HasSuffix(n, ".ckpt") {
			t.Fatalf("the failed checkpoint left %s (%v)", n, names)
		}
	}
	want, _ := sys.Store.Snapshot("stocks")
	want = want.Clone()
	_ = sys.Manager.Close()
	fs.CrashClean()

	re := openSys(t, fs.MemFS, 0)
	defer re.Close()
	if re.Recovery.FromCheckpoint {
		t.Fatalf("recovered from a checkpoint that failed: %+v", re.Recovery)
	}
	got, _ := re.Store.Snapshot("stocks")
	if !got.EqualContents(want) {
		t.Fatalf("recovered\n%v\nwant\n%v", got, want)
	}
	res, err := re.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	if !res.EqualContents(expectedResult(t, got)) {
		t.Fatalf("watch recovered %v", res)
	}
}

// wideRows rows of a 100-byte name make the stocks table's checkpoint
// image span several chunk frames (about 64 KiB each), its tuples and
// its retained delta rows alike.
const wideRows = 2400

func wideName(i int) string { return fmt.Sprintf("w%04d-%s", i, strings.Repeat("x", 94)) }

// setupWide creates and fills the wide table in four transactions and,
// when mgr is set, registers the watch CQ.
func setupWide(t *testing.T, store *storage.Store, sys *durable.System) {
	t.Helper()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < wideRows; lo += wideRows / 4 {
		tx := store.Begin()
		for i := lo; i < lo+wideRows/4; i++ {
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str(wideName(i)), relation.Int(int64(i % 100))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if sys != nil {
		if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChunkedCheckpointCrashSweep kills the filesystem at every write of
// a checkpoint whose table spans several chunk frames — the rotation's
// new segment, each frame of the checkpoint file — and of the commits
// after it. Recovery must land on the acknowledged prefix (or one
// unacknowledged commit past it), from the checkpoint exactly when it
// was written, and the watch CQ must catch up to it.
func TestChunkedCheckpointCrashSweep(t *testing.T) {
	ops := []op{
		{kind: 0, name: "n0", val: 60},
		{kind: 1, name: wideName(7), val: 99},
		{kind: 2, name: wideName(1000)},
		{kind: 0, name: "n1", val: 5},
	}
	oracle := func() []*relation.Relation {
		s := storage.NewStore()
		setupWide(t, s, nil)
		snap, _ := s.Snapshot("stocks")
		out := []*relation.Relation{snap.Clone()}
		for _, o := range ops {
			if err := applyOp(t, s, o); err != nil {
				t.Fatal(err)
			}
			snap, _ := s.Snapshot("stocks")
			out = append(out, snap.Clone())
		}
		return out
	}()
	run := func(fs *faults.MemFS, kill int) (ckErr error, acked int) {
		sys := openSys(t, fs, 0)
		setupWide(t, sys.Store, sys)
		fs.KillAfterWrites(kill)
		ckErr = sys.Checkpoint()
		for _, o := range ops {
			if applyOp(t, sys.Store, o) != nil {
				break
			}
			acked++
		}
		_ = sys.Manager.Close()
		return ckErr, acked
	}

	clean := faults.NewMemFS(0)
	sys := openSys(t, clean, 0)
	setupWide(t, sys.Store, sys)
	before := clean.Writes()
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptWrites := clean.Writes() - before
	for _, o := range ops {
		if err := applyOp(t, sys.Store, o); err != nil {
			t.Fatal(err)
		}
	}
	total := clean.Writes() - before
	_ = sys.Close()
	// The new segment's magic, then the file: magic, header, table
	// header, at least three chunks, the CQ, the end.
	if ckptWrites < 9 {
		t.Fatalf("the checkpoint made %d writes; its table does not span three chunks", ckptWrites)
	}

	for kill := 1; kill <= total; kill++ {
		tag := fmt.Sprintf("kill=%d/%d", kill, total)
		fs := faults.NewMemFS(int64(500 + kill))
		ckErr, acked := run(fs, kill)
		if acked == len(ops) && !fs.Frozen() {
			t.Fatalf("%s: the kill point did not fire", tag)
		}
		fs.Crash()
		re := openSys(t, fs, 0)
		if re.Recovery.FromCheckpoint != (ckErr == nil) {
			t.Fatalf("%s: checkpoint error %v, recovered from a checkpoint: %v", tag, ckErr, re.Recovery.FromCheckpoint)
		}
		got, _ := re.Store.Snapshot("stocks")
		if !got.EqualContents(oracle[acked]) && (acked == len(ops) || !got.EqualContents(oracle[acked+1])) {
			t.Fatalf("%s: recovered state is not the prefix of %d acknowledged commits", tag, acked)
		}
		if _, err := re.Manager.Poll(); err != nil {
			t.Fatalf("%s: poll: %v", tag, err)
		}
		res, err := re.Manager.Result("watch")
		if err != nil {
			t.Fatal(err)
		}
		if !res.EqualContents(expectedResult(t, got)) {
			t.Fatalf("%s: watch diverged after recovery", tag)
		}
		_ = re.Close()
	}
}
