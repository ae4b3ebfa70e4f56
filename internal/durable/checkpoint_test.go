package durable_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
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

// TestCheckpointBesideStuckSubscriber: a subscriber parked inside
// delivery holds its CQ's instance lock. A checkpoint takes no manager
// or instance lock, so it returns beside it, and Manager.Health, which
// takes the manager lock, is not held up behind the checkpoint.
func TestCheckpointBesideStuckSubscriber(t *testing.T) {
	const bound = 2 * time.Second
	sys := openSys(t, faults.NewMemFS(12), 0)
	defer sys.Close()
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if _, err := sys.Manager.SubscribeFunc("watch", func(_ cq.Notification, closed bool) {
		if !closed {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "r", 60)
	polled := make(chan error, 1)
	go func() {
		_, err := sys.Manager.Poll()
		polled <- err
	}()
	<-entered

	within := func(name string, f func() error) {
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(bound):
			t.Errorf("%s blocked for more than %v beside a parked subscriber", name, bound)
		}
	}
	within("Checkpoint", sys.Checkpoint)
	within("Health", func() error {
		if h := sys.Manager.Health(); h.Healthy != 1 {
			return fmt.Errorf("health %+v, want one healthy CQ", h)
		}
		return nil
	})
	close(release)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChangesNothing: a checkpoint's registry is what
// replaying the segments before its cut computes. Two sessions of churn
// on the real filesystem — commits fanned out by push and by Poll over
// two workers, template members and private CQs registered and dropped,
// CQs that stop after a few executions — checkpoint automatically;
// recovery from the newest checkpoint, and from the one before it and
// the segments after it (garbage collection keeps them), must resume
// every CQ at the same Seq, LastExec and Terminated with the same
// result.
func TestCheckpointChangesNothing(t *testing.T) {
	dir := t.TempDir()
	open := func(dir string) *durable.System {
		t.Helper()
		sys, err := durable.Open(durable.Options{
			Dir:             dir,
			Fsync:           wal.FsyncNever,
			CheckpointEvery: 25,
			CQ: cq.Config{UseDRA: true, AutoGC: true, Push: true, Parallelism: 2,
				ShareTemplates: true, Guard: guard.Policy{FailureThreshold: -1}},
		})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return sys
	}
	for session := 0; session < 2; session++ {
		sys := open(dir)
		if session == 0 {
			if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
				t.Fatal(err)
			}
		}
		churn(t, sys, session)
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			ckpts = append(ckpts, e.Name()) // ReadDir sorts by name, so by segment
		}
	}
	if len(ckpts) < 2 {
		t.Fatalf("checkpoints %v: want two, the newest and its fallback", ckpts)
	}
	asIs, fallback := copyDir(t, dir), copyDir(t, dir)
	if err := os.Remove(filepath.Join(fallback, ckpts[len(ckpts)-1])); err != nil {
		t.Fatal(err)
	}
	recovered := func(dir string) (string, durable.RecoveryInfo) {
		t.Helper()
		sys := open(dir)
		defer sys.Close()
		var b strings.Builder
		for _, name := range sys.Manager.Names() {
			st, err := sys.Manager.State(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Manager.Result(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s seq=%d last=%d term=%v rows=%s\n", name, st.Seq, st.LastExec, st.Terminated, renderRows(res))
		}
		return b.String(), sys.Recovery
	}
	want, info := recovered(asIs)
	got, fbInfo := recovered(fallback)
	if !info.FromCheckpoint || info.CQs == 0 || !fbInfo.FromCheckpoint || fbInfo.Records == 0 {
		t.Fatalf("recoveries %+v and %+v: want both from a checkpoint, CQs resumed, and a tail replayed by the fallback", info, fbInfo)
	}
	if got != want {
		t.Fatalf("from the newest checkpoint:\n%s\nfrom the one before it and the segments after:\n%s", want, got)
	}
}

// churn runs one session of concurrent work against sys: a writer, a
// poller, and a registrar that registers template members and private
// CQs, some stopping after a few executions, and drops some again.
func churn(t *testing.T, sys *durable.System, session int) {
	t.Helper()
	var wg sync.WaitGroup
	done, registered := make(chan struct{}), make(chan struct{})
	defer func() {
		close(done)
		wg.Wait()
	}()
	wg.Add(2)
	go func() { // the poller
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.Manager.Poll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the registrar
		defer wg.Done()
		defer close(registered)
		for i := 0; i < 24; i++ {
			def := cq.Def{
				Name:  fmt.Sprintf("s%d_t%02d", session, i),
				Query: fmt.Sprintf("SELECT name, v FROM stocks WHERE v > %d", 5*i),
			}
			switch i % 4 {
			case 1:
				def.Stop = sql.StopSpec{AfterN: 3}
			case 2:
				def.Query = fmt.Sprintf("SELECT name, SUM(v) AS s FROM stocks WHERE v > %d GROUP BY name", i)
			}
			if _, err := sys.Manager.Register(def); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 {
				if err := sys.Manager.Drop(fmt.Sprintf("s%d_t%02d", session, i-2)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// The writer commits until the registrar is done, and 150 times at
	// least.
	var tids []relation.TID
	for i := 0; ; i++ {
		if i >= 150 {
			select {
			case <-registered:
				return
			default:
			}
		}
		tx := sys.Store.Begin()
		vals := []relation.Value{relation.Str(fmt.Sprintf("r%d", i%7)), relation.Int(int64(i % 120))}
		if i%3 == 0 && len(tids) > 0 {
			if err := tx.Update("stocks", tids[i%len(tids)], vals); err != nil {
				t.Fatal(err)
			}
		} else {
			tid, err := tx.Insert("stocks", vals)
			if err != nil {
				t.Fatal(err)
			}
			tids = append(tids, tid)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// copyDir copies the flat data directory dir to a new temporary one.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}
