package durable_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/wal"
)

func openPushSys(t *testing.T, fs wal.FS) *durable.System {
	t.Helper()
	sys, err := durable.Open(durable.Options{
		Dir:   "data",
		FS:    fs,
		Fsync: wal.FsyncAlways,
		CQ:    cq.Config{UseDRA: true, AutoGC: true, Push: true},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return sys
}

// TestPushExecutionsAreDurable runs the commit-driven refresh path on a
// durable system: push dispatches journal their executions through the
// same write-ahead discipline as polled ones, Close drains the pipeline
// before the final checkpoint, and a restart resumes the CQ with the
// exact Seq/LastExec the push refreshes reached — then keeps pushing.
func TestPushExecutionsAreDurable(t *testing.T) {
	fs := faults.NewMemFS(1)
	sys := openPushSys(t, fs)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	// No Poll anywhere in this test: every refresh past the initial
	// execution arrives through the commit hook. Flushing after each
	// commit defeats coalescing (which would legitimately merge
	// back-to-back commits into one refresh) so Seq advances per commit.
	for _, row := range []struct {
		name string
		v    int64
	}{{"DEC", 150}, {"IBM", 40}, {"HP", 99}} {
		insertRow(t, sys.Store, row.name, row.v)
		sys.Manager.FlushPush()
	}
	wantState, err := sys.Manager.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	if wantState.Seq < 3 {
		t.Fatalf("push refreshes did not advance seq: %+v", wantState)
	}
	wantRes, _ := sys.Manager.Result("watch")
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sys2 := openPushSys(t, fs)
	defer sys2.Close()
	// The drained pipeline was checkpointed: nothing replays.
	if !sys2.Recovery.FromCheckpoint || sys2.Recovery.Records != 0 || sys2.Recovery.CQs != 1 {
		t.Fatalf("recovery: %+v", sys2.Recovery)
	}
	st, err := sys2.Manager.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != wantState.Seq || st.LastExec != wantState.LastExec {
		t.Fatalf("resumed state %+v, want seq=%d lastExec=%d", st, wantState.Seq, wantState.LastExec)
	}
	res, _ := sys2.Manager.Result("watch")
	if !res.EqualContents(wantRes) {
		t.Fatal("cq result differs after restart")
	}

	// The resumed CQ re-registered with the router: commits keep pushing
	// with gap-free Seq.
	insertRow(t, sys2.Store, "SUN", 77)
	sys2.Manager.FlushPush()
	st2, _ := sys2.Manager.State("watch")
	if st2.Seq != wantState.Seq+1 {
		t.Fatalf("post-restart push seq %d, want %d", st2.Seq, wantState.Seq+1)
	}
	res2, _ := sys2.Manager.Result("watch")
	if res2.Len() != 3 { // DEC, HP, SUN
		t.Fatalf("post-restart result len %d: %v", res2.Len(), res2)
	}
}

// TestMemberRoundWritesOncePerWorker: one commit pushed to a 200-member
// template group costs the commit's own write plus at most one flush
// per refresh worker, not a write per member — and every member's
// execution is in the log after a restart.
func TestMemberRoundWritesOncePerWorker(t *testing.T) {
	const members, workers = 200, 4
	// A budget changes nothing here: a budgeted refresh runs on the same
	// path and stages the same way.
	for _, budget := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("budget=%v", budget), func(t *testing.T) {
			fs := faults.NewMemFS(1)
			open := func() *durable.System {
				sys, err := durable.Open(durable.Options{
					Dir:   "data",
					FS:    fs,
					Fsync: wal.FsyncAlways,
					CQ: cq.Config{
						UseDRA: true, AutoGC: true, Push: true, ShareTemplates: true, Parallelism: workers,
						Guard: guard.Policy{Budget: budget},
					},
				})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return sys
			}
			sys := open()
			if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < members; i++ {
				if _, err := sys.Manager.RegisterSQL(fmt.Sprintf(
					"CREATE CONTINUAL QUERY m%03d AS SELECT name, v FROM stocks WHERE v > %d TRIGGER UPDATES 1", i, i)); err != nil {
					t.Fatal(err)
				}
			}
			before := fs.Writes()
			insertRow(t, sys.Store, "DEC", 150) // about three quarters of the members match
			sys.Manager.FlushPush()
			writes := fs.Writes() - before
			t.Logf("one commit to %d members: %d writes", members, writes)
			if writes < 2 || writes > 1+workers {
				t.Fatalf("one commit to %d members made %d writes, want the commit's plus 1 to %d flushes", members, writes, workers)
			}
			for i := 0; i < members; i++ {
				if st, _ := sys.Manager.State(fmt.Sprintf("m%03d", i)); st.Seq != 2 {
					t.Fatalf("member %d at Seq %d after one commit, want 2", i, st.Seq)
				}
			}
			_ = sys.Manager.Close() // no final checkpoint: the restart replays the log
			fs.CrashClean()         // fsync=always: every acknowledged write survives

			sys = open()
			defer sys.Close()
			for i := 0; i < members; i++ {
				if st, _ := sys.Manager.State(fmt.Sprintf("m%03d", i)); st.Seq != 2 {
					t.Fatalf("member %d recovered at Seq %d, want 2", i, st.Seq)
				}
			}
		})
	}
}
