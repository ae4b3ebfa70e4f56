package durable_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// The re-derivation workload: events → GROUP BY k, bucket INTO by_key →
// GROUP BY bucket INTO by_bucket → a filter leaf, and, when client is
// set, a client writing rows of its own into by_key. The log holds the
// client's commits and the queries' records; every derived commit is
// re-derived from its record at recovery. Every run from the same seed
// issues the same commits at the same timestamps.
type rollup struct {
	rng    *rand.Rand
	client bool
	live   []relation.TID // live event rows
	mine   []relation.TID // the client's live rows in by_key
	nextID int64
}

var rollupCQs = []cq.Def{
	{Name: "roll_key", Query: "SELECT k, bucket, SUM(v) AS s, COUNT(*) AS n INTO by_key FROM events GROUP BY k, bucket"},
	{Name: "roll_bucket", Query: "SELECT bucket, SUM(s) AS s, SUM(n) AS n INTO by_bucket FROM by_key GROUP BY bucket"},
	{Name: "hot_buckets", Query: "SELECT bucket, s FROM by_bucket WHERE s > 300"},
}

var rollupTargets = []string{"by_key", "by_bucket"}

const rollupSteps = 16

func newRollup(client bool) *rollup {
	return &rollup{rng: rand.New(rand.NewSource(7)), client: client}
}

func openRollup(t *testing.T, fs wal.FS, tag string) *durable.System {
	t.Helper()
	sys, err := durable.Open(durable.Options{
		Dir: "data", FS: fs, Fsync: wal.FsyncAlways,
		CQ: cq.Config{UseDRA: true, Parallelism: 1},
	})
	if err != nil {
		t.Fatalf("%s: open: %v", tag, err)
	}
	return sys
}

// setup creates and fills events, then registers the pipeline.
func (w *rollup) setup(t *testing.T, sys *durable.System) {
	t.Helper()
	if err := sys.Store.CreateTable("events", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "bucket", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
	)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.events(sys.Store, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, def := range rollupCQs {
		if _, err := sys.Manager.Register(def); err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
	}
}

// events commits one transaction of n random event changes.
func (w *rollup) events(s *storage.Store, n int) error {
	tx := s.Begin()
	live := append([]relation.TID(nil), w.live...)
	for ; n > 0; n-- {
		switch c := w.rng.Intn(10); {
		case c < 4 || len(live) < 8:
			w.nextID++
			k := w.rng.Int63n(12)
			tid, err := tx.Insert("events", []relation.Value{relation.Int(w.nextID), relation.Int(k), relation.Int(k % 5), relation.Int(1 + w.rng.Int63n(100))})
			if err != nil {
				return err
			}
			live = append(live, tid)
		case c < 8:
			i := w.rng.Intn(len(live))
			if err := tx.Delete("events", live[i]); err != nil {
				return err
			}
			live = append(live[:i], live[i+1:]...)
		default:
			k := w.rng.Int63n(12)
			if err := tx.Update("events", live[w.rng.Intn(len(live))], []relation.Value{relation.Int(0), relation.Int(k), relation.Int(k % 5), relation.Int(1 + w.rng.Int63n(100))}); err != nil {
				return err
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	w.live = live
	return nil
}

// clientWrite commits a row of the client's own into by_key, retiring
// its oldest one once it holds three.
func (w *rollup) clientWrite(s *storage.Store, i int) error {
	tx := s.Begin()
	tid, err := tx.Insert("by_key", []relation.Value{relation.Int(int64(100 + i)), relation.Int(int64(i % 5)), relation.Int(int64(10 * i)), relation.Int(1)})
	if err != nil {
		return err
	}
	mine := append(w.mine, tid)
	if len(mine) > 3 {
		if err := tx.Delete("by_key", mine[0]); err != nil {
			return err
		}
		mine = mine[1:]
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	w.mine = mine
	return nil
}

// run drives the script: a commit per step — every fourth one the
// client's, under client — a Poll every second step and a checkpoint
// at ckptAt (0: none). It returns how many steps completed before the
// first failure, which is how a run observes its crash.
func (w *rollup) run(sys *durable.System, ckptAt int) int {
	for i := 0; i < rollupSteps; i++ {
		var err error
		if w.client && i%4 == 3 {
			err = w.clientWrite(sys.Store, i)
		} else {
			err = w.events(sys.Store, 4)
		}
		if err == nil && i%2 == 1 {
			_, err = sys.Manager.Poll()
		}
		if err != nil {
			return i
		}
		if i+1 == ckptAt {
			_ = sys.Checkpoint() // a kill inside it fails the next write
		}
	}
	return rollupSteps
}

// deltaLog renders a table's differential relation up to ts: tid, old
// and new halves, timestamp, in log order.
func deltaLog(t *testing.T, s *storage.Store, table string, ts vclock.Timestamp) []string {
	t.Helper()
	d, err := s.DeltaSince(table, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range d.Rows() {
		if r.TS <= ts {
			out = append(out, fmt.Sprintf("%d %v→%v @%d", r.TID, r.Old, r.New, r.TS))
		}
	}
	return out
}

// TestRederiveCrashSweep arms a kill at every write boundary of the
// rollup workload, the client writer and a checkpoint included. The log
// holds no derived row: recovery re-derives each target's commits from
// its producer's records. Whatever prefix of the log survived, each
// target's contents and delta log (tid, old, new, TS, order) must equal
// the no-crash run's as of the recovered clock, and the recovered
// pipeline must carry on to its queries' complete evaluation.
func TestRederiveCrashSweep(t *testing.T) {
	const ckptAt = rollupSteps / 2
	fs := faults.NewMemFS(0)
	clean := openRollup(t, fs, "clean")
	w := newRollup(true)
	w.setup(t, clean)
	pre := fs.Writes()
	if got := w.run(clean, ckptAt); got != rollupSteps {
		t.Fatalf("clean run stopped at step %d", got)
	}
	scriptWrites := fs.Writes() - pre
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	for kill := 1; kill <= scriptWrites; kill++ {
		tag := fmt.Sprintf("kill=%d", kill)
		fs := faults.NewMemFS(int64(3000 + kill))
		sys := openRollup(t, fs, tag)
		w := newRollup(true)
		w.setup(t, sys)
		fs.KillAfterWrites(kill)
		if w.run(sys, ckptAt) == rollupSteps && !fs.Frozen() {
			t.Fatalf("%s: kill point beyond the workload", tag)
		}
		_ = sys.Manager.Close()
		fs.Crash()

		sys = openRollup(t, fs, tag)
		at := sys.Store.Now()
		for _, table := range rollupTargets {
			got, want := deltaLog(t, sys.Store, table, at), deltaLog(t, clean.Store, table, at)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s delta log at %d\n got %v\nwant %v", tag, table, at, got, want)
			}
			have, err := sys.Store.Snapshot(table)
			if err != nil {
				t.Fatal(err)
			}
			then, err := clean.Store.SnapshotAt(table, at)
			if err != nil {
				t.Fatal(err)
			}
			if !have.EqualByTID(then) {
				t.Fatalf("%s: %s at %d\n got %v\nwant %v", tag, table, at, have, then)
			}
		}
		if _, err := sys.Manager.Poll(); err != nil {
			t.Fatalf("%s: poll after recovery: %v", tag, err)
		}
		checkRollup(t, sys, tag)
		if err := sys.Close(); err != nil {
			t.Fatalf("%s: close: %v", tag, err)
		}
	}
}

// checkRollup holds roll_bucket's target and hot_buckets' result to
// their queries evaluated from scratch over the live store.
func checkRollup(t *testing.T, sys *durable.System, tag string) {
	t.Helper()
	complete := func(q string) *relation.Relation {
		plan, err := algebra.PlanSQL(q, sys.Store.Live())
		if err != nil {
			t.Fatal(err)
		}
		r, err := dra.InitialResult(algebra.Optimize(plan), sys.Store.Live())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	target, err := sys.Store.Snapshot("by_bucket")
	if err != nil {
		t.Fatal(err)
	}
	if want := complete("SELECT bucket, SUM(s) AS s, SUM(n) AS n FROM by_key GROUP BY bucket"); !target.EqualByTID(want) {
		t.Fatalf("%s: by_bucket\n%s\nwant\n%s", tag, target, want)
	}
	leaf, err := sys.Manager.Result("hot_buckets")
	if err != nil {
		t.Fatal(err)
	}
	if want := complete("SELECT bucket, s FROM by_bucket WHERE s > 300"); !leaf.EqualByTID(want) {
		t.Fatalf("%s: hot_buckets\n%s\nwant\n%s", tag, leaf, want)
	}
}

// TestLogHoldsNoDerivedRows scans the whole log of a durable rollup run:
// no transaction record carries a row of a derived table, and the
// derived commits are there as the records of the queries that made
// them — two seeded registrations and executions stamped with their
// commits' timestamps.
func TestLogHoldsNoDerivedRows(t *testing.T) {
	fs := faults.NewMemFS(1)
	sys := openRollup(t, fs, "run")
	w := newRollup(false)
	w.setup(t, sys)
	if got := w.run(sys, 0); got != rollupSteps {
		t.Fatalf("run stopped at step %d", got)
	}
	var seeds, execs int
	if _, err := wal.Scan(fs, "data", nil, func(rec *wal.Record) error {
		switch {
		case rec.Kind == wal.KindTx:
			for _, r := range rec.Rows {
				if r.Table != "events" {
					t.Errorf("transaction at %d holds a row of %s: %+v", rec.TS, r.Table, r.Row)
				}
			}
		case rec.Kind == wal.KindCQRegister && rec.TS != 0:
			seeds++
		case rec.Kind == wal.KindCQExec && rec.TS != 0:
			execs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seeds != 2 || execs == 0 {
		t.Fatalf("%d seeded registrations and %d executions carry a commit; want 2 and some", seeds, execs)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenKeepsTIDAllocator: an aggregate's output tids are 64-bit key
// hashes. Recovering its target's commits must leave the store's tid
// allocator where the live commits left it — re-derived rows, like live
// InsertWithTID rows, do not move it — so the next client insert gets
// the tid it gets without the crash.
func TestReopenKeepsTIDAllocator(t *testing.T) {
	run := func(crash bool) string {
		fs := faults.NewMemFS(1)
		sys := openSys(t, fs, 0)
		if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
			t.Fatal(err)
		}
		insertRow(t, sys.Store, "a", 1)
		insertRow(t, sys.Store, "b", 2)
		if _, err := sys.Manager.Register(cq.Def{Name: "q", Query: "SELECT name, SUM(v) AS s INTO agg FROM stocks GROUP BY name"}); err != nil {
			t.Fatal(err)
		}
		insertRow(t, sys.Store, "c", 3)
		if _, err := sys.Manager.Poll(); err != nil {
			t.Fatal(err)
		}
		if crash {
			_ = sys.Manager.Close()
			fs.Crash()
			sys = openSys(t, fs, 0)
			if sys.Recovery.FromCheckpoint {
				t.Fatal("recovered from a checkpoint; the scenario replays the log")
			}
		}
		defer func() { _ = sys.Close() }()
		st, err := sys.Store.CheckpointState(nil)
		if err != nil {
			t.Fatal(err)
		}
		tx := sys.Store.Begin()
		tid, err := tx.Insert("stocks", []relation.Value{relation.Str("d"), relation.Int(4)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("NextTID %d, next client tid %d", st.NextTID, tid)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("after the crash and reopen: %s; without the crash: %s", got, want)
	}
}

// TestReopenKeepsClientTIDs: a client insert under a tid of its own
// choosing moves the tid allocator when it commits, so recovery, which
// replays it, leaves the allocator where the live commit did.
func TestReopenKeepsClientTIDs(t *testing.T) {
	run := func(crash bool) uint64 {
		fs := faults.NewMemFS(1)
		sys := openSys(t, fs, 0)
		if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
			t.Fatal(err)
		}
		tx := sys.Store.Begin()
		if err := tx.InsertWithTID("stocks", 1<<60, []relation.Value{relation.Str("a"), relation.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if crash {
			_ = sys.Manager.Close()
			fs.Crash()
			sys = openSys(t, fs, 0)
		}
		defer func() { _ = sys.Close() }()
		st, err := sys.Store.CheckpointState(nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.NextTID
	}
	if live, recovered := run(false), run(true); live != recovered {
		t.Fatalf("NextTID %d before the crash, %d after", live, recovered)
	}
}
