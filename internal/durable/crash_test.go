package durable_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

// The crash property test: a deterministic workload runs against a
// durable system on a fault-injecting filesystem with a kill-point
// armed at every write boundary in turn. After each crash, recovery
// must land on a clean prefix of the acknowledged commits (at most one
// ambiguous extra — written but never acknowledged), the workload must
// be able to continue from exactly that prefix, and the final table
// AND continual-query results must match a serial no-crash oracle.

type op struct {
	kind int // 0 insert, 1 update, 2 delete
	name string
	val  int64
}

// buildScript generates a workload whose update/delete targets are
// always alive, addressing rows by value (name) so it can be applied
// to any store regardless of TID assignment.
func buildScript(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	live := []string{"seed-hi", "seed-lo"}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		kind := rng.Intn(3)
		if len(live) <= 1 {
			kind = 0
		}
		switch kind {
		case 0:
			name := fmt.Sprintf("r%02d", i)
			ops = append(ops, op{kind: 0, name: name, val: rng.Int63n(100)})
			live = append(live, name)
		case 1:
			ops = append(ops, op{kind: 1, name: live[rng.Intn(len(live))], val: rng.Int63n(100)})
		case 2:
			j := rng.Intn(len(live))
			ops = append(ops, op{kind: 2, name: live[j]})
			live = append(live[:j], live[j+1:]...)
		}
	}
	return ops
}

func findTID(t *testing.T, s *storage.Store, name string) relation.TID {
	t.Helper()
	snap, err := s.Snapshot("stocks")
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range snap.Tuples() {
		if tu.Values[0].AsString() == name {
			return tu.TID
		}
	}
	t.Fatalf("row %q not found", name)
	return 0
}

// applyOp runs one scripted operation as a transaction. Lookup errors
// are test bugs (the script keeps targets alive); commit errors are
// returned — they are how the workload observes the crash.
func applyOp(t *testing.T, s *storage.Store, o op) error {
	t.Helper()
	tx := s.Begin()
	switch o.kind {
	case 0:
		if _, err := tx.Insert("stocks", []relation.Value{relation.Str(o.name), relation.Int(o.val)}); err != nil {
			t.Fatal(err)
		}
	case 1:
		tid := findTID(t, s, o.name)
		if err := tx.Update("stocks", tid, []relation.Value{relation.Str(o.name), relation.Int(o.val)}); err != nil {
			t.Fatal(err)
		}
	case 2:
		if err := tx.Delete("stocks", findTID(t, s, o.name)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := tx.Commit()
	return err
}

// setup creates the table, seeds two rows, and registers the watch CQ.
func setup(t *testing.T, store *storage.Store, mgr *cq.Manager) {
	t.Helper()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, store, "seed-hi", 90)
	insertRow(t, store, "seed-lo", 10)
	if mgr != nil {
		if _, err := mgr.RegisterSQL(watchQuery); err != nil {
			t.Fatal(err)
		}
	}
}

// oracleRun executes the script serially in memory and returns the
// table contents after every prefix: oracle[i] is the state after i
// scripted ops (oracle[0] is the seeded table).
func oracleRun(t *testing.T, ops []op) []*relation.Relation {
	t.Helper()
	s := storage.NewStore()
	setup(t, s, nil)
	snaps := make([]*relation.Relation, 0, len(ops)+1)
	snap, _ := s.Snapshot("stocks")
	snaps = append(snaps, snap.Clone())
	for _, o := range ops {
		if err := applyOp(t, s, o); err != nil {
			t.Fatal(err)
		}
		snap, _ := s.Snapshot("stocks")
		snaps = append(snaps, snap.Clone())
	}
	return snaps
}

// expectedResult filters a table state through the watch predicate
// (v >= 50) — MODE COMPLETE makes the CQ result exactly this.
func expectedResult(t *testing.T, table *relation.Relation) *relation.Relation {
	t.Helper()
	return filterGE(t, table, 50)
}

// sweepMembers are the shared configuration's three members of one
// template (`v > k`), registered beside watch; the NotifyEmpty one
// delivers every execution, so its delivered Seq must stay gap-free.
var sweepMembers = []struct {
	name        string
	over        int64
	notifyEmpty bool
}{{"over20", 20, false}, {"over45", 45, false}, {"over70", 70, true}}

// crashCQs names the CQs a configuration registers.
func crashCQs(shared bool) []string {
	names := []string{"watch"}
	if shared {
		for _, mem := range sweepMembers {
			names = append(names, mem.name)
		}
	}
	return names
}

// openCrashSys opens the data directory with template sharing on or
// off. One refresh worker: a round's writes, one flush per worker, must
// not depend on scheduling, or the sweep's kill points would not line
// up from run to run.
func openCrashSys(fs wal.FS, shared bool) (*durable.System, error) {
	return durable.Open(durable.Options{
		Dir:   "data",
		FS:    fs,
		Fsync: wal.FsyncAlways,
		CQ:    cq.Config{UseDRA: true, AutoGC: true, ShareTemplates: shared, Parallelism: 1},
	})
}

// setupCrash is setup, plus the shared configuration's template
// members.
func setupCrash(t *testing.T, sys *durable.System, shared bool) {
	t.Helper()
	setup(t, sys.Store, sys.Manager)
	if !shared {
		return
	}
	for _, mem := range sweepMembers {
		if _, err := sys.Manager.Register(cq.Def{
			Name:        mem.name,
			Query:       fmt.Sprintf("SELECT name, v FROM stocks WHERE v > %d", mem.over),
			Trigger:     sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 1},
			NotifyEmpty: mem.notifyEmpty,
		}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := sys.Manager.State(sweepMembers[0].name)
	if a.Template == 0 || a.TemplateMates != len(sweepMembers) {
		t.Fatalf("members do not share one template: %+v", a)
	}
}

// subscribeSeqs records the Seq of every notification each CQ delivers.
func subscribeSeqs(t *testing.T, mgr *cq.Manager, names []string) (map[string][]int, func()) {
	t.Helper()
	seqs := make(map[string][]int)
	var cancels []func()
	for _, name := range names {
		name := name
		cancel, err := mgr.SubscribeFunc(name, func(n cq.Notification, closed bool) {
			if !closed {
				seqs[name] = append(seqs[name], n.Seq)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cancels = append(cancels, cancel)
	}
	return seqs, func() {
		for _, c := range cancels {
			c()
		}
	}
}

// contiguous reports whether seqs rise by exactly one each step.
func contiguous(seqs []int) bool {
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			return false
		}
	}
	return true
}

// runScript drives the workload: an op per step, a Poll every third
// op, a checkpoint midway. Returns how many ops were acknowledged
// before the first commit failure (the crash).
func runScript(t *testing.T, sys *durable.System, ops []op, ckptAt int) int {
	t.Helper()
	for i, o := range ops {
		if err := applyOp(t, sys.Store, o); err != nil {
			return i
		}
		if (i+1)%3 == 0 {
			_, _ = sys.Manager.Poll() // a crash surfaces here too; instance state is untouched on journal failure
		}
		if i+1 == ckptAt {
			_ = sys.Checkpoint() // best effort; a crash mid-checkpoint must not lose data
		}
	}
	return len(ops)
}

// verifyRecovery opens the crashed directory and checks the full
// differential-recovery contract against the oracle; pre holds the Seqs
// each CQ delivered before the crash.
func verifyRecovery(t *testing.T, fs *faults.MemFS, ops []op, oracle []*relation.Relation, acked int, pre map[string][]int, shared bool, tag string) {
	t.Helper()
	sys, err := openCrashSys(fs, shared)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", tag, err)
	}
	defer sys.Close()
	names := crashCQs(shared)
	if sys.Recovery.CQs != len(names) {
		t.Fatalf("%s: resumed %d CQs, want %d", tag, sys.Recovery.CQs, len(names))
	}

	// The recovered table must be some oracle prefix: everything
	// acknowledged survived (fsync=always), plus at most one commit
	// that was written and flushed but never acknowledged.
	got, err := sys.Store.Snapshot("stocks")
	if err != nil {
		t.Fatal(err)
	}
	m := -1
	for cand := acked; cand <= acked+1 && cand < len(oracle); cand++ {
		if got.EqualContents(oracle[cand]) {
			m = cand
			break
		}
	}
	if m < 0 {
		t.Fatalf("%s: recovered state is no oracle prefix >= %d acked:\n%v", tag, acked, got)
	}
	recovered := make(map[string]int)
	for _, name := range names {
		st, err := sys.Manager.State(name)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		recovered[name] = st.Seq
	}

	// Post-crash notifications must continue the sequence past
	// everything delivered before the crash — never a replay.
	post, cancel := subscribeSeqs(t, sys.Manager, names)
	defer cancel()

	// Continue the workload from exactly the recovered prefix; the
	// crash becomes an invisible hiccup.
	for i := m; i < len(ops); i++ {
		if err := applyOp(t, sys.Store, ops[i]); err != nil {
			t.Fatalf("%s: continue op %d: %v", tag, i, err)
		}
		if (i+1)%3 == 0 {
			if _, err := sys.Manager.Poll(); err != nil {
				t.Fatalf("%s: continue poll: %v", tag, err)
			}
		}
	}
	if _, err := sys.Manager.Poll(); err != nil { // differential catch-up over whatever remains
		t.Fatalf("%s: final poll: %v", tag, err)
	}

	final, _ := sys.Store.Snapshot("stocks")
	if !final.EqualContents(oracle[len(oracle)-1]) {
		t.Fatalf("%s: final table diverged from oracle", tag)
	}
	res, err := sys.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedResult(t, final); !res.EqualContents(want) {
		t.Fatalf("%s: final cq result %v, want %v", tag, res, want)
	}
	if shared {
		for _, mem := range sweepMembers {
			res, err := sys.Manager.Result(mem.name)
			if err != nil {
				t.Fatal(err)
			}
			if want := filterGE(t, final, mem.over+1); !res.EqualContents(want) {
				t.Fatalf("%s: final %s result %v, want %v", tag, mem.name, res, want)
			}
		}
	}
	for _, name := range names {
		prev := 0
		if s := pre[name]; len(s) > 0 {
			prev = s[len(s)-1]
		}
		maxPreSeq := prev
		for _, s := range post[name] {
			if s <= prev {
				t.Fatalf("%s: %s notification seq %d not past %d (pre-crash max %d, post %v)", tag, name, s, prev, maxPreSeq, post[name])
			}
			prev = s
		}
	}
	if !shared {
		return
	}
	// A NotifyEmpty member delivers every execution: its Seqs run
	// without a gap on both sides of the crash, and recovery resumes it
	// at its last delivered execution — or one past it, when the crash
	// hit the unacknowledged write that carried the next record.
	for _, mem := range sweepMembers {
		if !mem.notifyEmpty {
			continue
		}
		before, after, at := pre[mem.name], post[mem.name], recovered[mem.name]
		last := 1 // the registration's initial execution, delivered to nobody
		if len(before) > 0 {
			last = before[len(before)-1]
		}
		if !contiguous(before) || !contiguous(after) || len(after) == 0 || after[0] != at+1 || at < last || at > last+1 {
			t.Fatalf("%s: %s delivered %v before the crash, resumed at Seq %d, delivered %v after", tag, mem.name, before, at, after)
		}
	}
}

// crashRun executes setup, arms the kill point, runs the script until
// the crash, then hands off to verifyRecovery.
func crashRun(t *testing.T, seed int64, ops []op, oracle []*relation.Relation, kill, ckptAt int, shared bool, tag string) {
	t.Helper()
	fs := faults.NewMemFS(seed)
	sys, err := openCrashSys(fs, shared)
	if err != nil {
		t.Fatalf("%s: open: %v", tag, err)
	}
	setupCrash(t, sys, shared)
	pre, cancel := subscribeSeqs(t, sys.Manager, crashCQs(shared))

	fs.KillAfterWrites(kill)
	acked := runScript(t, sys, ops, ckptAt)
	if acked == len(ops) && !fs.Frozen() {
		cancel()
		_ = sys.Manager.Close()
		t.Fatalf("%s: kill point %d beyond workload", tag, kill)
	}
	cancel()
	_ = sys.Manager.Close() // the broken log stays; recovery reads the filesystem
	fs.Crash()
	verifyRecovery(t, fs, ops, oracle, acked, pre, shared, tag)
}

// TestCrashSweep arms a kill at every single write boundary of the
// scripted workload — the exhaustive version of "kill -9 at a random
// point" — with the watch CQ alone, and with template sharing on and
// three members of one template beside it, whose refreshes are staged
// and flushed once per round.
func TestCrashSweep(t *testing.T) {
	const scriptLen = 16
	ops := buildScript(42, scriptLen)
	oracle := oracleRun(t, ops)
	ckptAt := scriptLen / 2

	for _, shared := range []bool{false, true} {
		// Clean instrumented run to learn the write-count budget of the
		// script region (setup writes are excluded: the sweep arms after
		// setup).
		fs := faults.NewMemFS(0)
		sys, err := openCrashSys(fs, shared)
		if err != nil {
			t.Fatal(err)
		}
		setupCrash(t, sys, shared)
		preWrites := fs.Writes()
		if got := runScript(t, sys, ops, ckptAt); got != len(ops) {
			t.Fatalf("clean run stopped at %d", got)
		}
		scriptWrites := fs.Writes() - preWrites
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if scriptWrites < scriptLen {
			t.Fatalf("suspicious write count %d for %d ops", scriptWrites, scriptLen)
		}

		for kill := 1; kill <= scriptWrites; kill++ {
			crashRun(t, int64(1000+kill), ops, oracle, kill, ckptAt, shared, fmt.Sprintf("shared=%v kill=%d", shared, kill))
		}
	}
}

// TestCrashRandomizedWorkloads drives differently-shaped scripts with
// randomly placed kills and crash-flush outcomes — the seeds vary the
// workload mix, the kill placement, and which pending bytes survive.
func TestCrashRandomizedWorkloads(t *testing.T) {
	for _, seed := range []int64{7, 19, 1996} {
		ops := buildScript(seed, 20)
		oracle := oracleRun(t, ops)
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 6; trial++ {
			kill := 1 + rng.Intn(30)
			tag := fmt.Sprintf("seed=%d trial=%d kill=%d", seed, trial, kill)
			crashRun(t, seed*100+int64(trial), ops, oracle, kill, len(ops)/3, false, tag)
		}
	}
}

// TestCommitFailsCleanAtCrash pins the fail-stop behavior the sweep
// relies on: once a write is refused, the commit reports an error and
// the in-memory store is not mutated.
func TestCommitFailsCleanAtCrash(t *testing.T) {
	fs := faults.NewMemFS(5)
	sys := openSys(t, fs, 0)
	setup(t, sys.Store, sys.Manager)
	before, _ := sys.Store.Snapshot("stocks")
	fs.KillAfterWrites(1)
	err := applyOp(t, sys.Store, op{kind: 0, name: "x", val: 1})
	if !errors.Is(err, faults.ErrCrashed) {
		t.Fatalf("commit during crash: %v, want ErrCrashed", err)
	}
	after, _ := sys.Store.Snapshot("stocks")
	if !after.EqualContents(before) {
		t.Fatal("failed commit mutated the store")
	}
	_ = sys.Manager.Close()
}
