package durable_test

import (
	"fmt"
	"testing"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

// Cascade kill-point sweep: a two-stage materialization pipeline
// (stocks -> mid INTO hot -> leaf) crashes at every write boundary.
// Recovery must resume the DAG in topological order — mid's target
// table restored before leaf's plan binds to it — and catch up
// differentially: the derived table reconverges to mid's predicate and
// the leaf result to the composed predicate, with no full-stop rebuild
// observable as divergence from the serial oracle.

const cascadeMidQuery = `CREATE CONTINUAL QUERY mid AS
	SELECT name, v INTO hot FROM stocks WHERE v >= 20
	TRIGGER UPDATES 1`

const cascadeLeafQuery = `CREATE CONTINUAL QUERY leaf AS
	SELECT name, v FROM hot WHERE v >= 60
	TRIGGER UPDATES 1`

// setupCascade creates and seeds the base table, then registers the
// pipeline. Seeds straddle both predicates.
func setupCascade(t *testing.T, store *storage.Store, mgr *cq.Manager) {
	t.Helper()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, store, "seed-hi", 90)
	insertRow(t, store, "seed-lo", 10)
	if mgr != nil {
		if _, err := mgr.RegisterSQL(cascadeMidQuery); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.RegisterSQL(cascadeLeafQuery); err != nil {
			t.Fatal(err)
		}
	}
}

// filterGE projects a table state through `v >= bound`.
func filterGE(t *testing.T, table *relation.Relation, bound int64) *relation.Relation {
	t.Helper()
	out := relation.New(table.Schema())
	for _, tu := range table.Tuples() {
		if tu.Values[1].AsInt() >= bound {
			if err := out.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// cascadeOracle runs the script serially without CQs, returning the
// base-table state after every prefix.
func cascadeOracle(t *testing.T, ops []op) []*relation.Relation {
	t.Helper()
	s := storage.NewStore()
	setupCascade(t, s, nil)
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

func openCascadeSys(t *testing.T, fs wal.FS, tag string) *durable.System {
	t.Helper()
	sys, err := durable.Open(durable.Options{
		Dir:   "data",
		FS:    fs,
		Fsync: wal.FsyncAlways,
		CQ:    cq.Config{UseDRA: true, AutoGC: true},
	})
	if err != nil {
		t.Fatalf("%s: open: %v", tag, err)
	}
	return sys
}

// verifyCascadeRecovery reopens the crashed directory and checks the
// DAG recovery contract: both CQs resumed, derived table present, and
// — after continuing the workload differentially — derived table and
// leaf result both converged to the oracle's final state.
func verifyCascadeRecovery(t *testing.T, fs *faults.MemFS, ops []op, oracle []*relation.Relation, acked int, tag string) {
	t.Helper()
	sys := openCascadeSys(t, fs, tag)
	defer sys.Close()
	if sys.Recovery.CQs != 2 {
		t.Fatalf("%s: resumed %d CQs, want 2", tag, sys.Recovery.CQs)
	}
	// Topological resume implies the derived table is bound: leaf's plan
	// compiled against hot during Open, so hot must exist already.
	if _, err := sys.Store.Schema("hot"); err != nil {
		t.Fatalf("%s: derived table missing after recovery: %v", tag, err)
	}

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
		t.Fatalf("%s: recovered base table is no oracle prefix >= %d acked:\n%v", tag, acked, got)
	}

	// Continue from exactly the recovered prefix; staged polls fold the
	// remaining script through both stages differentially.
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
	if _, err := sys.Manager.Poll(); err != nil {
		t.Fatalf("%s: final poll: %v", tag, err)
	}

	final, _ := sys.Store.Snapshot("stocks")
	if !final.EqualContents(oracle[len(oracle)-1]) {
		t.Fatalf("%s: final base table diverged from oracle", tag)
	}
	hot, err := sys.Store.Contents("hot")
	if err != nil {
		t.Fatal(err)
	}
	if want := filterGE(t, final, 20); !hot.EqualContents(want) {
		t.Fatalf("%s: derived table %v, want %v", tag, hot, want)
	}
	leaf, err := sys.Manager.Result("leaf")
	if err != nil {
		t.Fatal(err)
	}
	if want := filterGE(t, final, 60); !leaf.EqualContents(want) {
		t.Fatalf("%s: leaf result %v, want %v", tag, leaf, want)
	}
}

func cascadeCrashRun(t *testing.T, seed int64, ops []op, oracle []*relation.Relation, kill, ckptAt int, tag string) {
	t.Helper()
	fs := faults.NewMemFS(seed)
	sys := openCascadeSys(t, fs, tag)
	setupCascade(t, sys.Store, sys.Manager)
	fs.KillAfterWrites(kill)
	acked := runScript(t, sys, ops, ckptAt)
	if acked == len(ops) && !fs.Frozen() {
		_ = sys.Manager.Close()
		t.Fatalf("%s: kill point %d beyond workload", tag, kill)
	}
	_ = sys.Manager.Close()
	fs.Crash()
	verifyCascadeRecovery(t, fs, ops, oracle, acked, tag)
}

// TestCascadeCrashSweep arms a kill at every write boundary of the
// cascading workload. Crash windows this covers include: inside the
// write of mid's commit into hot, which carries mid's execution record
// (the pair survives whole or not at all, and recovery re-derives a
// survivor from the record), between mid's commit and leaf's refresh
// (leaf catches up from hot's recovered window), and mid-checkpoint.
func TestCascadeCrashSweep(t *testing.T) {
	const scriptLen = 12
	ops := buildScript(96, scriptLen)
	oracle := cascadeOracle(t, ops)
	ckptAt := scriptLen / 2

	// Instrumented clean run to learn the write budget of the script
	// region (registration writes excluded — the sweep arms after setup).
	fs := faults.NewMemFS(0)
	sys := openCascadeSys(t, fs, "budget")
	setupCascade(t, sys.Store, sys.Manager)
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
		cascadeCrashRun(t, int64(2000+kill), ops, oracle, kill, ckptAt, fmt.Sprintf("kill=%d", kill))
	}
}

// TestCascadeCrashDuringRegistration kills across an INTO registration:
// the target's creation, then its seed commit, which carries the
// registration record. A crash after the creation leaves an orphaned,
// empty target and no mid; re-registering adopts it.
func TestCascadeCrashDuringRegistration(t *testing.T) {
	fs := faults.NewMemFS(11)
	sys := openCascadeSys(t, fs, "reg")
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "seed-hi", 90)
	insertRow(t, sys.Store, "seed-lo", 10)

	// The INTO registration writes the target's creation, then the seed
	// commit carrying the CQRegister record. Sweep the kill across both;
	// each failure mode must recover to a usable system.
	for kill := 1; kill <= 4; kill++ {
		fs2 := faults.NewMemFS(int64(100 + kill))
		s2 := openCascadeSys(t, fs2, fmt.Sprintf("reg kill=%d", kill))
		if err := s2.Store.CreateTable("stocks", stockSchema()); err != nil {
			t.Fatal(err)
		}
		insertRow(t, s2.Store, "seed-hi", 90)
		fs2.KillAfterWrites(kill)
		_, regErr := s2.Manager.RegisterSQL(cascadeMidQuery)
		_ = s2.Manager.Close()
		fs2.Crash()

		r := openCascadeSys(t, fs2, fmt.Sprintf("reg reopen kill=%d", kill))
		if regErr == nil && r.Recovery.CQs != 1 {
			t.Fatalf("kill=%d: acked registration lost (%d CQs)", kill, r.Recovery.CQs)
		}
		// Whether or not the seed commit survived without its journal
		// record, a fresh registration must succeed — adopting an orphan
		// target if one was left behind.
		if regErr != nil {
			if _, err := r.Manager.RegisterSQL(cascadeMidQuery); err != nil {
				t.Fatalf("kill=%d: re-register after crash: %v", kill, err)
			}
		}
		hot, err := r.Store.Contents("hot")
		if err != nil {
			t.Fatalf("kill=%d: no target table: %v", kill, err)
		}
		snap, _ := r.Store.Snapshot("stocks")
		if want := filterGE(t, snap, 20); !hot.EqualContents(want) {
			t.Fatalf("kill=%d: target %v, want %v", kill, hot, want)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("kill=%d: close: %v", kill, err)
		}
	}
	_ = sys.Close()
}
