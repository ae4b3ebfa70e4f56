package durable_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "v", Type: relation.TInt},
	)
}

func openSys(t *testing.T, fs wal.FS, every int) *durable.System {
	t.Helper()
	sys, err := durable.Open(durable.Options{
		Dir:             "data",
		FS:              fs,
		Fsync:           wal.FsyncAlways,
		CheckpointEvery: every,
		CQ:              cq.Config{UseDRA: true, AutoGC: true},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return sys
}

func insertRow(t *testing.T, s *storage.Store, name string, v int64) {
	t.Helper()
	tx := s.Begin()
	if _, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Int(v)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

const watchQuery = `CREATE CONTINUAL QUERY watch AS
	SELECT name, v FROM stocks WHERE v >= 50
	TRIGGER UPDATES 1
	MODE COMPLETE`

func TestLifecycleAcrossRestart(t *testing.T) {
	fs := faults.NewMemFS(1)
	sys := openSys(t, fs, 0)
	if sys.Recovery.HasState() {
		t.Fatalf("fresh directory reported state: %+v", sys.Recovery)
	}
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "DEC", 150)
	insertRow(t, sys.Store, "IBM", 40)
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "HP", 99)
	if _, err := sys.Manager.Poll(); err != nil {
		t.Fatal(err)
	}
	wantRes, err := sys.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := sys.Manager.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	wantContents, _ := sys.Store.Snapshot("stocks")
	wantCounts := sys.Store.ChangeCounts()
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sys2 := openSys(t, fs, 0)
	defer sys2.Close()
	// Close checkpointed, so recovery loads it and replays nothing.
	if !sys2.Recovery.FromCheckpoint || sys2.Recovery.Records != 0 || sys2.Recovery.CQs != 1 {
		t.Fatalf("recovery: %+v", sys2.Recovery)
	}
	got, err := sys2.Store.Snapshot("stocks")
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualContents(wantContents) {
		t.Fatal("table contents differ after restart")
	}
	if counts := sys2.Store.ChangeCounts(); counts["stocks"] != wantCounts["stocks"] {
		t.Fatalf("change counts: %v vs %v", counts, wantCounts)
	}
	gotRes, err := sys2.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	if !gotRes.EqualContents(wantRes) {
		t.Fatal("cq result differs after restart")
	}
	st, err := sys2.Manager.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != wantState.Seq || st.LastExec != wantState.LastExec {
		t.Fatalf("cq state after restart: %+v, want seq=%d lastExec=%d", st, wantState.Seq, wantState.LastExec)
	}

	// The resumed CQ keeps computing differentially: a new qualifying
	// row fires the trigger and the seq continues past the old one.
	insertRow(t, sys2.Store, "SUN", 77)
	if _, err := sys2.Manager.Poll(); err != nil {
		t.Fatal(err)
	}
	st2, _ := sys2.Manager.State("watch")
	if st2.Seq != wantState.Seq+1 {
		t.Fatalf("post-restart seq %d, want %d", st2.Seq, wantState.Seq+1)
	}
	res2, _ := sys2.Manager.Result("watch")
	if res2.Len() != 3 { // DEC, HP, SUN
		t.Fatalf("post-restart result len %d: %v", res2.Len(), res2)
	}
}

func TestDropIsDurable(t *testing.T) {
	fs := faults.NewMemFS(2)
	sys := openSys(t, fs, 0)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "DEC", 150)
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	if err := sys.Manager.Drop("watch"); err != nil {
		t.Fatal(err)
	}
	// Crash without a close: the drop must still be gone after replay.
	fs.CrashClean()
	sys2 := openSys(t, fs, 0)
	if sys2.Recovery.CQs != 0 {
		t.Fatalf("dropped cq resurrected: %+v", sys2.Recovery)
	}
	if names := sys2.Manager.Names(); len(names) != 0 {
		t.Fatalf("names after drop+recovery: %v", names)
	}
	// The name registered again after its drop resumes once.
	if _, err := sys2.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	fs.CrashClean()
	sys3 := openSys(t, fs, 0)
	defer sys3.Close()
	if names := sys3.Manager.Names(); sys3.Recovery.CQs != 1 || len(names) != 1 {
		t.Fatalf("re-registered cq after recovery: %+v, names %v", sys3.Recovery, names)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	fs := faults.NewMemFS(3)
	sys := openSys(t, fs, 4)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		insertRow(t, sys.Store, "r", int64(i))
	}
	// The threshold checkpoint runs on a background goroutine; wait for
	// a checkpoint file to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		names, err := fs.List("data")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range names {
			if len(n) > 10 && n[:10] == "checkpoint" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after threshold; dir: %v", names)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2 := openSys(t, fs, 0)
	defer sys2.Close()
	got, _ := sys2.Store.Snapshot("stocks")
	if got.Len() != 8 {
		t.Fatalf("recovered %d rows, want 8", got.Len())
	}
}

func TestRecoveryMetrics(t *testing.T) {
	fs := faults.NewMemFS(4)
	sys := openSys(t, fs, 0)
	if err := sys.Store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "DEC", 1)
	insertRow(t, sys.Store, "IBM", 2)
	fs.CrashClean() // skip the close checkpoint so records must replay

	reg := obs.NewRegistry()
	sys2, err := durable.Open(durable.Options{
		Dir:     "data",
		FS:      fs,
		Fsync:   wal.FsyncAlways,
		Metrics: reg,
		CQ:      cq.Config{UseDRA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if sys2.Recovery.Records != 3 { // create + 2 txs
		t.Fatalf("records replayed: %+v", sys2.Recovery)
	}
	snap := reg.Snapshot()
	if snap.Gauges["wal.records_replayed"] != 3 {
		t.Fatalf("wal.records_replayed gauge: %v", snap.Gauges)
	}
	if snap.Gauges["wal.recovery_ns"] <= 0 {
		t.Fatalf("wal.recovery_ns gauge: %v", snap.Gauges)
	}
}

// TestQuarantineSurvivesRecovery is the satellite kill-point test: a
// poison CQ (division by zero once a v=0 row lands) trips quarantine,
// the registry checkpoints, and the process dies without a clean close.
// After recovery the CQ must resume in probation — not healthy (it
// would hammer the poll loop again) and not silently dropped — and a
// failing probe must re-quarantine it, while a healthy CQ on the same
// table keeps refreshing throughout.
func TestQuarantineSurvivesRecovery(t *testing.T) {
	fs := faults.NewMemFS(7)
	guardCfg := cq.Config{
		UseDRA: true, AutoGC: true,
		Guard: guard.Policy{FailureThreshold: 1, BackoffBase: time.Hour, BackoffMax: time.Hour},
		Logf:  func(string, ...any) {},
	}
	open := func() *durable.System {
		t.Helper()
		sys, err := durable.Open(durable.Options{
			Dir: "data", FS: fs, Fsync: wal.FsyncAlways, CQ: guardCfg,
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
	insertRow(t, sys.Store, "seed", 60)
	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager.RegisterSQL(`CREATE CONTINUAL QUERY poison AS
		SELECT name FROM stocks WHERE 100 / v > 1
		TRIGGER UPDATES 1
		MODE COMPLETE`); err != nil {
		t.Fatal(err)
	}
	insertRow(t, sys.Store, "zero", 0) // poison: 100 / 0 fails evaluation
	if _, err := sys.Manager.Poll(); err == nil {
		t.Fatal("poison poll returned nil error")
	}
	st, err := sys.Manager.State("poison")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "quarantined" {
		t.Fatalf("pre-crash health = %q", st.Health)
	}
	// The healthy CQ refreshed through the same round.
	if wst, _ := sys.Manager.State("watch"); wst.Health != "healthy" || wst.Seq < 2 {
		t.Fatalf("watch state = %+v", wst)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.CrashClean() // kill-point: no clean shutdown

	sys2 := open()
	defer sys2.Close()
	st, err = sys2.Manager.State("poison")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "probation" {
		t.Fatalf("post-recovery health = %q, want probation", st.Health)
	}
	if wst, _ := sys2.Manager.State("watch"); wst.Health != "healthy" {
		t.Fatalf("watch resumed %q", wst.Health)
	}
	// Probation seeded at recovery makes the probe due immediately
	// (no stale hour-long backoff); it fails on the still-poisoned
	// data: straight back to quarantine.
	insertRow(t, sys2.Store, "more", 70)
	if _, err := sys2.Manager.Poll(); err == nil {
		t.Fatal("probe poll returned nil error")
	}
	st, _ = sys2.Manager.State("poison")
	if st.Health != "quarantined" {
		t.Fatalf("post-probe health = %q, want quarantined", st.Health)
	}
	// The healthy CQ caught up differentially across crash + probe.
	wres, err := sys2.Manager.Result("watch")
	if err != nil {
		t.Fatal(err)
	}
	if wres.Len() != 2 { // seed(60), more(70)
		t.Fatalf("watch result = %d rows", wres.Len())
	}
}

// TestRecoveryConformsLegacyRows reopens a data directory as a build
// from before the write boundary checked kinds could have left it: the
// checkpoint and the log tail both hold untyped NULLs in an INT column
// (Tx.Insert accepted and logged relation.NullValue()). Recovery must
// pass every restored and replayed row through the boundary's rule, so
// the store holds typed NULLs and a CQ over the table refreshes on the
// columnar engine — including over a window whose old halves are the
// recovered rows. A logged row that cannot conform fails recovery with
// its position, like a corrupt record.
func TestRecoveryConformsLegacyRows(t *testing.T) {
	legacy := func(t *testing.T, tail ...wal.TxRow) *faults.MemFS {
		t.Helper()
		fs := faults.NewMemFS(9)
		log, err := wal.Open("data", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := log.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		old := []relation.Value{relation.Str("OLD"), relation.NullValue()}
		if err := log.WriteCheckpoint(&wal.Checkpoint{
			Seg: seg, TS: 2, NextTID: 2,
			Tables: []wal.TableState{{
				Name: "stocks", Schema: stockSchema(), Version: 1,
				Tuples:    []relation.Tuple{{TID: 1, Values: old}},
				DeltaRows: []delta.Row{{TID: 1, New: old, TS: 2}},
			}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := log.AppendTx(3, tail); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	fs := legacy(t,
		wal.TxRow{Table: "stocks", Row: delta.Row{TID: 2, New: []relation.Value{relation.Str("NEW"), relation.NullValue()}}},
		wal.TxRow{Table: "stocks", Row: delta.Row{TID: 3, New: []relation.Value{relation.Str("BIG"), relation.Int(70)}}},
	)
	sys := openSys(t, fs, 0)
	defer sys.Close()
	if !sys.Recovery.FromCheckpoint || sys.Recovery.Records != 1 {
		t.Fatalf("recovery: %+v", sys.Recovery)
	}
	rel, _ := sys.Store.Snapshot("stocks")
	for _, tid := range []relation.TID{1, 2} {
		tu, ok := rel.Lookup(tid)
		if !ok || !tu.Values[1].IsNull() || tu.Values[1].Kind != relation.TInt {
			t.Fatalf("tid %d recovered as %v, want a typed INT NULL", tid, tu.Values)
		}
	}
	d, err := sys.Store.DeltaSince("stocks", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := batch.FromDelta(nil, d); !ok {
		t.Fatal("recovered differential rows do not fit typed columns")
	}

	if _, err := sys.Manager.RegisterSQL(watchQuery); err != nil {
		t.Fatal(err)
	}
	tx := sys.Store.Begin()
	if err := tx.Update("stocks", 1, []relation.Value{relation.Str("OLD"), relation.Int(60)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager.Poll(); err != nil {
		t.Fatalf("refresh over the recovered rows: %v", err)
	}
	st, _ := sys.Manager.State("watch")
	res, _ := sys.Manager.Result("watch")
	if st.Seq != 2 || st.LastErr != nil || res.Len() != 2 { // BIG, and OLD once it reads 60
		t.Fatalf("watch after the refresh: seq %d, err %v, result\n%s", st.Seq, st.LastErr, res)
	}

	fs = legacy(t, wal.TxRow{Table: "stocks", Row: delta.Row{TID: 2, New: []relation.Value{relation.Str("BAD"), relation.Str("x")}}})
	_, err = durable.Open(durable.Options{Dir: "data", FS: fs, CQ: cq.Config{UseDRA: true}})
	if !errors.Is(err, relation.ErrTypeMismatch) {
		t.Fatalf("open over an unconformable row: err = %v, want relation.ErrTypeMismatch", err)
	}
	for _, where := range []string{"segment", "ts 3", `"stocks" tid 2`} {
		if !strings.Contains(err.Error(), where) {
			t.Fatalf("recovery error %q does not name the record's %s", err, where)
		}
	}
}
