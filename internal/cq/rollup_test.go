package cq_test

import (
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/wal"
)

// TestRollupDurableReopen runs the benchmark's cascade_durable pipeline
// — GROUP BY k, bucket INTO by_key → GROUP BY bucket INTO by_bucket → a
// filter, plus SELECT DISTINCT k — through a durable manager: every
// round each result and each derived table must equal its query
// evaluated from scratch, tids included. The system is then closed with
// commits no refresh has seen and reopened: the group tables reseed
// (Prepared.Seed) at each CQ's last execution, whose INTO targets the
// checkpoint holds as those executions left them, the first refresh
// folds the missed window into them, and the pipeline carries on as if
// nothing had happened.
func TestRollupDurableReopen(t *testing.T) {
	stages := []struct{ name, sel, into, from string }{
		{"roll_key", "SELECT k, bucket, SUM(v) AS s, COUNT(*) AS n", "by_key", "FROM events GROUP BY k, bucket"},
		{"roll_bucket", "SELECT bucket, SUM(s) AS s, SUM(n) AS n", "by_bucket", "FROM by_key GROUP BY bucket"},
		{"hot_buckets", "SELECT bucket, s", "", "FROM by_bucket WHERE s > 300"},
		{"live_keys", "SELECT DISTINCT k", "", "FROM events"},
	}
	fs := faults.NewMemFS(1)
	open := func() *durable.System {
		t.Helper()
		sys, err := durable.Open(durable.Options{
			Dir: "data", FS: fs, Fsync: wal.FsyncAlways,
			CQ: cq.Config{UseDRA: true, AutoGC: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	if err := sys.Store.CreateTable("events", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "bucket", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
	)); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	var live []relation.TID
	nextID := 0
	event := func() []relation.Value {
		nextID++
		k := rng.Intn(24) // few enough that keys and buckets empty out and return
		return []relation.Value{relation.Int(int64(nextID)), relation.Int(int64(k)), relation.Int(int64(k % 5)), relation.Int(int64(1 + rng.Intn(100)))}
	}
	commits := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			tx := sys.Store.Begin()
			for op := 0; op < 8; op++ {
				var err error
				switch c := rng.Intn(10); {
				case c < 4 || len(live) < 8:
					var tid relation.TID
					tid, err = tx.Insert("events", event())
					live = append(live, tid)
				case c < 8:
					i := rng.Intn(len(live))
					err = tx.Delete("events", live[i])
					live = append(live[:i], live[i+1:]...)
				default:
					err = tx.Update("events", live[rng.Intn(len(live))], event())
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(label string) {
		t.Helper()
		for _, st := range stages {
			plan, err := algebra.PlanSQL(st.sel+" "+st.from, sys.Store.Live())
			if err != nil {
				t.Fatal(err)
			}
			want, err := dra.InitialResult(algebra.Optimize(plan), sys.Store.Live())
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.Manager.Result(st.name)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualByTID(want) {
				t.Fatalf("%s: %s diverged from complete evaluation.\nmaintained:\n%s\ncomplete:\n%s", label, st.name, got, want)
			}
			if st.into == "" {
				continue
			}
			target, err := sys.Store.Snapshot(st.into)
			if err != nil {
				t.Fatal(err)
			}
			if !target.EqualByTID(want) {
				t.Fatalf("%s: table %s diverged from %s.\ntable:\n%s\ncomplete:\n%s", label, st.into, st.name, target, want)
			}
		}
	}
	poll := func(label string) {
		t.Helper()
		if _, err := sys.Manager.Poll(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label)
	}

	commits(6)
	for _, st := range stages {
		q := st.sel + " " + st.from
		if st.into != "" {
			q = st.sel + " INTO " + st.into + " " + st.from
		}
		if _, err := sys.Manager.Register(cq.Def{Name: st.name, Query: q}); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
	}
	check("registered")
	for round := 0; round < 6; round++ {
		commits(4)
		poll("before reopen")
	}

	commits(5) // the window the reopened system has to catch up on
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = open()
	defer func() { _ = sys.Close() }()
	if sys.Recovery.CQs != len(stages) {
		t.Fatalf("resumed %d CQs, want %d", sys.Recovery.CQs, len(stages))
	}
	for _, name := range []string{"roll_key", "roll_bucket", "live_keys"} {
		if st, err := sys.Manager.State(name); err != nil || st.Groups == 0 {
			t.Fatalf("%s resumed without a seeded state keeper: %+v, %v", name, st, err)
		}
	}
	poll("catch-up after reopen")
	for round := 0; round < 4; round++ {
		commits(4)
		poll("after reopen")
	}
}
