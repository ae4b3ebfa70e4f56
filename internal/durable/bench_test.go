package durable_test

import (
	"slices"
	"testing"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/wal"
)

// BenchmarkCheckpoint: how long a commit can wait on a checkpoint. A
// writer updates rows of a 100k-row, four-int table (10k under -short)
// one commit at a time while b.N explicit checkpoints run, on the real
// filesystem with interval fsync. Each checkpoint follows a collection
// of the log, as AutoGC keeps it behind the CQs that read it (this
// system has none, so without it the log would only grow, by as many
// rows as the writer managed to commit). commit_max_us and
// commit_p99_us are the writer's commit latencies over the whole run;
// commits/op is how many commits it made per checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	rows := 100_000
	if testing.Short() {
		rows = 10_000
	}
	sys, err := durable.Open(durable.Options{
		Dir:   b.TempDir(),
		Fsync: wal.FsyncInterval,
		CQ:    cq.Config{UseDRA: true, AutoGC: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	store := sys.Store
	schema := relation.MustSchema(
		relation.Column{Name: "a", Type: relation.TInt},
		relation.Column{Name: "b", Type: relation.TInt},
		relation.Column{Name: "c", Type: relation.TInt},
		relation.Column{Name: "d", Type: relation.TInt},
	)
	if err := store.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	row := func(n int) []relation.Value {
		v := int64(n)
		return []relation.Value{relation.Int(v), relation.Int(v + 1), relation.Int(v + 2), relation.Int(v + 3)}
	}
	tids := make([]relation.TID, 0, rows)
	for lo := 0; lo < rows; lo += 1000 {
		tx := store.Begin()
		for n := lo; n < min(lo+1000, rows); n++ {
			tid, err := tx.Insert("t", row(n))
			if err != nil {
				b.Fatal(err)
			}
			tids = append(tids, tid)
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	store.CollectGarbage(store.Now())
	if err := sys.Checkpoint(); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	lats := make(chan []time.Duration)
	go func() {
		var out []time.Duration
		for n := 0; ; n++ {
			select {
			case <-stop:
				lats <- out
				return
			default:
			}
			start := time.Now()
			tx := store.Begin()
			if err := tx.Update("t", tids[n%len(tids)], row(n)); err == nil {
				_, _ = tx.Commit()
			}
			out = append(out, time.Since(start))
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.CollectGarbage(store.Now())
		if err := sys.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	out := <-lats
	if len(out) == 0 {
		b.Fatal("the writer committed nothing")
	}
	slices.Sort(out)
	b.ReportMetric(float64(out[len(out)-1].Microseconds()), "commit_max_us")
	b.ReportMetric(float64(out[len(out)*99/100].Microseconds()), "commit_p99_us")
	b.ReportMetric(float64(len(out))/float64(b.N), "commits/op")
}
