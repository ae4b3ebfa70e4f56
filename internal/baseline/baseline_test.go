package baseline

import (
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
}

func setup(t *testing.T) (*storage.Store, algebra.Plan) {
	t.Helper()
	s := storage.NewStore()
	if err := s.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 100", s.Live())
	if err != nil {
		t.Fatal(err)
	}
	return s, algebra.Optimize(plan)
}

func insert(t *testing.T, s *storage.Store, name string, price float64) relation.TID {
	t.Helper()
	tx := s.Begin()
	tid, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Float(price)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tid
}

func deltasSince(t *testing.T, s *storage.Store, ts vclock.Timestamp) map[string]*delta.Delta {
	t.Helper()
	d, err := s.DeltaSince("stocks", ts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*delta.Delta{"stocks": d}
}

func TestFullBaselineTracksChanges(t *testing.T) {
	s, plan := setup(t)
	insert(t, s, "A", 150)
	f, err := NewFull(plan, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	if f.Result().Len() != 1 {
		t.Fatalf("initial = %d", f.Result().Len())
	}
	insert(t, s, "B", 200)
	d, err := f.Step(s.Live(), s.Now())
	if err != nil {
		t.Fatal(err)
	}
	ins, del, mod := d.Counts()
	if ins != 1 || del != 0 || mod != 0 {
		t.Errorf("counts = %d/%d/%d", ins, del, mod)
	}
	if f.Result().Len() != 2 {
		t.Errorf("result = %d", f.Result().Len())
	}
}

func TestAppendOnlyCorrectOnAppendOnlyStreams(t *testing.T) {
	s, plan := setup(t)
	insert(t, s, "A", 150)
	last := s.Now()
	ao, err := NewAppendOnly(plan, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewFull(plan, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		price := float64(50 + i*20) // some above, some below 100
		insert(t, s, "S", price)
		pre := s.At(last)
		if _, err := ao.Step(deltasSince(t, s, last), pre, s.Live(), s.Now()); err != nil {
			t.Fatal(err)
		}
		if _, err := full.Step(s.Live(), s.Now()); err != nil {
			t.Fatal(err)
		}
		last = s.Now()
		if !ao.Result().EqualContents(full.Result()) {
			t.Fatalf("append-only diverged on an append-only stream at step %d:\n%s\nvs\n%s",
				i, ao.Result(), full.Result())
		}
	}
}

func TestAppendOnlyMissesDeletionsAndModifications(t *testing.T) {
	s, plan := setup(t)
	tidA := insert(t, s, "A", 150)
	tidB := insert(t, s, "B", 200)
	last := s.Now()

	ao, err := NewAppendOnly(plan, s.Live())
	if err != nil {
		t.Fatal(err)
	}

	// Delete A and modify B below the predicate: a correct system drops
	// both from the result.
	tx := s.Begin()
	if err := tx.Delete("stocks", tidA); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("stocks", tidB, []relation.Value{relation.Str("B"), relation.Float(50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if _, err := ao.Step(deltasSince(t, s, last), s.At(last), s.Live(), s.Now()); err != nil {
		t.Fatal(err)
	}
	// The append-only baseline still reports both stale tuples...
	if ao.Result().Len() != 2 {
		t.Fatalf("append-only result = %d (staleness expected to keep 2)", ao.Result().Len())
	}
	// ...whereas the truth is empty.
	truth, err := algebra.NewExecutor(s.Live()).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Len() != 0 {
		t.Fatalf("truth = %d", truth.Len())
	}
}

func TestAppendOnlyReportsOnlyNewMatches(t *testing.T) {
	s, plan := setup(t)
	insert(t, s, "A", 150)
	last := s.Now()
	ao, _ := NewAppendOnly(plan, s.Live())
	insert(t, s, "HIGH", 300)
	insert(t, s, "LOW", 10)
	added, err := ao.Step(deltasSince(t, s, last), s.At(last), s.Live(), s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if added.Len() != 1 || added.At(0).Values[0].AsString() != "HIGH" {
		t.Errorf("added = \n%s", added)
	}
}

// TestAppendOnlyJoinReadsPartnersFromPre: the append-only model drops a
// window's deletions, but a join's partner operands are the base state
// the step is handed (pre), not what earlier steps saw. A stock deleted
// in one window must not join a trade inserted for it in the next.
func TestAppendOnlyJoinReadsPartnersFromPre(t *testing.T) {
	s := storage.NewStore()
	trades := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	if err := s.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("trades", trades); err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.PlanSQL("SELECT * FROM stocks s JOIN trades t ON s.name = t.sym", s.Live())
	if err != nil {
		t.Fatal(err)
	}
	plan = algebra.Optimize(plan)
	p := insert(t, s, "P", 150)
	insert(t, s, "Q", 120)
	trade := func(sym string) {
		t.Helper()
		tx := s.Begin()
		if _, err := tx.Insert("trades", []relation.Value{relation.Str(sym), relation.Int(10)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ao, err := NewAppendOnly(plan, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	last := s.Now()
	step := func() *relation.Relation {
		t.Helper()
		ds := deltasSince(t, s, last)
		d, err := s.DeltaSince("trades", last)
		if err != nil {
			t.Fatal(err)
		}
		ds["trades"] = d
		added, err := ao.Step(ds, s.At(last), s.Live(), s.Now())
		if err != nil {
			t.Fatal(err)
		}
		last = s.Now()
		return added
	}

	trade("Q")
	if added := step(); added.Len() != 1 {
		t.Fatalf("first step added %d rows, want the Q match:\n%s", added.Len(), added)
	}
	tx := s.Begin()
	if err := tx.Delete("stocks", p); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if added := step(); added.Len() != 0 {
		t.Fatalf("a deletion added %d rows:\n%s", added.Len(), added)
	}
	trade("P")
	if added := step(); added.Len() != 0 {
		t.Fatalf("a trade for the deleted stock P joined it:\n%s", added)
	}
}
