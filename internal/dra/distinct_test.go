package dra

import (
	"errors"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
)

func newIncDistinct(t *testing.T, f *fixture, query string) (*IncrementalDistinct, algebra.Plan) {
	t.Helper()
	plan := f.plan(t, query)
	id, err := NewIncrementalDistinct(NewEngine(), plan, f.store.Live())
	if err != nil {
		t.Fatalf("NewIncrementalDistinct: %v", err)
	}
	return id, plan
}

func distinctStepAndVerify(t *testing.T, f *fixture, id *IncrementalDistinct, plan algebra.Plan) *Result {
	t.Helper()
	ctx := f.ctx(t)
	res, err := id.Step(ctx, f.store.Now())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	f.mark()
	want, err := algebra.NewExecutor(f.store.Live()).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !id.Result().EqualContents(want) {
		t.Fatalf("incremental distinct diverged.\nmaintained:\n%s\nfresh:\n%s", id.Result(), want)
	}
	return res
}

func TestIncrementalDistinctDuplicates(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	tids := f.insert(t, "stocks", sv("DEC", 1), sv("DEC", 1), sv("IBM", 1))
	id, plan := newIncDistinct(t, f, "SELECT DISTINCT name FROM stocks")
	f.mark()
	if id.Result().Len() != 2 {
		t.Fatalf("initial distinct = %d", id.Result().Len())
	}

	// Deleting one DEC duplicate must NOT remove DEC from the result.
	tx := f.store.Begin()
	_ = tx.Delete("stocks", tids[0])
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res := distinctStepAndVerify(t, f, id, plan)
	if res.Delta.Len() != 0 {
		t.Errorf("removing a duplicate changed the distinct result: %+v", res.Delta.Rows())
	}

	// Deleting the last DEC removes it.
	tx = f.store.Begin()
	_ = tx.Delete("stocks", tids[1])
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res = distinctStepAndVerify(t, f, id, plan)
	if res.Delta.Deletions().Len() != 1 {
		t.Errorf("last duplicate should delete: %+v", res.Delta.Rows())
	}
}

func TestIncrementalDistinctWithPredicate(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("A", 150), sv("A", 150), sv("B", 10))
	id, plan := newIncDistinct(t, f, "SELECT DISTINCT name FROM stocks WHERE price > 100")
	f.mark()
	if id.Result().Len() != 1 {
		t.Fatalf("initial = %d", id.Result().Len())
	}
	f.insert(t, "stocks", sv("C", 500))
	res := distinctStepAndVerify(t, f, id, plan)
	if res.Delta.Insertions().Len() != 1 {
		t.Errorf("insert through predicate = %+v", res.Delta.Rows())
	}
}

func TestIncrementalDistinctRejectsNonDistinctRoot(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("A", 1))
	plan := f.plan(t, "SELECT name FROM stocks")
	if _, err := NewIncrementalDistinct(NewEngine(), plan, f.store.Live()); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("err = %v", err)
	}
}
