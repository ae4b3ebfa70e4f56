package dra

import (
	"errors"
	"math"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

func accountsFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixture(t, map[string]relation.Schema{"accounts": relation.MustSchema(
		relation.Column{Name: "owner", Type: relation.TString},
		relation.Column{Name: "amount", Type: relation.TFloat},
		relation.Column{Name: "branch", Type: relation.TString},
	)})
}

func av(owner string, amount float64, branch string) []relation.Value {
	return []relation.Value{relation.Str(owner), relation.Float(amount), relation.Str(branch)}
}

func newIncAgg(t *testing.T, f *fixture, query string) (*IncrementalAggregate, algebra.Plan) {
	t.Helper()
	plan := f.plan(t, query)
	ia, err := NewIncrementalAggregate(NewEngine(), plan, f.store.Live())
	if err != nil {
		t.Fatalf("NewIncrementalAggregate: %v", err)
	}
	return ia, plan
}

// step folds the pending window and checks the maintained output equals
// a fresh full execution.
func stepAndVerify(t *testing.T, f *fixture, ia *IncrementalAggregate, plan algebra.Plan) *Result {
	t.Helper()
	ctx := f.ctx(t)
	res, err := ia.Step(ctx, f.store.Now())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	f.mark()
	want, err := algebra.NewExecutor(f.store.Live()).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !aggEqual(ia.Result(), want) {
		t.Fatalf("incremental aggregate diverged.\nmaintained:\n%s\nfresh:\n%s", ia.Result(), want)
	}
	return res
}

func approxEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// aggEqual compares aggregate outputs by group key with float tolerance.
func aggEqual(a, b *relation.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, t := range a.Tuples() {
		bt, ok := b.Lookup(t.TID)
		if !ok {
			return false
		}
		for i := range t.Values {
			av, bv := t.Values[i], bt.Values[i]
			if av.IsNull() != bv.IsNull() {
				return false
			}
			if av.IsNull() {
				continue
			}
			if av.IsNumeric() && bv.IsNumeric() {
				if !approxEqual(av.AsFloat(), bv.AsFloat(), 1e-6) {
					return false
				}
				continue
			}
			if !av.Equal(bv) {
				return false
			}
		}
	}
	return true
}

// TestIncrementalBankSum maintains the paper's checking-account sum
// through deposits, withdrawals and in-place corrections.
func TestIncrementalBankSum(t *testing.T) {
	f := accountsFixture(t)
	tids := f.insert(t, "accounts", av("alice", 100, "n"), av("bob", 200, "n"))
	ia, plan := newIncAgg(t, f, "SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts")
	f.mark()

	got := ia.Result()
	if got.At(0).Values[0].AsFloat() != 300 || got.At(0).Values[1].AsInt() != 2 {
		t.Fatalf("initial = %v", got.At(0).Values)
	}

	// Deposit.
	f.insert(t, "accounts", av("carol", 50, "s"))
	res := stepAndVerify(t, f, ia, plan)
	if len(res.Delta.Modifications()) != 1 {
		t.Errorf("sum change should be one modification, got %+v", res.Delta.Rows())
	}
	if ia.Result().At(0).Values[0].AsFloat() != 350 {
		t.Errorf("after deposit = %v", ia.Result().At(0).Values)
	}

	// Withdrawal (delete) + correction (modify).
	tx := f.store.Begin()
	_ = tx.Delete("accounts", tids[0])
	_ = tx.Update("accounts", tids[1], av("bob", 210, "n"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res = stepAndVerify(t, f, ia, plan)
	if ia.Result().At(0).Values[0].AsFloat() != 260 {
		t.Errorf("after withdrawal+correction = %v", ia.Result().At(0).Values)
	}
	// The engine never scanned base data for this step.
	if res.Stats.PreTuplesScanned != 0 {
		t.Errorf("incremental aggregate scanned %d pre tuples", res.Stats.PreTuplesScanned)
	}
}

func TestIncrementalGlobalEmptiesToNull(t *testing.T) {
	f := accountsFixture(t)
	tids := f.insert(t, "accounts", av("a", 10, "n"))
	ia, plan := newIncAgg(t, f, "SELECT SUM(amount) AS total, COUNT(*) AS n, AVG(amount) AS a FROM accounts")
	f.mark()

	tx := f.store.Begin()
	_ = tx.Delete("accounts", tids[0])
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	stepAndVerify(t, f, ia, plan)
	vals := ia.Result().At(0).Values
	if !vals[0].IsNull() || vals[1].AsInt() != 0 || !vals[2].IsNull() {
		t.Errorf("empty-table aggregates = %v, want NULL/0/NULL", vals)
	}
}

func TestIncrementalGroupByAppearsAndDisappears(t *testing.T) {
	f := accountsFixture(t)
	f.insert(t, "accounts", av("a", 10, "north"), av("b", 20, "north"))
	ia, plan := newIncAgg(t, f, "SELECT branch, SUM(amount) AS total FROM accounts GROUP BY branch")
	f.mark()
	if ia.Result().Len() != 1 {
		t.Fatalf("initial groups = %d", ia.Result().Len())
	}

	// New group appears.
	southTIDs := f.insert(t, "accounts", av("c", 5, "south"))
	res := stepAndVerify(t, f, ia, plan)
	if res.Delta.Insertions().Len() != 1 {
		t.Errorf("new group should be an insertion, got %+v", res.Delta.Rows())
	}
	if ia.Result().Len() != 2 {
		t.Fatalf("groups = %d", ia.Result().Len())
	}

	// Group disappears when its last row goes.
	tx := f.store.Begin()
	_ = tx.Delete("accounts", southTIDs[0])
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res = stepAndVerify(t, f, ia, plan)
	if res.Delta.Deletions().Len() != 1 {
		t.Errorf("vanished group should be a deletion, got %+v", res.Delta.Rows())
	}
	if ia.Result().Len() != 1 {
		t.Errorf("groups = %d", ia.Result().Len())
	}
}

func TestIncrementalWithSelectionInput(t *testing.T) {
	f := accountsFixture(t)
	f.insert(t, "accounts", av("a", 100, "n"), av("b", 5, "n"))
	ia, plan := newIncAgg(t, f, "SELECT COUNT(*) AS big FROM accounts WHERE amount > 50")
	f.mark()
	if ia.Result().At(0).Values[0].AsInt() != 1 {
		t.Fatalf("initial = %v", ia.Result().At(0).Values)
	}
	// Insert below the predicate: irrelevant to the aggregate.
	f.insert(t, "accounts", av("c", 1, "n"))
	res := stepAndVerify(t, f, ia, plan)
	if res.Delta.Len() != 0 {
		t.Errorf("irrelevant insert changed the aggregate: %+v", res.Delta.Rows())
	}
	// Insert above it.
	f.insert(t, "accounts", av("d", 500, "n"))
	stepAndVerify(t, f, ia, plan)
	if ia.Result().At(0).Values[0].AsInt() != 2 {
		t.Errorf("count = %v", ia.Result().At(0).Values)
	}
}

func TestNotIncrementalCases(t *testing.T) {
	f := accountsFixture(t)
	f.insert(t, "accounts", av("a", 1, "n"))
	cases := []string{
		"SELECT MIN(amount) AS lo FROM accounts",
		"SELECT MAX(amount) AS hi FROM accounts",
		"SELECT branch, SUM(amount) AS s FROM accounts GROUP BY branch HAVING SUM(amount) > 10",
		"SELECT * FROM accounts", // not an aggregate root
	}
	for _, q := range cases {
		plan := f.plan(t, q)
		if _, err := NewIncrementalAggregate(NewEngine(), plan, f.store.Live()); !errors.Is(err, ErrNotIncremental) {
			t.Errorf("%q: err = %v, want ErrNotIncremental", q, err)
		}
	}
}

// TestGroupTableHashCollision feeds the group table two distinct keys
// engineered to collide under the key hash (see collidingRows) — which
// is also the output tid, so the two groups would be one result row.
// Keyed by the bare hash they silently shared an accumulator; now the
// probe verifies the key against the stored columns and the collision
// fails the Step (and a seed holding both fails construction), for
// aggregates and DISTINCT alike. The failed fold is rolled
// back: once the colliding row is gone, the same window — grown by its
// deletion — folds cleanly to the fresh result.
func TestGroupTableHashCollision(t *testing.T) {
	a, b := collidingRows()
	if relation.HashValues(a) != relation.HashValues(b) {
		t.Fatal("fixture rows no longer collide; rebuild them against the current HashValues encoding")
	}
	type maintainer interface {
		Step(*Context, vclock.Timestamp) (*Result, error)
		Result() *relation.Relation
	}
	build := func(e *Engine, plan algebra.Plan, src algebra.Source) (maintainer, error) {
		if _, ok := plan.(*algebra.DistinctPlan); ok {
			return NewIncrementalDistinct(e, plan, src)
		}
		return NewIncrementalAggregate(e, plan, src)
	}
	for _, q := range []string{
		"SELECT x, y, COUNT(*) AS n FROM p GROUP BY x, y",
		"SELECT DISTINCT x, y FROM p",
	} {
		f := newFixture(t, map[string]relation.Schema{"p": pairSchema()})
		f.insert(t, "p", a, strs("u", "v"))
		plan := f.plan(t, q)
		eng := NewEngine()
		m, err := build(eng, plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		f.mark()

		// The colliding key arrives behind an ordinary change, so the
		// fold is half done when it fails.
		tids := f.insert(t, "p", strs("u", "v"), b)
		if _, err := m.Step(f.ctx(t), f.store.Now()); err == nil {
			t.Fatalf("%q: colliding keys merged into one group:\n%s", q, m.Result())
		}
		if _, err := build(eng, plan, f.store.Live()); err == nil {
			t.Fatalf("%q: a seed holding both colliding keys built", q)
		}

		tx := f.store.Begin()
		if err := tx.Delete("p", tids[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(f.ctx(t), f.store.Now()); err != nil {
			t.Fatalf("%q: retry after the collision left: %v", q, err)
		}
		want, err := algebra.NewExecutor(f.store.Live()).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Result().EqualByTID(want) {
			t.Fatalf("%q: failed fold was not rolled back.\nmaintained:\n%s\nfresh:\n%s", q, m.Result(), want)
		}
	}
}

// TestGroupTableOverJoinFailedFold: the fold of an aggregate or DISTINCT
// over a join fails AFTER the join group has advanced its replicas (two
// group keys engineered to collide, see collidingRows). The error rule
// of every standing query applies: the position clears, and the retry —
// the same window grown by the colliding row's deletion — re-seeds the
// table and its replicas from the pre-state and folds the window exactly
// once.
func TestGroupTableOverJoinFailedFold(t *testing.T) {
	a, b := collidingRows()
	for _, q := range []string{
		"SELECT l.x, l.y, COUNT(*) AS n FROM l JOIN r ON l.x = r.x AND l.y = r.y GROUP BY l.x, l.y",
		"SELECT DISTINCT l.x, l.y FROM l JOIN r ON l.x = r.x AND l.y = r.y",
	} {
		f := newFixture(t, map[string]relation.Schema{"l": pairSchema(), "r": pairSchema()})
		f.insert(t, "l", a, strs("u", "v"))
		f.insert(t, "r", a, strs("u", "v"), b)
		plan := f.plan(t, q)
		reg := obs.NewRegistry()
		eng := NewEngine()
		eng.Instrument(reg)
		var g *groupTable
		if _, ok := plan.(*algebra.DistinctPlan); ok {
			m, err := NewIncrementalDistinct(eng, plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			g = m.groupTable
		} else {
			m, err := NewIncrementalAggregate(eng, plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			g = m.groupTable
		}
		replicaRows := func() int64 { return reg.Snapshot().Gauge("dra.replica.rows") }
		f.mark()

		// A clean refresh builds the replicas.
		f.insert(t, "r", strs("u", "v"))
		if _, err := g.Step(f.ctx(t), f.store.Now()); err != nil {
			t.Fatal(err)
		}
		f.mark()
		if got := replicaRows(); got != 6 {
			t.Fatalf("%q: dra.replica.rows = %d after the first refresh, want 6", q, got)
		}

		// The colliding group arrives behind an ordinary change: the join
		// has advanced and the fold is half done when it fails.
		tids := f.insert(t, "l", strs("u", "v"), b)
		if _, err := g.Step(f.ctx(t), f.store.Now()); err == nil {
			t.Fatalf("%q: colliding keys merged into one group:\n%s", q, g.Result())
		}
		if g.pos.ok {
			t.Fatalf("%q: a failed Step left the position at %d", q, g.pos.ts)
		}

		tx := f.store.Begin()
		if err := tx.Delete("l", tids[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		res, err := g.Step(f.ctx(t), f.store.Now())
		if err != nil {
			t.Fatalf("%q: retry after the collision left: %v", q, err)
		}
		if res.Stats.PreTuplesScanned == 0 {
			t.Errorf("%q: the retry did not re-seed", q)
		}
		want, err := algebra.NewExecutor(f.store.Live()).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Result().EqualByTID(want) {
			t.Fatalf("%q: the window was not folded exactly once.\nmaintained:\n%s\nfresh:\n%s", q, g.Result(), want)
		}
		g.Close()
		if got := replicaRows(); got != 0 {
			t.Errorf("%q: dra.replica.rows = %d after Close", q, got)
		}
	}
}
