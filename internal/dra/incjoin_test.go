package dra

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
)

// incJoin drives a prepared join — the telescoping kernel over
// maintained replicas — keeping the complete result the way a CQ
// instance does.
type incJoin struct {
	p    *Prepared
	prev *relation.Relation
}

func (ij *incJoin) Result() *relation.Relation { return ij.prev }

func newIncJoin(t *testing.T, f *fixture, query string) (*incJoin, algebra.Plan) {
	t.Helper()
	plan := f.plan(t, query)
	p, err := NewEngine().Prepare(plan, StrategyIncremental)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	t.Cleanup(p.Close)
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	return &incJoin{p: p, prev: prev}, plan
}

func incJoinStepAndVerify(t *testing.T, f *fixture, ij *incJoin, plan algebra.Plan) *Result {
	t.Helper()
	ctx := f.ctx(t)
	ctx.Prev = ij.prev
	res, err := ij.p.Step(ctx, f.store.Now())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	ij.prev = res.ApplyTo(ij.prev)
	f.mark()
	want, err := algebra.NewExecutor(f.store.Live()).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !ij.Result().EqualByTID(want) {
		t.Fatalf("incremental join diverged.\nmaintained:\n%s\nfresh:\n%s", ij.Result(), want)
	}
	return res
}

func tradeSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
}

func TestIncrementalJoinBasic(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema()})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(100)},
		[]relation.Value{relation.Str("IBM"), relation.Int(200)},
	)
	ij, plan := newIncJoin(t, f, "SELECT * FROM stocks s JOIN trades t ON s.name = t.sym")
	f.mark()
	if ij.Result().Len() != 2 {
		t.Fatalf("initial = %d", ij.Result().Len())
	}

	// New trade joins against the maintained stock index (no rescans).
	f.insert(t, "trades", []relation.Value{relation.Str("IBM"), relation.Int(50)})
	res := incJoinStepAndVerify(t, f, ij, plan)
	if res.Delta.Insertions().Len() != 1 {
		t.Errorf("insert delta = %+v", res.Delta.Rows())
	}
	// One changed operand, one term: dra.terms_evaluated counts the
	// telescoping kernel's terms.
	if res.Stats.Terms != 1 {
		t.Errorf("terms = %d, want 1", res.Stats.Terms)
	}
}

func TestIncrementalJoinModificationsAndDeletes(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema()})
	stockTIDs := f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	tradeTIDs := f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(100)},
		[]relation.Value{relation.Str("IBM"), relation.Int(200)},
	)
	ij, plan := newIncJoin(t, f, "SELECT * FROM stocks s JOIN trades t ON s.name = t.sym")
	f.mark()

	// Modify a stock (join key preserved): joined row modified.
	tx := f.store.Begin()
	_ = tx.Update("stocks", stockTIDs[0], sv("DEC", 149))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res := incJoinStepAndVerify(t, f, ij, plan)
	if len(res.Delta.Modifications()) != 1 {
		t.Errorf("modification delta = %+v", res.Delta.Rows())
	}

	// Change a trade's join key: old pairing leaves, new one enters.
	tx = f.store.Begin()
	_ = tx.Update("trades", tradeTIDs[1], []relation.Value{relation.Str("DEC"), relation.Int(200)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	incJoinStepAndVerify(t, f, ij, plan)

	// Delete a stock: its joined rows disappear.
	tx = f.store.Begin()
	_ = tx.Delete("stocks", stockTIDs[0])
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res = incJoinStepAndVerify(t, f, ij, plan)
	if res.Delta.Deletions().Len() == 0 {
		t.Error("expected deletions after removing the joined stock")
	}
	if ij.Result().Len() != 0 {
		t.Errorf("result = %d, want 0", ij.Result().Len())
	}
}

func TestIncrementalJoinWithProjectionAndFilter(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema()})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(100)})
	ij, plan := newIncJoin(t, f,
		"SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym WHERE t.volume > 50 AND s.price > 100")
	f.mark()
	if ij.Result().Len() != 1 {
		t.Fatalf("initial = %d", ij.Result().Len())
	}
	// Below the volume filter: no change.
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(10)})
	res := incJoinStepAndVerify(t, f, ij, plan)
	if res.Delta.Len() != 0 {
		t.Errorf("filtered insert changed the result: %+v", res.Delta.Rows())
	}
	// Above it.
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(900)})
	res = incJoinStepAndVerify(t, f, ij, plan)
	if res.Delta.Insertions().Len() != 1 || len(res.Delta.Insertions().At(0).Values) != 2 {
		t.Errorf("projected insert = %+v", res.Delta.Rows())
	}
}

func TestIncrementalJoinThreeWay(t *testing.T) {
	a := relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "tag", Type: relation.TString})
	b := relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt}, relation.Column{Name: "y", Type: relation.TInt})
	c := relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt}, relation.Column{Name: "name", Type: relation.TString})
	f := newFixture(t, map[string]relation.Schema{"a": a, "b": b, "c": c})
	iv := func(vals ...any) []relation.Value {
		out := make([]relation.Value, len(vals))
		for i, v := range vals {
			switch x := v.(type) {
			case int:
				out[i] = relation.Int(int64(x))
			case string:
				out[i] = relation.Str(x)
			}
		}
		return out
	}
	f.insert(t, "a", iv(1, "a1"), iv(2, "a2"))
	f.insert(t, "b", iv(1, 10), iv(2, 20))
	f.insert(t, "c", iv(10, "c10"), iv(20, "c20"))
	ij, plan := newIncJoin(t, f, "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
	f.mark()
	if ij.Result().Len() != 2 {
		t.Fatalf("initial = %d", ij.Result().Len())
	}
	// Change all three operands in one transaction.
	tx := f.store.Begin()
	_, _ = tx.Insert("a", iv(3, "a3"))
	_, _ = tx.Insert("b", iv(3, 30))
	_, _ = tx.Insert("c", iv(30, "c30"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res := incJoinStepAndVerify(t, f, ij, plan)
	if res.Delta.Insertions().Len() != 1 {
		t.Errorf("3-way delta = %+v", res.Delta.Rows())
	}
	if res.Stats.Terms != 3 {
		t.Errorf("terms = %d, want 3: one per changed operand, not 2^3-1", res.Stats.Terms)
	}
}

// A join-free plan under StrategyIncremental is the differential
// selection, a view over its window; the join kernel stays out of it: no
// replicas, no terms, no pre-state read.
func TestIncrementalJoinRejectsNonJoin(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("A", 1))
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 0")
	p, err := NewEngine().Prepare(plan, StrategyIncremental)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	f.insert(t, "stocks", sv("B", 2))
	res, _ := stepPrepared(t, f, p, plan, prev)
	if p.Strategy() != StrategyIncremental || len(p.Replicas()) != 0 {
		t.Errorf("strategy %v with %d replicas, want incremental and none", p.Strategy(), len(p.Replicas()))
	}
	if res.Stats.Terms != 0 || res.Stats.PreTuplesScanned != 0 || res.Stats.IndexCacheMisses != 0 {
		t.Errorf("a selection refresh ran join work: %+v", res.Stats)
	}
}

// Property: the maintained join equals fresh execution over long random
// multi-table histories (including self-joins and cross-operand churn).
func TestIncrementalJoinEquivalenceProperty(t *testing.T) {
	queries := []string{
		"SELECT * FROM r JOIN u ON r.s1 = u.s2",
		"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 80",
		"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
		"SELECT * FROM r a JOIN r b ON a.s1 = b.s1", // self join
	}
	rSchema := relation.MustSchema(
		relation.Column{Name: "s1", Type: relation.TString},
		relation.Column{Name: "a", Type: relation.TFloat},
	)
	uSchema := relation.MustSchema(
		relation.Column{Name: "s2", Type: relation.TString},
		relation.Column{Name: "b", Type: relation.TFloat},
		relation.Column{Name: "x", Type: relation.TInt},
	)
	wSchema := relation.MustSchema(
		relation.Column{Name: "x", Type: relation.TInt},
		relation.Column{Name: "c", Type: relation.TFloat},
	)
	for qi, q := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(qi + 900)))
			f := newFixture(t, map[string]relation.Schema{"r": rSchema, "u": uSchema, "w": wSchema})
			live := liveSet{}
			applyRandomBatch(t, f, rng, live, 10, 3)
			ij, plan := newIncJoin(t, f, q)
			f.mark()
			for round := 0; round < 10; round++ {
				applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
				incJoinStepAndVerify(t, f, ij, plan)
			}
		})
	}
}
