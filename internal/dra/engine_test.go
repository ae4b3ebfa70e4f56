package dra

import (
	"errors"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// fixture wires a storage.Store into DRA inputs.
type fixture struct {
	store  *storage.Store
	lastTS vclock.Timestamp
}

func newFixture(t *testing.T, tables map[string]relation.Schema) *fixture {
	t.Helper()
	s := storage.NewStore()
	for name, schema := range tables {
		if err := s.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{store: s}
}

// mark records the current time as the CQ's last execution point.
func (f *fixture) mark() { f.lastTS = f.store.Now() }

// ctx assembles the DRA context for all tables.
func (f *fixture) ctx(t *testing.T) *Context {
	t.Helper()
	deltas := make(map[string]*delta.Delta)
	for _, name := range f.store.TableNames() {
		d, err := f.store.DeltaSince(name, f.lastTS)
		if err != nil {
			t.Fatal(err)
		}
		deltas[name] = d
	}
	return &Context{
		Pre:     f.store.At(f.lastTS),
		Post:    f.store.Live(),
		Deltas:  deltas,
		LastTS:  f.lastTS,
		Windows: f.store.NewWindowCache(),
	}
}

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
}

func (f *fixture) insert(t *testing.T, table string, vals ...[]relation.Value) []relation.TID {
	t.Helper()
	tx := f.store.Begin()
	tids := make([]relation.TID, 0, len(vals))
	for _, v := range vals {
		tid, err := tx.Insert(table, v)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tids
}

func sv(name string, price float64) []relation.Value {
	return []relation.Value{relation.Str(name), relation.Float(price)}
}

func (f *fixture) plan(t *testing.T, query string) algebra.Plan {
	t.Helper()
	p, err := algebra.PlanSQL(query, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Optimize(p)
}

// reval refreshes plan once, from f.lastTS, by a plan prepared on e and
// seeded there, maintains the complete result, and sanity checks it
// against full re-evaluation (stepPrepared). prev is consumed (mutated).
func (f *fixture) reval(t *testing.T, e *Engine, plan algebra.Plan, prev *relation.Relation) (*Result, *relation.Relation) {
	t.Helper()
	p, err := e.Prepare(plan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Seed(f.store.At(f.lastTS), f.lastTS); err != nil {
		t.Fatal(err)
	}
	return stepPrepared(t, f, p, plan, prev)
}

// TestExample2 reproduces Example 2 of the paper end to end: continual
// query σ_price>120(Stocks), base updated by transaction T of Example 1;
// the differential result must show the DEC modification (150→149, both
// above 120) and the QLI deletion, and must NOT show MAC (117 < 120).
func TestExample2(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	tids := f.insert(t, "stocks", sv("DEC", 150), sv("QLI", 145), sv("IBM", 75))
	decTID, qliTID := tids[0], tids[1]

	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 120")
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	if prev.Len() != 2 {
		t.Fatalf("initial result len = %d, want 2 (DEC, QLI)", prev.Len())
	}
	f.mark()

	// Transaction T of Example 1.
	tx := f.store.Begin()
	if _, err := tx.Insert("stocks", sv("MAC", 117)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("stocks", decTID, sv("DEC", 149)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", qliTID); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine()
	res, complete := f.reval(t, e, plan, prev)

	mods := res.Delta.Modifications()
	if len(mods) != 1 {
		t.Fatalf("modifications = %d, want 1 (DEC): %+v", len(mods), mods)
	}
	if mods[0].Old[1].AsFloat() != 150 || mods[0].New[1].AsFloat() != 149 {
		t.Errorf("DEC modification = %v -> %v", mods[0].Old, mods[0].New)
	}
	del := res.Delta.Deletions()
	if !del.Has(qliTID) {
		t.Errorf("QLI deletion missing:\n%s", del)
	}
	ins := res.Delta.Insertions()
	for _, tu := range ins.Tuples() {
		if tu.Values[0].AsString() == "MAC" {
			t.Error("MAC (117) must not enter the >120 result")
		}
	}
	// Post state: DEC 149 (>120), MAC 117 (no), IBM 75 (no) => 1 row.
	if complete.Len() != 1 {
		t.Fatalf("complete result len = %d, want 1 (DEC@149)", complete.Len())
	}
	// The engine must not have scanned any pre-state (pure select query).
	if res.Stats.PreTuplesScanned != 0 {
		t.Errorf("select-only DRA scanned %d pre tuples, want 0", res.Stats.PreTuplesScanned)
	}
	if res.Stats.FellBack {
		t.Error("select query should not fall back")
	}
}

func TestSelectInsertOnly(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("A", 130))
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 120")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	f.insert(t, "stocks", sv("B", 140), sv("C", 100))

	res, _ := f.reval(t, NewEngine(), plan, prev)
	if res.Delta.Insertions().Len() != 1 {
		t.Fatalf("inserted = %d, want 1:\n%s", res.Delta.Insertions().Len(), res.Delta.Insertions())
	}
	if res.Delta.Insertions().At(0).Values[0].AsString() != "B" {
		t.Errorf("inserted row = %v", res.Delta.Insertions().At(0))
	}
	if res.Delta.Deletions().Len() != 0 || len(res.Delta.Modifications()) != 0 {
		t.Error("unexpected deletions/modifications")
	}
}

func TestModificationCrossesPredicateBoundary(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	tids := f.insert(t, "stocks", sv("UP", 100), sv("DOWN", 130))
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 120")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()

	tx := f.store.Begin()
	_ = tx.Update("stocks", tids[0], sv("UP", 140))  // enters result
	_ = tx.Update("stocks", tids[1], sv("DOWN", 90)) // leaves result
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	res, _ := f.reval(t, NewEngine(), plan, prev)
	if res.Delta.Insertions().Len() != 1 || res.Delta.Insertions().At(0).Values[0].AsString() != "UP" {
		t.Errorf("inserted:\n%s", res.Delta.Insertions())
	}
	if res.Delta.Deletions().Len() != 1 || res.Delta.Deletions().At(0).Values[0].AsString() != "DOWN" {
		t.Errorf("deleted:\n%s", res.Delta.Deletions())
	}
	if len(res.Delta.Modifications()) != 0 {
		t.Errorf("boundary-crossing updates are inserts/deletes, got mods %+v", res.Delta.Modifications())
	}
}

func TestProjectionDelta(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("A", 130))
	plan := f.plan(t, "SELECT name FROM stocks WHERE price > 120")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	f.insert(t, "stocks", sv("B", 150))

	res, _ := f.reval(t, NewEngine(), plan, prev)
	if res.Delta.Insertions().Len() != 1 {
		t.Fatalf("inserted = %d", res.Delta.Insertions().Len())
	}
	if got := res.Delta.Insertions().At(0).Values; len(got) != 1 || got[0].AsString() != "B" {
		t.Errorf("projected insert = %v", got)
	}
}

func TestIrrelevantUpdatesSkipped(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("A", 130))
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 120")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	// Updates entirely below the predicate: irrelevant to the CQ.
	f.insert(t, "stocks", sv("LOW1", 10), sv("LOW2", 20))

	e := NewEngine()
	res, _ := f.reval(t, e, plan, prev)
	if !res.Stats.Skipped {
		t.Error("irrelevant updates should be skipped (Section 5.2)")
	}
	if res.Delta.Len() != 0 {
		t.Errorf("skip produced a change: %+v", res.Delta.Rows())
	}
	if res.Stats.DeltaRows != 0 {
		t.Errorf("a skipped refresh consumed %d delta rows", res.Stats.DeltaRows)
	}
}

func TestJoinDeltaSingleChangedOperand(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(100)},
		[]relation.Value{relation.Str("IBM"), relation.Int(200)},
	)
	plan := f.plan(t, "SELECT * FROM stocks s JOIN trades t ON s.name = t.sym")
	prev, _ := InitialResult(plan, f.store.Live())
	if prev.Len() != 2 {
		t.Fatalf("initial join len = %d", prev.Len())
	}
	f.mark()

	// One new trade for IBM: exactly one term (Δtrades ⋈ stocks).
	f.insert(t, "trades", []relation.Value{relation.Str("IBM"), relation.Int(50)})

	e := NewEngine()
	res, _ := f.reval(t, e, plan, prev)
	if res.Delta.Insertions().Len() != 1 {
		t.Fatalf("inserted = %d:\n%s", res.Delta.Insertions().Len(), res.Delta.Insertions())
	}
	if res.Stats.Terms != 1 {
		t.Errorf("terms = %d, want 1 (single changed operand)", res.Stats.Terms)
	}
}

func TestJoinDeltaBothOperandsChanged(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	stockTIDs := f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(100)},
		[]relation.Value{relation.Str("IBM"), relation.Int(200)},
	)
	plan := f.plan(t, "SELECT * FROM stocks s JOIN trades t ON s.name = t.sym")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()

	// Modify a stock and insert a trade for it: one term per changed
	// operand, where the truth table would run 2^2-1.
	tx := f.store.Begin()
	_ = tx.Update("stocks", stockTIDs[1], sv("IBM", 80))
	_, _ = tx.Insert("trades", []relation.Value{relation.Str("IBM"), relation.Int(10)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine()
	res, _ := f.reval(t, e, plan, prev)
	if res.Stats.Terms != 2 {
		t.Errorf("terms = %d, want 2 (one per changed operand)", res.Stats.Terms)
	}
	// IBM@80 joined with old trade (modification) and with new trade
	// (insertion).
	if len(res.Delta.Modifications()) != 1 {
		t.Errorf("modifications = %d, want 1: %+v", len(res.Delta.Modifications()), res.Delta.Modifications())
	}
	if res.Delta.Insertions().Len() != 2 { // new-trade join row + new half of modification
		t.Errorf("insertions view = %d, want 2:\n%s", res.Delta.Insertions().Len(), res.Delta.Insertions())
	}
}

func TestThreeWayJoinDelta(t *testing.T) {
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

	plan := f.plan(t, "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
	prev, _ := InitialResult(plan, f.store.Live())
	if prev.Len() != 2 {
		t.Fatalf("initial 3-way join = %d", prev.Len())
	}
	f.mark()

	// Change every operand: one term each, where the truth table would
	// run 2^3-1.
	tx := f.store.Begin()
	_, _ = tx.Insert("a", iv(3, "a3"))
	_, _ = tx.Insert("b", iv(3, 30))
	_, _ = tx.Insert("c", iv(30, "c30"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine()
	res, _ := f.reval(t, e, plan, prev)
	if res.Stats.Terms != 3 {
		t.Errorf("terms = %d, want 3 (one per changed operand)", res.Stats.Terms)
	}
	if res.Delta.Insertions().Len() != 1 {
		t.Errorf("inserted = %d:\n%s", res.Delta.Insertions().Len(), res.Delta.Insertions())
	}
}

func TestAggregateFallsBackToPropagate(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"accounts": relation.MustSchema(
		relation.Column{Name: "owner", Type: relation.TString},
		relation.Column{Name: "amount", Type: relation.TFloat},
	)})
	f.insert(t, "accounts",
		[]relation.Value{relation.Str("alice"), relation.Float(100)},
		[]relation.Value{relation.Str("bob"), relation.Float(200)},
	)
	// MAX is outside what a group table keeps (a deletion of the
	// maximum needs the group's other rows): complete re-evaluation.
	plan := f.plan(t, "SELECT MAX(amount) AS top FROM accounts")
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	f.insert(t, "accounts", []relation.Value{relation.Str("carol"), relation.Float(250)})

	e := NewEngine()
	res, complete := f.reval(t, e, plan, prev)
	if !res.Stats.FellBack {
		t.Error("aggregate should fall back to Propagate")
	}
	if complete.Len() != 1 || complete.At(0).Values[0].AsFloat() != 250 {
		t.Errorf("max = %v", complete.At(0).Values)
	}
	// The change shows as a modification of the single aggregate row.
	if len(res.Delta.Modifications()) != 1 {
		t.Errorf("aggregate change should be one modification, got %+v", res.Delta.Rows())
	}
}

// TestReevaluateRequiresPrev: complete re-evaluation diffs against the
// previous result (Algorithm 1's input (v)), so a step on
// StrategyPropagate without ctx.Prev fails with ErrNoPrev; a
// differential step never reads it.
func TestReevaluateRequiresPrev(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	plan := f.plan(t, "SELECT * FROM stocks WHERE price > 120")
	for _, strat := range []Strategy{StrategyPropagate, StrategyIncremental} {
		p, err := NewEngine().Prepare(plan, strat)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Step(f.ctx(t), 1)
		if want := map[Strategy]error{StrategyPropagate: ErrNoPrev}[strat]; !errors.Is(err, want) {
			t.Errorf("%v: err = %v, want %v", strat, err, want)
		}
		p.Close()
	}
}

func TestPropagateMatchesExample2Arithmetic(t *testing.T) {
	// Propagate(σ_price>120) over Example 1's transaction.
	pre := relation.New(stockSchema())
	_ = pre.Insert(relation.Tuple{TID: 1, Values: sv("DEC", 150)})
	_ = pre.Insert(relation.Tuple{TID: 2, Values: sv("QLI", 145)})
	post := relation.New(stockSchema())
	_ = post.Insert(relation.Tuple{TID: 1, Values: sv("DEC", 149)})
	_ = post.Insert(relation.Tuple{TID: 3, Values: sv("MAC", 117)})

	cat := algebra.MapSource{"stocks": pre}
	plan, err := algebra.PlanSQL("SELECT * FROM stocks WHERE price > 120", catalogFor(pre))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Propagate(plan, algebra.MapSource{"stocks": pre}, algebra.MapSource{"stocks": post}, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = cat
	ins, del, mod := d.Counts()
	if ins != 0 || del != 1 || mod != 1 {
		t.Errorf("propagate counts = %d/%d/%d, want 0/1/1 (QLI deleted, DEC modified)", ins, del, mod)
	}
}

// catalogFor builds a one-table catalog from a relation for planning.
type relCatalog struct{ rel *relation.Relation }

func (c relCatalog) Schema(string) (relation.Schema, error) { return c.rel.Schema(), nil }

func catalogFor(r *relation.Relation) relCatalog { return relCatalog{rel: r} }

// TestSelfJoinDelta exercises the same base table appearing as two join
// operands: both operands share the same differential relation, and the
// telescoping terms must still produce the exact change.
func TestSelfJoinDelta(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75), sv("MAC", 117))
	// Pairs of distinct stocks with equal prices... use name equality for
	// a self-match: every row pairs with itself.
	plan := f.plan(t, "SELECT * FROM stocks a JOIN stocks b ON a.name = b.name WHERE a.price > 100")
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	if prev.Len() != 2 { // DEC and MAC pair with themselves
		t.Fatalf("initial self-join = %d, want 2", prev.Len())
	}
	f.mark()

	f.insert(t, "stocks", sv("SUN", 130))
	e := NewEngine()
	res, complete := f.reval(t, e, plan, prev)
	if res.Delta.Insertions().Len() != 1 {
		t.Errorf("self-join insert = %d:\n%s", res.Delta.Insertions().Len(), res.Delta.Insertions())
	}
	if complete.Len() != 3 {
		t.Errorf("self-join complete = %d", complete.Len())
	}
}

// TestCrossProductDelta exercises a join with no equi predicate.
func TestCrossProductDelta(t *testing.T) {
	a := relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt})
	b := relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt})
	f := newFixture(t, map[string]relation.Schema{"l": a, "r": b})
	f.insert(t, "l", []relation.Value{relation.Int(1)}, []relation.Value{relation.Int(2)})
	f.insert(t, "r", []relation.Value{relation.Int(10)})
	plan := f.plan(t, "SELECT * FROM l, r")
	prev, _ := InitialResult(plan, f.store.Live())
	if prev.Len() != 2 {
		t.Fatalf("initial cross = %d", prev.Len())
	}
	f.mark()
	f.insert(t, "r", []relation.Value{relation.Int(20)})
	res, complete := f.reval(t, NewEngine(), plan, prev)
	if res.Delta.Insertions().Len() != 2 || complete.Len() != 4 {
		t.Errorf("cross delta: +%d, complete %d", res.Delta.Insertions().Len(), complete.Len())
	}
}

// TestNonEquiJoinDelta exercises a residual (non-equi) join predicate in
// the differential terms.
func TestNonEquiJoinDelta(t *testing.T) {
	a := relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt})
	b := relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt})
	f := newFixture(t, map[string]relation.Schema{"l": a, "r": b})
	f.insert(t, "l", []relation.Value{relation.Int(5)})
	f.insert(t, "r", []relation.Value{relation.Int(3)}, []relation.Value{relation.Int(7)})
	plan := f.plan(t, "SELECT * FROM l JOIN r ON l.x > r.y")
	prev, _ := InitialResult(plan, f.store.Live())
	if prev.Len() != 1 { // (5,3)
		t.Fatalf("initial non-equi = %d", prev.Len())
	}
	f.mark()
	f.insert(t, "l", []relation.Value{relation.Int(10)})
	res, complete := f.reval(t, NewEngine(), plan, prev)
	if res.Delta.Insertions().Len() != 2 { // (10,3) and (10,7)
		t.Errorf("non-equi delta = %d:\n%s", res.Delta.Insertions().Len(), res.Delta.Insertions())
	}
	_ = complete
}
