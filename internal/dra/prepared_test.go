package dra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// subject is one way to refresh a plan: a Prepared kept across steps,
// or a plan prepared afresh for every step (fresh).
type subject interface {
	Step(ctx *Context, execTS vclock.Timestamp) (*Result, error)
}

// fresh prepares the plan anew for every step, as baseline.AppendOnly
// does: a plan with no position re-seeds its state from ctx.Pre, so
// every step starts from the pre-state and nothing is kept between
// refreshes.
type fresh struct {
	e    *Engine
	plan algebra.Plan
}

func (r fresh) Step(ctx *Context, execTS vclock.Timestamp) (*Result, error) {
	p, err := r.e.Prepare(r.plan, StrategyAuto)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Step(ctx, execTS)
}

// subjectFor returns the named way to refresh plan on e: "fresh" is a
// plan prepared per step, any other name a Strategy's, prepared once and
// closed with the test.
func subjectFor(t *testing.T, e *Engine, plan algebra.Plan, name string) subject {
	t.Helper()
	if name == "fresh" {
		return fresh{e, plan}
	}
	strat, ok := map[string]Strategy{
		"auto": StrategyAuto, "incremental": StrategyIncremental, "propagate": StrategyPropagate,
	}[name]
	if !ok {
		t.Fatalf("no strategy %q", name)
	}
	p, err := e.Prepare(plan, strat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// stepPrepared runs one refresh of plan by p from f.lastTS, maintains
// the complete result, and asserts it against full re-evaluation. prev is
// consumed (mutated); f.lastTS advances to the execution timestamp, so
// consecutive calls step from the plan's position.
func stepPrepared(t *testing.T, f *fixture, p subject, plan algebra.Plan, prev *relation.Relation) (*Result, *relation.Relation) {
	t.Helper()
	execTS := f.store.Now()
	ctx := f.ctx(t)
	ctx.Prev = prev
	res, err := p.Step(ctx, execTS)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	complete := res.ApplyTo(prev)
	want, err := algebra.NewExecutor(f.store.Live()).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !complete.EqualByTID(want) {
		t.Fatalf("%T result diverges from full re-evaluation.\nmaintained:\n%s\nfull:\n%s",
			p, complete, want)
	}
	f.lastTS = execTS
	return res, complete
}

// equivalenceShapes are the SPJ query shapes of the equivalence
// properties, over equivalenceTables: selections with and without a
// projection, two-way joins, and three-way joins.
var equivalenceShapes = []string{
	"SELECT * FROM r WHERE a > 100",
	"SELECT s1, a FROM r WHERE a > 50 AND s1 != 'k0'",
	"SELECT * FROM r JOIN u ON r.s1 = u.s2",
	"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 80",
	"SELECT * FROM r, u WHERE r.s1 = u.s2 AND u.b < 150 AND r.a > 20",
	"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
	"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x",
}

// equivalenceTables are the schemas equivalenceShapes run over.
func equivalenceTables() map[string]relation.Schema {
	return map[string]relation.Schema{
		"r": relation.MustSchema(
			relation.Column{Name: "s1", Type: relation.TString},
			relation.Column{Name: "a", Type: relation.TFloat},
		),
		"u": relation.MustSchema(
			relation.Column{Name: "s2", Type: relation.TString},
			relation.Column{Name: "b", Type: relation.TFloat},
			relation.Column{Name: "x", Type: relation.TInt},
		),
		"w": relation.MustSchema(
			relation.Column{Name: "x", Type: relation.TInt},
			relation.Column{Name: "c", Type: relation.TFloat},
		),
	}
}

// TestPreparedStrategyEquivalenceProperty extends the package's central
// theorem check to the prepared pipeline: over random multi-table
// histories and SPJ query shapes, every way to refresh — the differential
// pipeline by shape (auto) and by name (incremental), complete
// re-evaluation (propagate), and a plan prepared afresh per step, which
// re-seeds from the pre-state every time (fresh) — must produce exactly
// the complete re-evaluation result, round after round against the SAME
// long-lived subject (so cross-refresh replica state is actually
// exercised).
func TestPreparedStrategyEquivalenceProperty(t *testing.T) {
	subjects := []string{"auto", "fresh", "incremental", "propagate"}
	for qi, q := range equivalenceShapes {
		for si, name := range subjects {
			t.Run(fmt.Sprintf("q%d_%s", qi, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*1000) + int64(si)))
				f := newFixture(t, equivalenceTables())
				live := liveSet{}
				applyRandomBatch(t, f, rng, live, 10, 3)

				plan := f.plan(t, q)
				p := subjectFor(t, NewEngine(), plan, name)

				prev, err := InitialResult(plan, f.store.Live())
				if err != nil {
					t.Fatal(err)
				}
				f.mark()

				for round := 0; round < 12; round++ {
					applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
					_, complete := stepPrepared(t, f, p, plan, prev)
					prev = complete
				}
			})
		}
	}
}

// TestPreparedCacheHitsAcrossRefreshes: consecutive refreshes of the
// same prepared join serve unchanged operands from the cross-refresh
// replicas (hits), instead of re-seeding them from a historical snapshot
// per refresh (misses).
func TestPreparedCacheHitsAcrossRefreshes(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75), sv("MAC", 117))
	f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(10)},
		[]relation.Value{relation.Str("IBM"), relation.Int(20)},
	)
	plan := f.plan(t, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym")
	e := NewEngine()
	p, err := e.Prepare(plan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()

	// First refresh: only trades changed; the stocks pre-state must be
	// built once (miss).
	f.insert(t, "trades", []relation.Value{relation.Str("MAC"), relation.Int(5)})
	res1, complete := stepPrepared(t, f, p, plan, prev)
	if res1.Stats.IndexCacheHits != 0 {
		t.Errorf("first refresh hits = %d, want 0 (cold cache)", res1.Stats.IndexCacheHits)
	}
	if res1.Stats.IndexCacheMisses == 0 {
		t.Error("first refresh should record the replica/index builds as misses")
	}

	// Second refresh, trades again: the stocks replica is exactly the
	// one advanced last round — a hit, with zero pre-state scanning.
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(7)})
	res2, _ := stepPrepared(t, f, p, plan, complete)
	if res2.Stats.IndexCacheHits == 0 {
		t.Error("second refresh should hit the operand cache")
	}
	if res2.Stats.PreTuplesScanned != 0 {
		t.Errorf("second refresh scanned %d pre tuples, want 0 (served from cache)", res2.Stats.PreTuplesScanned)
	}
}

// TestPreparedGapStepsWithoutReseed: a step whose LastTS is not where the
// last one ended — here a deliberate gap, commits landing between the
// last execution and the next window — reads no pre-state: the shared
// arrangements are built (hits, no misses), the step advances them
// across the gap by the window image its context's Windows read, and
// the result stays exact; so does the step after it, consecutive again.
func TestPreparedGapStepsWithoutReseed(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{
		"stocks": stockSchema(), "trades": tradeSchema, "other": stockSchema(),
	})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(10)})
	plan := f.plan(t, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym")
	p, err := NewEngine().Prepare(plan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Seed(f.store.Live(), f.store.Now()); err != nil {
		t.Fatal(err)
	}
	f.mark()

	f.insert(t, "trades", []relation.Value{relation.Str("IBM"), relation.Int(3)})
	res, complete := stepPrepared(t, f, p, plan, prev)
	if res.Stats.PreTuplesScanned != 0 || res.Stats.IndexCacheHits != 2 {
		t.Fatalf("consecutive step: %d pre-state tuples, %d hits; want 0 and 2", res.Stats.PreTuplesScanned, res.Stats.IndexCacheHits)
	}

	// A gap over an unrelated table, then one over stocks.
	for _, table := range []string{"other", "stocks"} {
		f.insert(t, table, sv(table, 200))
		f.mark()
		f.insert(t, "trades", []relation.Value{relation.Str(table), relation.Int(4)})
		res, complete = stepPrepared(t, f, p, plan, complete)
		if res.Stats.PreTuplesScanned != 0 || res.Stats.IndexCacheMisses != 0 || res.Stats.IndexCacheHits != 2 {
			t.Fatalf("gap over %s: stats %+v; want both arrangements served as built", table, res.Stats)
		}
	}

	f.insert(t, "stocks", sv("ACME", 9))
	res, _ = stepPrepared(t, f, p, plan, complete)
	if res.Stats.PreTuplesScanned != 0 || res.Stats.IndexCacheHits != 2 {
		t.Fatalf("step after the gap: %d pre-state tuples, %d hits; want 0 and 2", res.Stats.PreTuplesScanned, res.Stats.IndexCacheHits)
	}
}

// TestStepTwiceFromOneLastTS: a seeded Prepared stepped twice over one
// window from one LastTS — what a refresh retried after a failure past
// its step (materialize, Fits, journal) does — reports the same change
// both times. A join plan's second step finds the arrangements at the
// window's end and reads its partners at LastTS through the window's
// correction, reading no pre-state; a group table's finds its position
// past LastTS and re-seeds there. Telescoping the window into state
// already past it reported a 2-way join's deletion with the new volume,
// and folding it a group's old sum with the window counted twice.
func TestStepTwiceFromOneLastTS(t *testing.T) {
	for _, q := range []string{
		"SELECT s.name, s.price, t.volume FROM stocks s JOIN trades t ON s.name = t.sym",
		"SELECT t.sym, SUM(t.volume) AS v FROM trades t GROUP BY t.sym",
		"SELECT s.name, SUM(t.volume) AS v, COUNT(*) AS n FROM stocks s JOIN trades t ON s.name = t.sym GROUP BY s.name",
	} {
		t.Run(q, func(t *testing.T) { stepTwice(t, q) })
	}
}

// stepTwice is one query of TestStepTwiceFromOneLastTS.
func stepTwice(t *testing.T, q string) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	stocks := f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	trades := f.insert(t, "trades",
		[]relation.Value{relation.Str("DEC"), relation.Int(10)},
		[]relation.Value{relation.Str("IBM"), relation.Int(20)},
	)
	plan := f.plan(t, q)
	p, err := NewEngine().Prepare(plan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Seed(f.store.Live(), f.store.Now()); err != nil {
		t.Fatal(err)
	}
	f.mark()

	// Modifications on both sides of the join, under one key.
	tx := f.store.Begin()
	if err := tx.Update("stocks", stocks[0], sv("DEC", 151)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("trades", trades[0], []relation.Value{relation.Str("DEC"), relation.Int(14)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := oracle(t, plan, f.ctx(t))
	versions := f.store.ChangeCounts() // what a cq round handed the engine
	for i := 0; i < 2; i++ {
		ctx := f.ctx(t)
		ctx.Versions = versions
		res, err := p.Step(ctx, f.store.Now())
		if err != nil {
			t.Fatalf("%q step %d: %v", q, i, err)
		}
		assertSameNet(t, fmt.Sprintf("%q step %d", q, i), want, res.Delta.ToSigned())
		if reseeded := res.Stats.PreTuplesScanned > 0; reseeded != (i == 1 && p.group != nil) {
			t.Errorf("%q step %d: %d pre-state tuples read", q, i, res.Stats.PreTuplesScanned)
		}
	}
}

// TestPrepareForcedStrategyErrors: no named strategy can be unrunnable —
// the plan's shape decides what differential means for it, and only
// propagate changes what an SPJ plan does — so the one preparation error
// left is a value that names no strategy.
func TestPrepareForcedStrategyErrors(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	f.insert(t, "stocks", sv("DEC", 150))
	selPlan := f.plan(t, "SELECT * FROM stocks WHERE price > 100")
	aggPlan := f.plan(t, "SELECT MIN(price) AS m FROM stocks")
	e := NewEngine()

	for _, tc := range []struct {
		plan      algebra.Plan
		requested Strategy
		want      Strategy
	}{
		{selPlan, StrategyAuto, StrategyIncremental},
		{selPlan, StrategyIncremental, StrategyIncremental},
		{selPlan, StrategyPropagate, StrategyPropagate},
		{aggPlan, StrategyAuto, StrategyPropagate},
		{aggPlan, StrategyIncremental, StrategyPropagate},
		{aggPlan, StrategyPropagate, StrategyPropagate},
	} {
		p, err := e.Prepare(tc.plan, tc.requested)
		if err != nil {
			t.Fatalf("Prepare(%T, %v): %v", tc.plan, tc.requested, err)
		}
		if p.Strategy() != tc.want {
			t.Errorf("Prepare(%T, %v) runs %v, want %v", tc.plan, tc.requested, p.Strategy(), tc.want)
		}
		p.Close()
	}
	for _, bad := range []Strategy{-1, StrategyPropagate + 1} {
		if _, err := e.Prepare(selPlan, bad); err == nil {
			t.Errorf("Prepare with strategy %d must error", int(bad))
		}
	}
}

// TestPreparedStrategyGauges: a plan's strategy is a fact of its shape,
// not a population to gauge — no dra.strategy.* instrument exists. What a
// live plan does gauge is its replica rows, which Close — once or twice —
// returns.
func TestPreparedStrategyGauges(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	f.insert(t, "stocks", sv("DEC", 150), sv("IBM", 75))
	f.insert(t, "trades", []relation.Value{relation.Str("DEC"), relation.Int(10)})
	plan := f.plan(t, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym")
	reg := obs.NewRegistry()
	e := NewEngine()
	e.Instrument(reg)

	p, err := e.Prepare(plan, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := InitialResult(plan, f.store.Live())
	f.mark()
	f.insert(t, "trades", []relation.Value{relation.Str("IBM"), relation.Int(3)})
	stepPrepared(t, f, p, plan, prev)
	if got := reg.Gauge("dra.replica.rows").Value(); got != 4 {
		t.Errorf("replica rows after one step = %d, want 4 (2 stocks + 2 trades)", got)
	}
	p.Close()
	p.Close() // closing twice must not double-decrement
	if got := reg.Gauge("dra.replica.rows").Value(); got != 0 {
		t.Errorf("replica rows after close = %d, want 0", got)
	}
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "dra.strategy.") {
			t.Errorf("metric %s is still registered", name)
		}
	}
}

// TestPlanFingerprintDistinguishesPlans: the fingerprint is stable for
// one plan and separates different shapes and schemas.
func TestPlanFingerprintDistinguishesPlans(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	p1 := f.plan(t, "SELECT * FROM stocks WHERE price > 100")
	p1again := f.plan(t, "SELECT * FROM stocks WHERE price > 100")
	p2 := f.plan(t, "SELECT * FROM stocks WHERE price > 200")
	if algebra.PlanFingerprint(p1) != algebra.PlanFingerprint(p1again) {
		t.Error("same query must fingerprint identically")
	}
	if algebra.PlanFingerprint(p1) == algebra.PlanFingerprint(p2) {
		t.Error("different predicates must fingerprint differently")
	}
}
