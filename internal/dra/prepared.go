package dra

import (
	"errors"
	"fmt"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/vclock"
)

// Strategy names how a prepared plan refreshes. The plan's shape decides,
// once, at Prepare: there is one way to run each shape, so nothing is
// picked, measured or re-picked afterwards.
type Strategy int

const (
	// StrategyAuto lets the shape decide: an SPJ plan, and an aggregate
	// or DISTINCT plan a group table keeps, refresh differentially
	// (StrategyIncremental); anything else by complete re-evaluation
	// (StrategyPropagate).
	StrategyAuto Strategy = iota
	// StrategyIncremental is the differential refresh: a join-free
	// subtree is a view over its scan's window (selection), a join group
	// telescopes over the engine's arrangements of its tables
	// (telescopeJoin): at most one term per changed operand, each probing
	// maintained indexes only. An
	// aggregate (SUM / COUNT / AVG without HAVING) or DISTINCT over such
	// an SPJ input folds the input's signed delta into a group table and
	// reads its change off the groups touched. Requested for any other
	// plan it is StrategyAuto.
	StrategyIncremental
	// StrategyPropagate is the paper's complete re-evaluation: the query
	// runs on the post state and the change is its difference from the
	// previous result. It is what MIN, MAX, HAVING, ORDER BY/LIMIT get,
	// and the baseline every other plan can be forced onto.
	StrategyPropagate
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyIncremental:
		return "incremental"
	case StrategyPropagate:
		return "propagate"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Prepared is the one evaluator of a standing query, on the server and
// in a client mirror alike: Seed runs the initial execution, and every
// refresh after it is one Step (Section 4.2). What it keeps is compiled
// once and reused by every Step, so a refresh only pays for delta rows:
// for an SPJ plan the compiled tree (predicates, projections, join
// bindings, term plans) attached to the engine's arrangements of the
// tables it joins; for an aggregate or DISTINCT plan a group table,
// seeded by Seed, over its compiled SPJ input. Any other plan, or one
// forced onto StrategyPropagate, keeps nothing and re-evaluates
// completely.
//
// An SPJ plan has no state and no position of its own: its joins read
// the shared arrangements at whatever states a step needs (telescopeJoin),
// so a Step runs from any ctx.LastTS — the retry of a failed refresh, a
// lagging trigger, a deliberate gap — without re-seeding. A group
// table's groups are at one position instead, the timestamp of its last
// execution (position): Seed sets it, a Step moves it, a failed Step
// clears it, and a Step from any other timestamp first re-seeds it at
// ctx.LastTS from ctx.Pre.
//
// A Prepared serves one CQ and is not safe for concurrent use; the cq
// manager serializes refreshes per instance. Plans sharing an engine
// step concurrently: the arrangements they share lock themselves.
type Prepared struct {
	engine *Engine
	plan   algebra.Plan
	root   *compiledNode // the differential SPJ tree, or nil
	group  *groupTable   // the aggregate or DISTINCT table, or nil
	tables []string

	// none is the empty change every Result Step returns shares.
	none *delta.Delta

	closed bool
}

// Prepare compiles the plan once. Whatever strategy names, every plan
// can run it: only StrategyPropagate changes what an SPJ, aggregate or
// DISTINCT plan does.
func (e *Engine) Prepare(plan algebra.Plan, strategy Strategy) (*Prepared, error) {
	start := time.Now()
	if strategy < StrategyAuto || strategy > StrategyPropagate {
		return nil, fmt.Errorf("dra: unknown strategy %d", int(strategy))
	}
	p := &Prepared{
		engine: e,
		plan:   plan,
	}
	for _, s := range algebra.Tables(plan) {
		p.tables = append(p.tables, s.Table)
	}
	var root *compiledNode
	if strategy != StrategyPropagate && supportsDifferential(plan) {
		var err error
		if root, err = compilePlan(plan); err != nil && !errors.Is(err, ErrUnsupportedPlan) {
			return nil, err
		}
	}
	switch {
	case strategy == StrategyPropagate:
	case root != nil:
		e.attach(root)
		p.root = root
	default:
		g, err := newGroupTable(e, plan)
		if err != nil && !errors.Is(err, ErrNotIncremental) {
			return nil, err
		}
		p.group = g
	}
	if m := e.Metrics; m != nil {
		m.PrepareNS.Observe(time.Since(start))
	}
	return p, nil
}

// Strategy reports what the plan runs: StrategyIncremental or
// StrategyPropagate, fixed at Prepare.
func (p *Prepared) Strategy() Strategy {
	if p.root != nil || p.group != nil {
		return StrategyIncremental
	}
	return StrategyPropagate
}

// Tables returns the plan's operand set — the base tables whose deltas
// can change the result. This is the routing key of push-based refresh:
// the commit router indexes each prepared CQ under exactly these names,
// so a committed delta reaches precisely the plans it can affect.
func (p *Prepared) Tables() []string {
	out := make([]string, len(p.tables))
	copy(out, p.tables)
	return out
}

// Close detaches the plan from its arrangements — the last plan on one
// drops it, with its share of dra.replica.rows and dra.replica.bytes —
// and releases the group table and its share of dra.agg.groups. The
// Prepared must not be stepped afterwards.
func (p *Prepared) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.group != nil {
		p.group.Close()
	}
	if p.root != nil {
		p.engine.detach(p.root)
	}
}

// ReplicaStat describes the state one join operand reads: the engine's
// arrangement of its table.
type ReplicaStat struct {
	// Operand names the operand's base table.
	Operand string
	// Rows is the arrangement's live row count — the whole table, which
	// the operand's filter reads through at probe time; Indexes the
	// number of key sets it keeps a hash index on (the tid table not
	// counted). Both are zero while the arrangement is not built.
	Rows    int
	Indexes int
	// Shared is the number of prepared plans attached to the
	// arrangement, this one included.
	Shared int
}

// Replicas reports the arrangement each join operand reads, in plan
// order — the SPJ tree's, or the group table's input's.
func (p *Prepared) Replicas() []ReplicaStat {
	if p.group != nil {
		return p.group.Replicas()
	}
	return p.engine.replicaStats(p.root)
}

// Groups reports the live group count of an aggregate or DISTINCT plan's
// group table; ok is false for any other plan.
func (p *Prepared) Groups() (n int, ok bool) {
	if p.group == nil {
		return 0, false
	}
	return p.group.Groups(), true
}

// Seed runs the query's initial execution as of ts over src and returns
// the result as a fresh batch.Table, which the caller owns and keeps
// current through every Step's Result (Result.Fits, then
// Result.Maintain); src must hold the operand tables as they
// stood at ts. The initial execution is the differential step from the
// empty state with every ΔR = R (seed.go): the plan's own kernels run
// over one all-insert columnar image per table — src's own
// (storage.HistoricView, shared per timestamp when it is a window
// cache's), or converted from its relations — and the output is copied
// typed into the table's slots, so the result references none of it.
// An arrangement no plan has built yet is built from the same images,
// at ts; one already built is read at ts with a correction, read through
// src when it is a storage.HistoricView (WindowSource). A group table is
// filled from the same pass and is then at ts. A plan on complete
// re-evaluation executes over src's relations and keeps nothing.
func (p *Prepared) Seed(src algebra.Source, ts vclock.Timestamp) (*batch.Table, error) {
	if p.closed {
		return nil, fmt.Errorf("dra: Seed on closed Prepared")
	}
	switch {
	case p.group != nil:
		ctx, err := seedContext(src, p.group.input, ts)
		if err == nil {
			err = p.group.seed(ctx)
		}
		if err != nil {
			return nil, err
		}
		return p.group.table()
	case p.root != nil:
		ctx, err := seedContext(src, p.plan, ts)
		if err != nil {
			return nil, err
		}
		return p.engine.seed(p.root, ctx)
	default:
		rel, err := InitialResult(p.plan, src)
		if err != nil {
			return nil, err
		}
		return tableOf(rel)
	}
}

// Step runs one refresh over the window in ctx, producing the change at
// execTS in a fresh Result. Under complete re-evaluation ctx.Prev must
// be the query's result at ctx.LastTS exactly — it diffs against it
// instead of running the query on the pre-state too — and ctx.Post the
// state at execTS; when Strategy is StrategyIncremental neither is read,
// and both may be left nil.
func (p *Prepared) Step(ctx *Context, execTS vclock.Timestamp) (*Result, error) {
	res := &Result{none: p.none}
	if err := p.StepInto(ctx, execTS, res); err != nil {
		return nil, err
	}
	p.none = res.none
	return res, nil
}

// StepInto is Step into a Result the caller holds and reuses, refresh
// after refresh, under the lock that serializes its steps (a cq
// instance's, a template group's): res is overwritten with this
// refresh's change, so the header is allocated once per holder, not once
// per refresh, and an empty change is res's own read-only empty Delta,
// which allocates nothing either. A non-empty change is a Delta that
// belongs to this refresh alone — rendered once, now or, for a
// selection over the round's shared image, on its first row read (see
// Result): what the caller handed out from an earlier step into res —
// its Delta, a notification built on it — stays as it was. On error res
// holds no change.
func (p *Prepared) StepInto(ctx *Context, execTS vclock.Timestamp, res *Result) error {
	if p.closed {
		return fmt.Errorf("dra: Step on closed Prepared")
	}
	if p.group != nil {
		return p.group.StepInto(ctx, execTS, res)
	}
	res.reset(execTS)
	return p.engine.evaluate(p.plan, p.root, ctx, res)
}
