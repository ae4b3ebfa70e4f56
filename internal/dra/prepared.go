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
	// telescopes over its operand replicas (telescopeJoin): at most one
	// term per changed operand, each probing maintained indexes only. An
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
// bindings, term plans) and each join group's operand replicas; for an
// aggregate or DISTINCT plan a group table, seeded by Seed, over its
// compiled SPJ input. Any other plan, or one forced onto
// StrategyPropagate, keeps nothing and re-evaluates completely.
//
// What a plan keeps is at one position, the timestamp of its last
// execution (position): Seed sets it, a Step moves it, a failed Step
// clears it, and a Step from any other timestamp first re-seeds at its
// ctx.LastTS from ctx.Pre — a Prepared never seeded, the retry of a
// refresh that failed after its step, a deliberate gap. A join-free SPJ
// plan and complete re-evaluation keep no state and check nothing.
//
// A Prepared serves one CQ and is not safe for concurrent use; the cq
// manager serializes refreshes per instance.
type Prepared struct {
	engine *Engine
	plan   algebra.Plan
	root   *compiledNode // the differential SPJ tree, or nil
	group  *groupTable   // the aggregate or DISTINCT table, or nil
	tables []string

	// pos is where the join replicas under root are.
	pos position
	// gauged is this plan's current contribution to dra.replica.rows.
	gauged int
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
	switch {
	case strategy == StrategyPropagate:
	case supportsDifferential(plan):
		root, err := compilePlan(plan)
		if err != nil {
			return nil, err
		}
		root.attachReplicas()
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

// Close releases the operand replicas and group table and their shares
// of dra.replica.rows and dra.agg.groups. The Prepared must not be
// stepped afterwards.
func (p *Prepared) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.group != nil {
		p.group.Close()
	}
	if p.root != nil {
		p.root.dropReplicas()
	}
	p.engine.gaugeReplicas(p.root, &p.gauged)
}

// ReplicaStat describes one join operand's maintained state.
type ReplicaStat struct {
	// Operand names the operand: its base table, or its position in the
	// join when the operand subtree reads several.
	Operand string
	// Rows is the replica's live row count; Indexes the number of key
	// sets it keeps a hash index on (the tid table not counted). Both
	// are zero while the replica is not built.
	Rows    int
	Indexes int
}

// Replicas reports the state the plan keeps per join operand, in plan
// order across join groups — the SPJ tree's, or the group table's input's.
// Like Step it must not run concurrently with a Step of the same Prepared.
func (p *Prepared) Replicas() []ReplicaStat {
	if p.group != nil {
		return p.group.Replicas()
	}
	return p.root.replicaStats()
}

// Groups reports the live group count of an aggregate or DISTINCT plan's
// group table; ok is false for any other plan.
func (p *Prepared) Groups() (n int, ok bool) {
	if p.group == nil {
		return 0, false
	}
	return p.group.Groups(), true
}

// replicaStats reports the operand replicas of every join group in the
// tree, in plan order; nil for a join-free (or absent) tree.
func (n *compiledNode) replicaStats() []ReplicaStat {
	if n == nil {
		return nil
	}
	var out []ReplicaStat
	n.eachJoin(func(cj *compiledJoin) {
		for i, ent := range cj.cache.ents {
			st := ReplicaStat{Operand: cj.cache.tables[i]}
			if st.Operand == "" {
				st.Operand = fmt.Sprintf("operand %d", i)
			}
			if ent != nil {
				st.Rows, st.Indexes = ent.t.Len(), len(ent.keys)
			}
			out = append(out, st)
		}
	})
	return out
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
// What the plan keeps — a join's operand replicas, a group table filled
// from the same pass — is then at ts, so the first Step from ts probes
// it as it is. A plan on complete re-evaluation executes over src's
// relations and keeps nothing.
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
		t, err := p.engine.seed(p.root, ctx)
		p.pos.set(ts, err)
		p.engine.gaugeReplicas(p.root, &p.gauged)
		return t, err
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
// which allocates nothing either. A non-empty change is rendered once,
// into a Delta that belongs to this refresh alone: what the caller
// handed out from an earlier step into res — its Delta, a notification
// built on it — stays as it was. On error res holds no change.
func (p *Prepared) StepInto(ctx *Context, execTS vclock.Timestamp, res *Result) error {
	if p.closed {
		return fmt.Errorf("dra: Step on closed Prepared")
	}
	if p.group != nil {
		return p.group.StepInto(ctx, execTS, res)
	}
	res.reset(execTS)
	if p.root == nil || p.root.replicaCount() == 0 {
		return p.engine.evaluate(p.plan, p.root, ctx, res, true)
	}
	err := p.pos.resume(ctx, p.plan, p.root, &res.Stats, func(sctx *Context) error {
		_, err := p.engine.seed(p.root, sctx)
		return err
	})
	if err == nil {
		err = p.engine.evaluate(p.plan, p.root, ctx, res, true)
	}
	p.pos.set(execTS, err)
	p.engine.gaugeReplicas(p.root, &p.gauged)
	return err
}
