package dra

import (
	"fmt"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/vclock"
)

// Strategy selects how a prepared plan refreshes.
type Strategy int

const (
	// StrategyAuto picks by cost model at preparation and adaptively
	// re-picks every repickEvery refreshes.
	StrategyAuto Strategy = iota
	// StrategyTruthTable runs Algorithm 1's 2^k-1 term expansion with
	// the cross-refresh operand cache.
	StrategyTruthTable
	// StrategyIncremental processes deltas by telescoping over the same
	// operand replicas (telescopeJoin): at most one term per changed
	// operand, each probing maintained indexes only.
	StrategyIncremental
	// StrategyPropagate recomputes the query on both states and diffs —
	// the paper's complete re-evaluation, cheapest when deltas approach
	// base size.
	StrategyPropagate
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyTruthTable:
		return "truth-table"
	case StrategyIncremental:
		return "incremental"
	case StrategyPropagate:
		return "propagate"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy reads a Strategy from its String form.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "auto":
		return StrategyAuto, nil
	case "truth-table", "truthtable":
		return StrategyTruthTable, nil
	case "incremental":
		return StrategyIncremental, nil
	case "propagate":
		return StrategyPropagate, nil
	default:
		return StrategyAuto, fmt.Errorf("dra: unknown strategy %q", s)
	}
}

// Cost-model constants. The ratio threshold mirrors the paper's
// observation that differential evaluation loses to complete
// re-evaluation once the update window is a sizable fraction of the
// base; the base floor keeps the incremental structures from paying
// their maintenance overhead on tiny relations.
const (
	// propagateRatio is the delta-rows / base-rows EWMA above which a
	// refresh is cheaper recomputed from scratch.
	propagateRatio = 0.5
	// incrementalMinBase is the minimum observed base cardinality before
	// maintained replicas beat the cached truth table.
	incrementalMinBase = 64
	// repickEvery is the refresh period of the adaptive re-pick.
	repickEvery = 8
	// ratioAlpha is the EWMA weight of the newest delta/base observation.
	ratioAlpha = 0.25
)

// Prepared is the compile-once refresh pipeline for one standing query:
// the compiled plan tree (predicates, projections, join bindings, term
// metadata) and the cross-refresh operand index cache are built at
// registration and reused by every Step, so a refresh only pays for
// delta rows. A Prepared additionally owns the refresh strategy — truth
// table, incremental join, or propagate — picked by a cost model under
// StrategyAuto and re-evaluated as the workload drifts. Truth table and
// incremental read and advance the same replicas, so a re-pick between
// them keeps all state.
//
// A Prepared serves one CQ and is not safe for concurrent use; the cq
// manager serializes refreshes per instance.
type Prepared struct {
	engine *Engine
	plan   algebra.Plan
	root   *compiledNode // nil outside the SPJ class (always propagates)
	fp     uint64
	tables []string

	requested Strategy // as passed to Prepare; Auto enables re-picking
	cur       Strategy // concrete strategy in effect

	// Cost-model state: an EWMA of delta rows over observed base
	// cardinality, the last observed base size (operand replica rows;
	// stays 0 for join-free plans), and the refresh count since
	// preparation.
	ratio    float64
	baseSize int
	steps    int
	// gauged is this plan's current contribution to dra.replica.rows.
	gauged int

	closed bool
}

// Prepare compiles the plan once and picks the refresh strategy.
// strategy Auto defers to the cost model; a forced strategy the plan
// cannot run (TruthTable on a non-SPJ plan, Incremental on a plan
// without a join of two or more operands) is an error, so callers can
// fall back explicitly rather than silently.
func (e *Engine) Prepare(plan algebra.Plan, strategy Strategy) (*Prepared, error) {
	start := time.Now()
	p := &Prepared{
		engine:    e,
		plan:      plan,
		fp:        algebra.PlanFingerprint(plan),
		requested: strategy,
	}
	for _, s := range algebra.Tables(plan) {
		p.tables = append(p.tables, s.Table)
	}
	if supportsDifferential(plan) {
		root, err := compilePlan(plan)
		if err != nil {
			return nil, err
		}
		root.eachJoin(func(cj *compiledJoin) {
			cj.cache = newOpCache(e, cj)
		})
		p.root = root
	}

	switch strategy {
	case StrategyAuto:
		p.cur = p.pick()
	case StrategyTruthTable:
		if p.root == nil {
			return nil, fmt.Errorf("%w: truth-table strategy needs an SPJ plan", ErrUnsupportedPlan)
		}
		p.cur = StrategyTruthTable
	case StrategyIncremental:
		if !incrementalEligible(plan) {
			return nil, fmt.Errorf("%w: incremental strategy needs an SPJ join of two or more operands", ErrUnsupportedPlan)
		}
		p.cur = StrategyIncremental
	case StrategyPropagate:
		p.cur = StrategyPropagate
	default:
		return nil, fmt.Errorf("dra: unknown strategy %d", int(strategy))
	}

	if m := e.Metrics; m != nil {
		if g := m.strategyGauge(p.cur); g != nil {
			g.Add(1)
		}
		m.PrepareNS.Observe(time.Since(start))
	}
	return p, nil
}

// Strategy reports the concrete strategy currently in effect.
func (p *Prepared) Strategy() Strategy { return p.cur }

// Fingerprint identifies the compiled plan shape (algebra.PlanFingerprint).
func (p *Prepared) Fingerprint() uint64 { return p.fp }

// Tables returns the plan's operand set — the base tables whose deltas
// can change the result. This is the routing key of push-based refresh:
// the commit router indexes each prepared CQ under exactly these names,
// so a committed delta reaches precisely the plans it can affect.
func (p *Prepared) Tables() []string {
	out := make([]string, len(p.tables))
	copy(out, p.tables)
	return out
}

// Close releases the prepared state: the strategy gauge unit and the
// operand replicas. The Prepared must not be stepped afterwards.
func (p *Prepared) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if m := p.engine.Metrics; m != nil {
		if g := m.strategyGauge(p.cur); g != nil {
			g.Add(-1)
		}
	}
	p.dropReplicas()
}

// dropReplicas discards every join group's operand replicas.
func (p *Prepared) dropReplicas() {
	if p.root != nil {
		p.root.dropReplicas()
	}
	p.gaugeReplicas()
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
// order across join groups. Like Step it must not run concurrently
// with a Step of the same Prepared.
func (p *Prepared) Replicas() []ReplicaStat {
	if p.root == nil {
		return nil
	}
	var out []ReplicaStat
	p.root.eachJoin(func(cj *compiledJoin) {
		for i, ent := range cj.cache.ents {
			st := ReplicaStat{Operand: cj.cache.tables[i]}
			if st.Operand == "" {
				st.Operand = fmt.Sprintf("operand %d", i)
			}
			if ent != nil {
				st.Rows, st.Indexes = ent.live, len(ent.keys)
			}
			out = append(out, st)
		}
	})
	return out
}

// gaugeReplicas brings dra.replica.rows in line with the replicas the
// plan holds right now and returns their row total.
func (p *Prepared) gaugeReplicas() int {
	rows := 0
	if p.root != nil {
		p.root.eachJoin(func(cj *compiledJoin) {
			for _, ent := range cj.cache.ents {
				if ent != nil {
					rows += ent.live
				}
			}
		})
	}
	if m := p.engine.Metrics; m != nil {
		m.ReplicaRows.Add(int64(rows - p.gauged))
	}
	p.gauged = rows
	return rows
}

// Step runs one refresh over the window in ctx, producing the signed
// change at execTS. All strategies produce the same net change; they
// differ only in cost.
func (p *Prepared) Step(ctx *Context, execTS vclock.Timestamp) (*Result, error) {
	if p.closed {
		return nil, fmt.Errorf("dra: Step on closed Prepared")
	}
	p.steps++
	if p.requested == StrategyAuto && p.steps%repickEvery == 0 {
		p.repick()
	}

	var res *Result
	var err error
	if p.cur == StrategyPropagate {
		res, err = p.engine.evaluate(p.plan, nil, ctx, execTS, false)
	} else {
		res, err = p.engine.evaluate(p.plan, p.root, ctx, execTS, p.cur == StrategyIncremental)
	}
	base := p.gaugeReplicas() // on failure too: a failed refresh drops them
	if err != nil {
		return nil, err
	}
	p.observeCost(ctx, base)
	return res, nil
}

// pick applies the cost model to the current state.
func (p *Prepared) pick() Strategy {
	if p.root == nil {
		return StrategyPropagate
	}
	if p.baseSize > 0 && p.ratio > propagateRatio {
		return StrategyPropagate
	}
	if p.baseSize >= incrementalMinBase && incrementalEligible(p.plan) && p.fullyEquiConnected() {
		return StrategyIncremental
	}
	return StrategyTruthTable
}

// fullyEquiConnected reports that every join group's graph can be grown
// entirely over equi-key probes — the shape where maintained hash
// indexes pay off and cross products never appear.
func (p *Prepared) fullyEquiConnected() bool {
	ok := true
	p.root.eachJoin(func(cj *compiledJoin) {
		if cj.equiCoverage() < 1 {
			ok = false
		}
	})
	return ok
}

// repick re-runs the cost model and switches strategies when the answer
// changed.
func (p *Prepared) repick() {
	next := p.pick()
	if next == p.cur {
		return
	}
	p.setStrategy(next)
	if m := p.engine.Metrics; m != nil {
		m.Repicks.Inc()
	}
}

// setStrategy moves the gauge unit. Truth table and incremental share
// the operand replicas, so switching between them keeps all state;
// propagate maintains none, so entering it frees them (a later return
// rebuilds from the pre-state snapshot, one propagate step's cost).
func (p *Prepared) setStrategy(next Strategy) {
	if m := p.engine.Metrics; m != nil {
		if g := m.strategyGauge(p.cur); g != nil {
			g.Add(-1)
		}
		if g := m.strategyGauge(next); g != nil {
			g.Add(1)
		}
	}
	if next == StrategyPropagate {
		p.dropReplicas()
	}
	p.cur = next
}

// observeCost folds this refresh's window size into the cost-model
// state. Base size is the operand replicas' row count (base),
// remembered across stretches that maintain none (propagate,
// irrelevant windows). A
// join-free plan has no replicas and so never observes a base: its
// differential refresh is O(|ΔR|) against propagate's two O(|R|) scans
// at any window size, and the only size in reach — the previous result —
// says nothing about |R| (a selective filter over a large table would
// read as a tiny base and flip to propagate).
func (p *Prepared) observeCost(ctx *Context, base int) {
	if base > 0 {
		p.baseSize = base
	}
	if p.baseSize == 0 {
		return
	}
	deltaRows := 0
	for _, t := range p.tables {
		if d := ctx.Deltas[t]; d != nil {
			deltaRows += d.Len()
		}
	}
	p.ratio = (1-ratioAlpha)*p.ratio + ratioAlpha*(float64(deltaRows)/float64(p.baseSize))
}

// incrementalEligible reports that the plan has the head shape the
// incremental strategy is offered for: an SPJ tree whose root (under an
// optional projection) is a join of at least two operands.
func incrementalEligible(plan algebra.Plan) bool {
	if !supportsDifferential(plan) {
		return false
	}
	root := plan
	if pp, ok := root.(*algebra.ProjectPlan); ok {
		root = pp.Input
	}
	j, ok := root.(*algebra.JoinPlan)
	if !ok {
		return false
	}
	ops, _, err := flatten(j)
	return err == nil && len(ops) >= 2
}
