// Package dra implements the Differential Re-evaluation Algorithm of
// Section 4 of the paper: re-evaluating a continual query over the
// differential relations of its operands instead of rescanning the base
// data.
//
// # Algorithm
//
// For an SPJ query Q = π_X(σ_F(R1 ⋈ ... ⋈ Rn)), let ΔRi be the
// differential relation window of operand i since the last execution and
// let k be the number of changed operands. Algorithm 1 of the paper
// builds a truth table with 2^k rows; every row except all-zeros selects
// a non-empty subset S of changed operands and contributes the term
//
//	π_X(σ_F( ⋈_{i∈S} ΔRi  ⋈  ⋈_{i∉S} Ri ))
//
// where the unsubstituted operands are taken at their state as of the
// last execution. Treating each ΔRi as a signed multiset (insert = +1,
// delete = -1, modification = -old +new) and multiplying signs across a
// join makes the union of the 2^k−1 terms exactly the net change of the
// query result under general updates — the distributivity identity
//
//	(R1+ΔR1) ⋈ (R2+ΔR2) = R1⋈R2 + ΔR1⋈R2 + R1⋈ΔR2 + ΔR1⋈ΔR2
//
// generalized to n operands. Selections and projections commute with the
// signed representation row by row: they are linear, so their
// incremental form keeps no state and builds no structure. A join-free
// subtree [Project(bare columns)]([Select](Scan)) is therefore evaluated
// as a view of its scan's window — surviving row indices and a column
// map over the batch every CQ of the round shares (selView) — which the
// root nets by adjacent -old/+new pair straight into result rows and
// which a join operand copies out once. A join-free refresh is one pass
// over the window.
//
// The relevant-update refinement of Section 5.2 falls out of the same
// pass: when every operand's filtered window is empty the refresh is
// reported as skipped (Stats.Skipped) — there was nothing further to
// run. The package also provides Propagate, the paper's complete
// re-evaluation reference operator (run Q on both states and Diff), used
// by the equivalence proofs in the test suite and by the benchmark
// baselines.
//
// A standing query holds one evaluator, Prepared, wherever it runs: the
// cq manager's CQs and template groups on the server, and
// remote.MirrorCQ on a client (Section 6). Engine.Prepare compiles the
// plan once, Prepared.Seed runs the initial execution — the same
// kernels' step from the empty state, every operand entering as an
// all-insert columnar image (ΔR = R) — and every refresh is one
// Prepared.Step. Joins have two kernels, chosen by what the
// caller is. Reevaluate is the paper's stateless Algorithm 1: the truth
// table above, every unchanged operand's pre-state executed from the
// last-execution snapshot; it serves one-shot callers (baselines,
// experiments, tests). Prepared keeps a replica per join operand and
// telescopes over them instead (telescopeJoin): the same net change in
// at most one term per changed operand, O(|ΔR|) per refresh.
//
// Aggregate and DISTINCT queries are outside the SPJ class that
// Algorithm 1 covers ("limited to SPJ expressions"). Prepare keeps the
// shapes that allow it — SUM / COUNT / AVG without HAVING, and DISTINCT,
// over an SPJ input — in a group table (groupTable) that folds the
// input's signed delta, seeded by Seed from the same pass as the initial
// result; MIN, MAX, HAVING and the rest are recomputed completely
// (Propagate). IncrementalAggregate and IncrementalDistinct are the same
// table stand-alone, and the cq package maintains aggregate trigger
// state differentially per Section 5.3.
package dra

import (
	"errors"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Errors returned by the engine.
var (
	ErrUnsupportedPlan = errors.New("dra: plan node not supported by differential evaluation")
	ErrNoPrev          = errors.New("dra: previous result required")
)

// Context carries the inputs of Algorithm 1:
//
//	(i)   the CQ definition        — the plan passed to Reevaluate;
//	(ii)  base contents at the last execution — Pre;
//	(iii) the differential relations           — Deltas or Batches (window > last ts);
//	(iv)  the timestamp of the last execution  — LastTS;
//	(v)   the previous complete result         — Prev.
//
// Pre is read only where a refresh must rebuild state: the re-seed of a
// stateful Prepared whose position is not LastTS (never seeded, last
// step failed, or stepped from elsewhere), a truth-table term's
// pre-state, and the query on both states under unprepared Reevaluate.
// A rebuild reads Pre the way Seed reads its source: as one columnar
// image per table, the source's own when it has a TableImage method
// (storage.HistoricView), converted from its relations otherwise. A caller that keeps its own copy of the base
// tables hands them here as they stand at LastTS. Post is the current contents, needed by complete
// re-evaluation and by result verification; a Prepared whose Strategy is
// StrategyIncremental never reads it.
//
// The engine keeps no reference to a Context, nor to its Pre and Post
// sources or its maps, once Step (or Reevaluate) returns: a caller may
// reuse one Context, refilling it in place, for every refresh of its
// evaluator. Windows and batches it carries are only read; the Result
// references none of them.
type Context struct {
	Pre    algebra.Source
	Post   algebra.Source
	Deltas map[string]*delta.Delta
	LastTS vclock.Timestamp
	Prev   *relation.Relation

	// Compacted declares that the windows are already folded to their
	// net per-tid effect, so a CompactDeltas engine must not compact them
	// again. The cq scheduler sets this when it hands the window cache's
	// compacted images to many CQs.
	Compacted bool

	// Versions is never read: a Prepared's state is valid at its one
	// position, whatever the change counters say. The field stays
	// declared only for a reader outside this module's serving path (the
	// repo benchmark's replay) that still sets it.
	Versions map[string]uint64

	// Batches optionally carries prebuilt columnar images of the
	// windows — the rows of the window's delta, in the same order —
	// built once (storage.WindowCache) and shared read-only by every CQ
	// refreshing over the window. The scan reads them as zero-copy views
	// instead of converting the row window per CQ, provided no further
	// compaction would apply (CompactDeltas off, or Compacted set). A
	// table missing from Batches scans Deltas' entry, and one missing
	// from both scans as an empty window. "Same rows, same order" is
	// load-bearing under Compacted: a selection nets its window by
	// adjacent -old/+new pair (netView), so the image must be the
	// compacted window row for row.
	Batches map[string]*batch.Batch

	// Deadline bounds the step (a refresh budget). The kernels check it
	// at batch boundaries — each join step, every guard.CheckRows rows a
	// cross or hash step probes or emits and of the group-table fold;
	// on complete re-evaluation, every guard.CheckRows rows the row
	// executor scans or joins and after each plan node — and fail the
	// step with guard.ErrBudgetExceeded once it has passed; the failed
	// step clears the plan's position, so nothing is left to undo. A
	// re-seed runs outside it (position.resume). The zero value sets no
	// bound and reads no clock.
	Deadline time.Time
}

// Stats records the work of one differential re-evaluation, consumed by
// the benchmark harness.
type Stats struct {
	// Terms is the number of join terms evaluated: per join group, one
	// per changed operand under the telescoping kernel of a prepared
	// plan, one per non-empty truth-table row (up to 2^k - 1) under
	// unprepared Reevaluate.
	Terms int
	// DeltaRows is the total number of signed window rows the scans of a
	// relevant refresh read. A skipped refresh reports zero although it
	// scanned its windows to find that out: the counter (and
	// dra.delta_rows_consumed, the denominator of the benchmark's
	// pre-tuples-per-delta-row) means rows that fed an evaluation, as it
	// did when a separate pre-pass made the call.
	DeltaRows int
	// PreTuplesScanned counts tuples read from pre-states: a truth-table
	// term's unchanged operands, and every image row a re-seed reads
	// (dra.pre_tuples_scanned is the re-seed meter of a standing query).
	PreTuplesScanned int
	// FellBack reports complete re-evaluation: the plan is outside the
	// SPJ class, or was prepared with StrategyPropagate.
	FellBack bool
	// Skipped reports that the window was irrelevant (Section 5.2): every
	// maximal join-free subtree of the plan — the root of a join-free
	// plan, each join-free operand of a join group — filtered its window
	// to nothing, so no term ran, no pre-state was read, and the net
	// change is empty. The plan's position still moves to the refresh's
	// timestamp.
	Skipped bool
	// IndexCacheHits counts the operand replicas a step found at its
	// LastTS (the plan's position) and served as they were; IndexCacheMisses
	// counts the replicas a re-seed built and first-time index builds.
	// Both stay zero on the unprepared Reevaluate path.
	IndexCacheHits   int
	IndexCacheMisses int
	// JoinProbeRows counts in-progress join rows that entered a join
	// step of the columnar kernels (index probe or cross product);
	// JoinEmitRows counts the signed rows the join terms emitted before
	// netting. Their ratio is the refresh's probe fan-out.
	JoinProbeRows int
	JoinEmitRows  int
	// GroupsTouched counts the groups an aggregate or DISTINCT
	// maintainer's fold reached this refresh; GroupRowsEmitted the signed
	// output rows it rendered from them. Both stay zero for SPJ plans.
	GroupsTouched    int
	GroupRowsEmitted int
}

// Engine evaluates differential forms of SPJ plans over typed columnar
// batches (internal/batch): operand windows are signed column batches,
// selection produces selection indices over them, bare-column projection
// is a column map, join terms probe the operand replicas' flat indexes,
// all over a pooled arena. The store's write boundary (relation.Schema.Conform) guarantees
// that every stored value fits its column, so a window value that does
// not is an invariant violation: the refresh fails with an error
// wrapping relation.ErrTypeMismatch, and the plan re-seeds on its next
// step.
// Every engine runs the three Section 5.2 refinements: terms join
// delta-first and select before they join, equi-join steps probe hash
// indexes, and a refresh whose filtered windows are all empty is
// reported as skipped (Stats.Skipped).
type Engine struct {
	// CompactDeltas folds each operand's delta window to its net effect
	// before evaluation (A2).
	CompactDeltas bool
	// pool recycles batch and selection buffers across refreshes; it is
	// sync.Pool-backed, so concurrent refresh workers share it safely.
	// Nil (zero-value engines in tests) degrades to plain allocation.
	pool *batch.Pool

	// Metrics accumulates per-call Stats into the engine-wide obs
	// registry and records a span per Reevaluate. Nil (the default)
	// leaves the engine uninstrumented; see Instrument.
	//
	// Per-call stats live in Result.Stats, owned by the caller; the
	// engine keeps no mutable evaluation state of its own, which is
	// what lets one engine serve concurrent refresh workers.
	Metrics *Metrics
}

// NewEngine returns an engine that compacts delta windows.
func NewEngine() *Engine {
	return &Engine{CompactDeltas: true, pool: batch.NewPool()}
}

// Result is the outcome of one differential re-evaluation: the net
// change of the query result, rendered once, as the paper's
// differential relation (Delta). Invariant, kept by every producer (both
// nettings, Diff behind the propagate arms, the group table, the cq
// template fold) and relied on by result maintenance (Fits, Maintain,
// ApplyTo) and by the cq notification read straight off Delta: Delta
// holds each tid at most once, as one insert, delete or modify row.
//
// A non-empty Delta belongs to the refresh that produced it — its rows
// and values on fresh backing, never pooled or reused memory — so a
// caller may keep it, or anything it references, for as long as it
// likes. An empty change is the Result's own empty Delta, allocated
// once per Result and reported by every empty refresh stepped into it
// (Prepared.StepInto): it is read-only, and nothing may append to it.
// A holder that steps into one Result refresh after refresh therefore
// allocates nothing for a refresh whose change is empty.
type Result struct {
	// Signed is never set: Delta is the change. The field stays declared
	// only for a reader outside this module's serving path (the repo
	// benchmark's replay) that still checks it for nil.
	Signed *delta.Signed
	// Delta is the change in differential-relation form (modifications
	// paired), rows stamped with ExecTS.
	Delta *delta.Delta
	// ExecTS is the timestamp assigned to this execution.
	ExecTS vclock.Timestamp
	// Stats is the work of this evaluation, owned by the caller, so it
	// stays coherent when one engine serves concurrent re-evaluations.
	Stats Stats

	// materialized is set when the evaluation already produced the full
	// result (complete re-evaluation); ApplyTo then returns it directly.
	materialized *relation.Relation
	// full is materialized written into a result table, in its order, by
	// Fits; Maintain returns it.
	full *batch.Table
	// none is the Result's empty change, kept across the steps into it.
	none *delta.Delta
}

// Set makes rows — a netted change over schema at execTS, each tid at
// most once — the Result's whole content, adopting the slice: how a
// producer outside the engine (the cq template fold) reports into a
// Result it holds. No rows reports the Result's own empty Delta.
func (r *Result) Set(execTS vclock.Timestamp, schema relation.Schema, rows []delta.Row) {
	r.reset(execTS)
	r.setRows(schema, rows)
}

// Clear drops the change and everything else the last step left in r
// but its empty Delta, so a holder that is done with a refresh pins none
// of its output while it waits for the next.
func (r *Result) Clear() { r.reset(0) }

// reset readies r for a step at execTS, keeping only its empty Delta.
func (r *Result) reset(execTS vclock.Timestamp) {
	*r = Result{ExecTS: execTS, none: r.none}
}

// setRows reports rows as the change: adopted as they are, or the
// Result's empty Delta when there are none.
func (r *Result) setRows(schema relation.Schema, rows []delta.Row) {
	if len(rows) > 0 {
		r.Delta = delta.FromRows(schema, rows)
		return
	}
	if r.none == nil {
		r.none = delta.New(schema)
	}
	r.Delta = r.none
}

// ApplyTo maintains the complete result (Section 4.3: Et_i(Q) ∪
// insertions − deletions): it applies the change to prev IN PLACE — an
// O(|Δ|) operation, which is the whole point of differential maintenance
// — and returns it. Callers that still need the old result must clone it
// first. Calling ApplyTo more than once on the same Result is incorrect.
//
// ApplyTo is the paper-facing form, over a relation.Relation: the
// baselines, the tests and the benchmark's replay use it. An insert or
// modification upserts its new half (a modification in place), a
// deletion removes its tid. prev keeps the new halves' value slices as
// they are, which reference this Result's Delta, so a relation
// maintained this way pins every refresh output one of its rows came
// from. A standing query's result is a batch.Table instead, which takes
// the change by typed writes (Fits, then Maintain) and references none
// of it.
func (r *Result) ApplyTo(prev *relation.Relation) *relation.Relation {
	if r.materialized != nil {
		return r.materialized
	}
	for _, row := range r.Delta.Rows() {
		if row.New != nil {
			_ = prev.Upsert(relation.Tuple{TID: row.TID, Values: row.New})
		} else {
			_ = prev.Delete(row.TID) // an absent tid has nothing to remove
		}
	}
	return prev
}

// Fits is the conformance check of Maintain: whether the result table
// t can take this refresh, a value its column cannot hold failing it
// with an error wrapping relation.ErrTypeMismatch. A standing query runs
// it before anything of the refresh commits or journals, and Maintain
// after. Under complete re-evaluation it writes the new result, in the
// evaluation's order, into the fresh table Maintain returns.
func (r *Result) Fits(t *batch.Table) error {
	if r.materialized == nil {
		return t.Fits(r.Delta)
	}
	if r.full == nil {
		full, err := tableOf(r.materialized)
		if err != nil {
			return err
		}
		r.full = full
	}
	return nil
}

// Maintain is ApplyTo over a standing query's result table (Section
// 4.3: Et_i(Q) ∪ insertions − deletions), after Fits has passed. It
// writes the change typed into t's slots (batch.Table.Apply), O(|Δ|),
// and returns t. Under complete re-evaluation it returns instead the
// table Fits filled from the full result: that arm is O(|R|) already,
// and the evaluation's order — a sorted plan's ORDER BY order — is the
// result's, which writes into freed slots would not keep.
func (r *Result) Maintain(t *batch.Table) *batch.Table {
	if r.materialized == nil {
		t.Apply(r.Delta)
		return t
	}
	if r.full == nil {
		panic("dra: Result.Maintain before Fits")
	}
	return r.full
}

// Reevaluate computes the result of the current execution of the query
// differentially, compiling the plan transiently per call and keeping
// nothing afterwards: this is Algorithm 1 as the paper states it — join
// groups by the 2^k-1 truth-table expansion over the pre-state snapshot —
// with Propagate (the query on both states) for plans outside the SPJ
// class. ctx.Prev must be non-nil but need not be the exact previous
// result. Standing queries Prepare once and Step instead.
//
// Reevaluate is safe for concurrent use: stats accumulate into a
// per-call value (returned in Result.Stats) and the context is only
// read, so the cq scheduler's refresh workers share one engine.
func (e *Engine) Reevaluate(plan algebra.Plan, ctx *Context, execTS vclock.Timestamp) (*Result, error) {
	var root *compiledNode
	if supportsDifferential(plan) {
		r, err := compilePlan(plan)
		if err != nil {
			return nil, err
		}
		root = r
	}
	res := &Result{ExecTS: execTS}
	if err := e.evaluate(plan, root, ctx, res, false); err != nil {
		return nil, err
	}
	return res, nil
}

// evaluate is the refresh core shared by Reevaluate (transient compile
// per call) and Prepared.StepInto (compile once at registration): the
// differential evaluation when root is non-nil, complete re-evaluation
// otherwise, into res, which the caller has reset to the execution's
// timestamp. exactPrev vouches that ctx.Prev is the query's result on
// ctx.Pre, so complete re-evaluation is one execution over ctx.Post and
// a Diff; without it the query runs on both states.
func (e *Engine) evaluate(plan algebra.Plan, root *compiledNode, ctx *Context, res *Result, exactPrev bool) error {
	if ctx.Prev == nil && !(root != nil && exactPrev) {
		// Algorithm 1's input (v): Reevaluate takes it as the paper does,
		// complete re-evaluation diffs against it; only a prepared
		// differential step never reads it.
		return ErrNoPrev
	}
	var span *obs.Span
	var start time.Time
	if m := e.Metrics; m != nil {
		start = time.Now()
		span = m.startSpan()
	}

	var err error
	switch {
	case root != nil:
		err = e.vecEvaluate(root, ctx, res)
	case exactPrev:
		err = fullReevaluate(plan, ctx.Post, ctx.Prev, res, ctx.Deadline)
	default:
		// Diff output: each tid at most once already.
		var d *delta.Delta
		if d, err = propagate(plan, ctx.Pre, ctx.Post, res.ExecTS, ctx.Deadline); err == nil {
			res.setRows(plan.Schema(), d.Rows())
		}
	}
	if err != nil {
		return err
	}
	res.Stats.FellBack = root == nil
	if m := e.Metrics; m != nil {
		m.observe(res.Stats, span, time.Since(start))
	}
	return nil
}

// supportsDifferential reports whether the plan is in the SPJ class
// covered by Algorithm 1.
func supportsDifferential(p algebra.Plan) bool {
	switch n := p.(type) {
	case *algebra.ScanPlan:
		return true
	case *algebra.SelectPlan:
		return supportsDifferential(n.Input)
	case *algebra.ProjectPlan:
		return supportsDifferential(n.Input)
	case *algebra.JoinPlan:
		return supportsDifferential(n.Left) && supportsDifferential(n.Right)
	default:
		return false
	}
}
