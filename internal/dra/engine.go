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
// generalized to n operands. The engine computes the same net change in
// its telescoped form (telescopeJoin): operand i's window joins the
// operands before it at the step's timestamp and those after it at the
// last execution, so a refresh runs at most one term per changed
// operand.
//
// As in the paper there is one Rj per base table, however many queries
// join it: the engine keeps one arrangement per table (arrangement) —
// the table's rows at one timestamp, with a hash index per key set some
// join probes — shared by every prepared plan over the engine and
// reference-counted by them. A term reads a partner's state at the
// step's last execution or at its timestamp as the arrangement plus a
// correction of O(|Δ|) rows, Rj(X) = Arr(at) ⊎ −Δj(X, at], and the
// arrangement itself only moves forward: the first step that needs it
// past at advances it by the window image, under its write lock. A join
// plan therefore keeps no state and no position of its own, and steps
// from any last execution the store still holds the log of. Selections
// and projections commute with the
// signed representation row by row: they are linear, so their
// incremental form keeps no state and builds no structure. A join-free
// subtree [Project(bare columns)]([Select](Scan)) is therefore evaluated
// as a view of its scan's window — surviving row indices and a column
// map over the batch every CQ of the round shares (selView) — which the
// root nets by adjacent -old/+new pair straight into its change, kept
// columnar over that batch until a reader asks for rows (Result), and
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
// A query holds one evaluator, Prepared, wherever it runs: the cq
// manager's CQs and template groups on the server, remote.MirrorCQ on a
// client (Section 6), and one-shot callers such as baseline.AppendOnly,
// which prepares a plan per step. Engine.Prepare compiles the plan
// once and attaches its joins to the engine's arrangements,
// Prepared.Seed runs the initial execution — the same kernels' step
// from the empty state, every operand entering as an all-insert
// columnar image (ΔR = R) — and every refresh is one Prepared.Step. The
// first plan to read a table builds its arrangement from the seed
// source's image (or, for a plan never seeded, the pre-state's); a
// MirrorCQ or an AppendOnly with an engine of its own gets private
// arrangements the same way.
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
	"sync"
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
//	(i)   the CQ definition        — the plan passed to Prepare;
//	(ii)  base contents at the last execution — Pre;
//	(iii) the differential relations           — Batches (window > last ts);
//	(iv)  the timestamp of the last execution  — LastTS;
//	(v)   the previous complete result         — Prev.
//
// Pre is read only where a refresh must build state: an arrangement no
// plan has built yet (a plan never seeded), and the re-seed of a group
// table whose position is not LastTS (last step failed, or stepped from
// elsewhere). It is read the way Seed reads its source: as one columnar
// image per table, the source's own when it has a TableImage method
// (storage.HistoricView), converted from its relations otherwise. A
// caller that keeps its own copy of the base tables hands them here as
// they stand at LastTS. Post is the current contents, needed by complete
// re-evaluation and by result verification; a Prepared whose Strategy is
// StrategyIncremental never reads it, nor Prev.
//
// The engine keeps no reference to a Context, nor to its Pre and Post
// sources or its maps, once Step returns: a caller may
// reuse one Context, refilling it in place, for every refresh of its
// evaluator. The images it carries are only read; the Result
// references none of them but one: a selection's change over a Batches
// image reads that image until its rows are rendered (Result), so an
// image handed in here must never be written or recycled afterwards.
type Context struct {
	Pre  algebra.Source
	Post algebra.Source
	// Deltas is never read: the windows are Batches. The field stays
	// declared only for a reader outside this module's serving path (the
	// repo benchmark's replay) that still sets it.
	Deltas map[string]*delta.Delta
	LastTS vclock.Timestamp
	Prev   *relation.Relation

	// Compacted declares that every window in Batches is folded to its
	// net per-tid effect — each tid once, as one row or an adjacent
	// -old/+new pair — so a selection nets its window in one forward
	// pass (netView); otherwise the general netting runs. The cq
	// scheduler sets it when it hands the window cache's compacted images
	// to many CQs.
	Compacted bool

	// Versions is never read: a Prepared's state is valid at its one
	// position, whatever the change counters say. The field stays
	// declared only for a reader outside this module's serving path (the
	// repo benchmark's replay) that still sets it.
	Versions map[string]uint64

	// Batches carries the columnar image of each operand's window, in
	// the ordered signed form of Store.WindowImage — built once
	// (storage.WindowCache, or a client mirror's decoded frame) and read
	// in place by every CQ refreshing over the window. A table missing
	// from Batches scans as an empty window.
	Batches map[string]*batch.Batch

	// Windows reads the window images a join step needs beyond its own
	// windows: to advance an arrangement from a timestamp other than
	// LastTS, and to correct one that another step has moved past the
	// step's timestamp (telescopeJoin). The cq manager hands its round's
	// storage.WindowCache. A step that needs an image without one fails;
	// it never reads live state.
	Windows WindowSource

	// Deadline bounds the step (a refresh budget). The kernels check it
	// at batch boundaries — each join step, every guard.CheckRows rows a
	// cross or hash step probes or emits and of the group-table fold;
	// on complete re-evaluation, every guard.CheckRows rows the row
	// executor scans or joins and after each plan node — and fail the
	// step with guard.ErrBudgetExceeded once it has passed. A join plan
	// keeps no state of its own, and a group table's failed step clears
	// its position, so nothing is left to undo. A group table's re-seed
	// runs outside it (position.resume). The zero value sets no bound
	// and reads no clock.
	Deadline time.Time
}

// Stats records the work of one differential re-evaluation, consumed by
// the benchmark harness.
type Stats struct {
	// Terms is the number of join terms evaluated: per join group, one
	// per changed operand (telescopeJoin), where Algorithm 1's truth
	// table would run up to 2^k - 1.
	Terms int
	// DeltaRows is the total number of signed window rows the scans of a
	// relevant refresh read. A skipped refresh reports zero although it
	// scanned its windows to find that out: the counter (and
	// dra.delta_rows_consumed, the denominator of the benchmark's
	// pre-tuples-per-delta-row) means rows that fed an evaluation, as it
	// did when a separate pre-pass made the call.
	DeltaRows int
	// PreTuplesScanned counts tuples read from pre-states: every image
	// row a group table's re-seed or an arrangement's build on a step
	// reads (dra.pre_tuples_scanned is the re-seed meter of a standing
	// query).
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
	// IndexCacheHits counts the arrangements a join step found built;
	// IndexCacheMisses the arrangements it built, one per table plus one
	// per key index.
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
// is a column map, join terms probe the flat indexes of the engine's
// shared arrangements, all over a pooled arena. The store's write
// boundary (relation.Schema.Conform) guarantees that every stored value
// fits its column, so a window value that does not is an invariant
// violation: the refresh fails with an error wrapping
// relation.ErrTypeMismatch.
// Every engine runs the three Section 5.2 refinements: terms join
// delta-first and select before they join, equi-join steps probe hash
// indexes, and a refresh whose filtered windows are all empty is
// reported as skipped (Stats.Skipped).
type Engine struct {
	// CompactDeltas is the form of the windows a join reads through
	// Context.Windows: folded to their net per-tid effect (A2). Callers
	// that compact hand their own windows the same way (Context.Compacted).
	CompactDeltas bool
	// pool recycles batch and selection buffers across refreshes; it is
	// sync.Pool-backed, so concurrent refresh workers share it safely.
	// Nil (zero-value engines in tests) degrades to plain allocation.
	pool *batch.Pool

	// Metrics accumulates per-step Stats into the engine-wide obs
	// registry and records a sampled span per step. Nil (the default)
	// leaves the engine uninstrumented; see Instrument.
	//
	// Per-call stats live in Result.Stats, owned by the caller; the
	// engine keeps no mutable evaluation state of its own but the
	// arrangements, each under its own lock, which is what lets one
	// engine serve concurrent refresh workers.
	Metrics *Metrics

	// arrs holds one arrangement per base table some attached plan
	// joins; arrMu guards the map and the arrangements' refs.
	arrMu sync.Mutex
	arrs  map[string]*arrangement
}

// NewEngine returns an engine that compacts delta windows.
func NewEngine() *Engine {
	return &Engine{CompactDeltas: true, pool: batch.NewPool()}
}

// Result is the outcome of one differential re-evaluation: the net
// change of the query result as the paper's differential relation
// (Delta). Invariant, kept by every producer (both nettings, Diff behind
// the propagate arms, the group table, the cq template fold) and relied
// on by result maintenance (Fits, Maintain, ApplyTo) and by the cq
// notification read straight off Delta: Delta holds each tid at most
// once, as one insert, delete or modify row.
//
// A selection over the round's shared window image keeps its change
// columnar (batch.Change: row indices over the image, which nobody
// writes or recycles), and Delta is that change's deferred form: Len,
// Counts and Schema answer from it, Fits and Maintain write it typed
// into the result table, and only the first read of its rows renders
// them, once. Every other producer renders its change eagerly.
//
// A non-empty Delta belongs to the refresh that produced it — its rows
// and values on fresh backing, or the shared image it renders from,
// never pooled or reused memory — so a caller may keep it, or anything
// it references, for as long as it likes. An empty change is the
// Result's own empty Delta, allocated once per Result and reported by
// every empty refresh stepped into it (Prepared.StepInto): it is
// read-only, and nothing may append to it. A holder that steps into one
// Result refresh after refresh therefore allocates nothing for a
// refresh whose change is empty.
type Result struct {
	// Signed is never set: Delta is the change. The field stays declared
	// only for a reader outside this module's serving path (the repo
	// benchmark's replay) that still checks it for nil.
	Signed *delta.Signed
	// Delta is the change in differential-relation form (modifications
	// paired), rows stamped with ExecTS. A selection's is deferred:
	// rendered on the first read of its rows, while Len and Counts cost
	// nothing.
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
	// change is Delta's columnar form when Delta is deferred.
	change *batch.Change
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

// Change returns Delta's columnar form when Delta is deferred (a
// selection over the round's shared image), nil otherwise. A reader
// that needs only some of the change's rows, or only some of their
// values, reads them here without rendering the rest.
func (r *Result) Change() *batch.Change { return r.change }

// setChange reports a columnar change, Delta being its deferred form.
func (r *Result) setChange(c *batch.Change) {
	r.change, r.Delta = c, &c.Delta
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
// after. A columnar change is checked by its column types, O(width),
// without rendering a row. Under complete re-evaluation it writes the
// new result, in the evaluation's order, into the fresh table Maintain
// returns.
func (r *Result) Fits(t *batch.Table) error {
	if r.change != nil {
		return t.FitsChange(r.change)
	}
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
// writes the change typed into t's slots, O(|Δ|), and returns t: a
// columnar change straight from its source columns
// (batch.Table.ApplyChange, rendering nothing), any other through its
// rows (batch.Table.Apply). Under complete re-evaluation it returns instead the
// table Fits filled from the full result: that arm is O(|R|) already,
// and the evaluation's order — a sorted plan's ORDER BY order — is the
// result's, which writes into freed slots would not keep.
func (r *Result) Maintain(t *batch.Table) *batch.Table {
	if r.change != nil {
		t.ApplyChange(r.change)
		return t
	}
	if r.materialized == nil {
		t.Apply(r.Delta)
		return t
	}
	if r.full == nil {
		panic("dra: Result.Maintain before Fits")
	}
	return r.full
}

// evaluate is the refresh core of Prepared.StepInto: the differential
// evaluation when root is non-nil, complete re-evaluation otherwise —
// one execution over ctx.Post diffed against ctx.Prev, which must be the
// query's result on ctx.Pre — into res, which the caller has reset to
// the execution's timestamp.
func (e *Engine) evaluate(plan algebra.Plan, root *compiledNode, ctx *Context, res *Result) error {
	var span *obs.Span
	var start time.Time
	if m := e.Metrics; m != nil {
		start = time.Now()
		span = m.startSpan()
	}
	var err error
	if root != nil {
		err = e.vecEvaluate(root, ctx, res)
	} else {
		err = fullReevaluate(plan, ctx.Post, ctx.Prev, res, ctx.Deadline)
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
