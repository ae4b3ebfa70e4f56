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
// signed representation row by row.
//
// The package also provides Propagate, the paper's complete
// re-evaluation reference operator (run Q on both states and Diff), used
// by the equivalence proofs in the test suite and by the benchmark
// baselines, and the relevant-update refinement of Section 5.2.
//
// Aggregate and DISTINCT queries are outside the SPJ class that
// Algorithm 1 covers ("limited to SPJ expressions"); Reevaluate falls
// back to Propagate for them. IncrementalAggregate and
// IncrementalDistinct maintain the shapes that allow it from per-group
// state instead (groupTable), and the cq package maintains aggregate
// trigger state differentially per Section 5.3.
package dra

import (
	"errors"
	"fmt"
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
//	(iii) the differential relations           — Deltas (window > last ts);
//	(iv)  the timestamp of the last execution  — LastTS;
//	(v)   the previous complete result         — Prev.
//
// Post is the current contents, needed by the Propagate fallback and by
// result verification.
type Context struct {
	Pre    algebra.Source
	Post   algebra.Source
	Deltas map[string]*delta.Delta
	LastTS vclock.Timestamp
	Prev   *relation.Relation

	// Compacted declares that Deltas are already folded to their net
	// per-tid effect, so a CompactDeltas engine must not compact them
	// again. The cq scheduler's shared window cache sets this when it
	// hands the same compacted window to many CQs.
	Compacted bool

	// Versions carries per-table change-counter snapshots
	// (storage.Store.ChangeCounts) for prepared-plan operand caches.
	// The snapshot MUST be taken before the refresh timestamp is
	// issued — the counters then cover at most the commits older than
	// the timestamp, so a later equality proves the table untouched in
	// between. Nil disables counter revalidation (caches still hit on
	// consecutive refreshes via timestamps alone).
	Versions map[string]uint64

	// Batches optionally carries prebuilt columnar images of Deltas —
	// same rows, same order — built once at the storage boundary and
	// shared read-only by every CQ refreshing over the window. A
	// Vectorized engine scans them as zero-copy views instead of
	// converting the row window per CQ, provided no further compaction
	// would apply (CompactDeltas off, or Compacted set). Nil or missing
	// entries are fine; the scan converts from Deltas.
	Batches map[string]*batch.Batch
}

// Stats records the work of one differential re-evaluation, consumed by
// the benchmark harness.
type Stats struct {
	// Terms is the number of truth-table terms evaluated (Σ over join
	// groups of 2^k - 1).
	Terms int
	// DeltaRows is the total number of signed delta rows consumed.
	DeltaRows int
	// PreTuplesScanned counts tuples materialized from unchanged-operand
	// pre-states for join partner sides.
	PreTuplesScanned int
	// FellBack reports that the plan was outside the SPJ class and was
	// recomputed via Propagate.
	FellBack bool
	// Skipped reports that the relevant-update refinement (Section 5.2)
	// proved all updates irrelevant and skipped evaluation entirely.
	Skipped bool
	// IndexCacheHits counts operand pre-states served from a prepared
	// plan's cross-refresh cache (no snapshot scan, indexes reused);
	// IndexCacheMisses counts replica rebuilds and first-time index
	// builds. Both stay zero on the unprepared Reevaluate path.
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

// Engine evaluates differential forms of SPJ plans. The flags correspond
// to the ablation benchmarks in EXPERIMENTS.md.
type Engine struct {
	// UseHeuristics orders term joins delta-first and applies predicates
	// as soon as their operands are joined ("select before join",
	// Section 5.2). When false, terms join operands left-to-right and
	// apply the full predicate at the end.
	UseHeuristics bool
	// CompactDeltas folds each operand's delta window to its net effect
	// before evaluation (A2).
	CompactDeltas bool
	// UseHashJoin probes hash indexes for equi-join terms (A3); nested
	// loops otherwise.
	UseHashJoin bool
	// SkipIrrelevant enables the Section 5.2 refinement: when every
	// operand's filtered delta is empty the re-evaluation is skipped.
	SkipIrrelevant bool
	// Vectorized routes differential evaluation through the columnar
	// batch kernels: operand windows become typed column batches,
	// selection produces selection indices instead of row copies,
	// projection moves columns by slice reuse, and join terms probe the
	// prepared operand indexes per batch, all over a pooled arena.
	// Values unrepresentable in typed columns (kind drift, untyped
	// NULLs) make the refresh fall back to the row path with identical
	// results; operand-cache advances are deferred until the vectorized
	// tree succeeds, so the fallback never sees half-advanced replicas.
	// StrategyIncremental's telescoping kernel exists on this path only;
	// set the field before Prepare, which refuses that strategy without it.
	Vectorized bool

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

// NewEngine returns an engine with all optimizations enabled.
func NewEngine() *Engine {
	return &Engine{
		UseHeuristics:  true,
		CompactDeltas:  true,
		UseHashJoin:    true,
		SkipIrrelevant: true,
		Vectorized:     true,
		pool:           batch.NewPool(),
	}
}

// Result is the outcome of one differential re-evaluation.
type Result struct {
	// Signed is the net signed change of the query result.
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
	// result (FullReevaluate); ApplyTo then returns it directly.
	materialized *relation.Relation
}

// ApplyTo maintains the complete result (Section 4.3: Et_i(Q) ∪
// insertions − deletions): it applies the change to prev IN PLACE — an
// O(|Δ|) operation, which is the whole point of differential maintenance
// — and returns it. Callers that still need the old result must clone it
// first. Calling ApplyTo more than once on the same Result is incorrect.
func (r *Result) ApplyTo(prev *relation.Relation) *relation.Relation {
	if r.materialized != nil {
		return r.materialized
	}
	delta.ApplySigned(prev, r.Signed)
	return prev
}

// Inserted returns the inserted-tuples view of the change.
func (r *Result) Inserted() *relation.Relation { return r.Delta.Insertions() }

// Deleted returns the deleted-tuples view of the change.
func (r *Result) Deleted() *relation.Relation { return r.Delta.Deletions() }

// Modified returns the modification rows of the change.
func (r *Result) Modified() []delta.Row { return r.Delta.Modifications() }

// Reevaluate computes the result of the current execution of the query
// differentially, compiling the plan transiently per call. ctx.Prev
// must hold the previous complete result. Standing queries should
// Prepare once and Step instead: the compiled tree and the operand
// index cache then persist across refreshes.
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
	return e.evaluate(plan, root, ctx, execTS, false)
}

// evaluate is the refresh core shared by Reevaluate (transient compile
// per call) and Prepared.Step (compile once at registration): the
// differential evaluation when root is non-nil — join groups by truth
// table, or by the telescoping kernel when telescope is set and the
// engine is vectorized — and the Propagate fallback otherwise.
func (e *Engine) evaluate(plan algebra.Plan, root *compiledNode, ctx *Context, execTS vclock.Timestamp, telescope bool) (*Result, error) {
	if ctx.Prev == nil {
		return nil, ErrNoPrev
	}
	var st Stats
	var span *obs.Span
	var start time.Time
	if m := e.Metrics; m != nil {
		start = time.Now()
		span = m.startSpan()
	}

	var signed *delta.Signed
	if root != nil {
		if e.SkipIrrelevant {
			relevant, probed := false, false
			if e.Vectorized {
				rel, ok, err := e.vecRelevant(root, ctx)
				if err != nil {
					return nil, err
				}
				relevant, probed = rel, ok
			}
			if !probed {
				rel, err := e.relevant(root, ctx)
				if err != nil {
					return nil, err
				}
				relevant = rel
			}
			if !relevant {
				st.Skipped = true
				signed = &delta.Signed{Schema: plan.Schema()}
				// The skipped window still moves the operand caches
				// forward: every filtered delta is empty, so each
				// replica already equals its operand's state at execTS.
				root.eachJoin(func(cj *compiledJoin) {
					if cj.cache != nil {
						cj.cache.advance(ctx, execTS, nil)
					}
				})
			}
		}
		if signed == nil && e.Vectorized {
			net, ok, err := e.vecEvaluate(root, ctx, execTS, &st, telescope)
			if err != nil {
				return nil, err
			}
			if ok {
				if m := e.Metrics; m != nil {
					m.VecSteps.Inc()
					m.observe(st, span, time.Since(start))
				}
				return &Result{
					Signed: net,
					Delta:  net.ToDeltaNetted(execTS),
					ExecTS: execTS,
					Stats:  st,
				}, nil
			}
			// Some value was unrepresentable in typed columns; the
			// replicas are untouched or dropped (see errVecFallback), so
			// the row path below re-runs cleanly.
			if m := e.Metrics; m != nil {
				m.VecFallbacks.Inc()
			}
		}
		if signed == nil {
			s, err := e.signedDelta(root, ctx, execTS, &st)
			if err != nil {
				return nil, err
			}
			signed = s
		}
	} else {
		st.FellBack = true
		s, err := PropagateSigned(plan, ctx.Pre, ctx.Post)
		if err != nil {
			return nil, err
		}
		signed = s
	}

	net := netSigned(signed)
	if m := e.Metrics; m != nil {
		m.observe(st, span, time.Since(start))
	}
	return &Result{
		Signed: net,
		Delta:  net.ToDeltaNetted(execTS),
		ExecTS: execTS,
		Stats:  st,
	}, nil
}

// Relevant implements the query refinement of Section 5.2: it tests the
// per-operand differential windows against the operand-local predicates
// and reports whether any update can affect the query result. It never
// materializes pre-states, so it is cheap (O(Σ|ΔRi|)).
func (e *Engine) Relevant(plan algebra.Plan, ctx *Context) (bool, error) {
	if !supportsDifferential(plan) {
		return true, nil
	}
	root, err := compilePlan(plan)
	if err != nil {
		return false, err
	}
	return e.relevant(root, ctx)
}

// relevant tests every maximal join-free subtree's filtered delta for
// emptiness, on a scratch Stats: the rows it scans are counted again by
// the real evaluation, so its work never reaches Result.Stats.
func (e *Engine) relevant(root *compiledNode, ctx *Context) (bool, error) {
	var scratch Stats
	for _, op := range root.operands(nil) {
		d, err := e.signedDelta(op, ctx, 0, &scratch)
		if err != nil {
			return false, err
		}
		if d.Len() > 0 {
			return true, nil
		}
	}
	return false, nil
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

// signedDelta computes the signed change of a compiled node's output
// between the pre and post states, accumulating work counts into st.
// execTS is the timestamp the refresh runs at; join groups with an
// operand cache use it to tag advanced replicas (zero is fine when no
// cache is attached, e.g. relevance probes on join-free subtrees).
func (e *Engine) signedDelta(n *compiledNode, ctx *Context, execTS vclock.Timestamp, st *Stats) (*delta.Signed, error) {
	switch {
	case n.scan != nil:
		return e.scanDelta(n.scan, ctx, st)
	case n.sel != nil:
		in, err := e.signedDelta(n.sel.input, ctx, execTS, st)
		if err != nil {
			return nil, err
		}
		return filterSigned(in, n.sel.pred)
	case n.proj != nil:
		in, err := e.signedDelta(n.proj.input, ctx, execTS, st)
		if err != nil {
			return nil, err
		}
		return projectSigned(in, n.proj.items, n.proj.schema)
	case n.join != nil:
		return e.joinDelta(n.join, ctx, execTS, st)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedPlan, n.plan)
	}
}

// scanDelta converts the table's differential window to signed form under
// the scan's qualified schema.
func (e *Engine) scanDelta(n *algebra.ScanPlan, ctx *Context, st *Stats) (*delta.Signed, error) {
	d := ctx.Deltas[n.Table]
	if d == nil {
		return &delta.Signed{Schema: n.Schema()}, nil
	}
	if e.CompactDeltas && !ctx.Compacted {
		d = d.Compact()
	}
	s := d.ToSigned()
	st.DeltaRows += len(s.Rows)
	// Rebadge under the scan's qualified schema (same types).
	return &delta.Signed{Schema: n.Schema(), Rows: s.Rows}, nil
}

// filterSigned applies a compiled selection predicate to each signed
// row. A modification whose old half passes and whose new half fails
// nets to a deletion from the result, exactly as in Example 2 of the
// paper.
func filterSigned(in *delta.Signed, ce algebra.CompiledExpr) (*delta.Signed, error) {
	out := &delta.Signed{Schema: in.Schema, Rows: make([]delta.SignedRow, 0, len(in.Rows))}
	for _, r := range in.Rows {
		pass, err := algebra.EvalPredicate(ce, relation.Tuple{TID: r.TID, Values: r.Values})
		if err != nil {
			return nil, fmt.Errorf("dra: select: %w", err)
		}
		if pass {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// projectSigned maps each signed row through compiled projection items.
func projectSigned(in *delta.Signed, compiled []algebra.CompiledExpr, outSchema relation.Schema) (*delta.Signed, error) {
	out := &delta.Signed{Schema: outSchema, Rows: make([]delta.SignedRow, 0, len(in.Rows))}
	for _, r := range in.Rows {
		vals := make([]relation.Value, len(compiled))
		for i, ce := range compiled {
			v, err := ce.Eval(relation.Tuple{TID: r.TID, Values: r.Values})
			if err != nil {
				return nil, fmt.Errorf("dra: project: %w", err)
			}
			vals[i] = v
		}
		out.Rows = append(out.Rows, delta.SignedRow{TID: r.TID, Values: vals, Sign: r.Sign})
	}
	return out, nil
}

// netSigned reduces a signed multiset to at most one negative and one
// positive row per tid by counting per (tid, value) and keeping nonzero
// nets. This collapses the cross terms of the truth-table expansion
// (e.g. a tuple modified on both join sides contributes four signed rows
// that net to one -old and one +new).
//
// Rows are bucketed by value hash per tid, but the hash alone is not the
// identity: entries with the same hash are chained and distinguished by
// comparing the actual values, so a hash collision between two distinct
// rows never merges (and possibly cancels) their counts.
func netSigned(s *delta.Signed) *delta.Signed {
	type valEntry struct {
		values []relation.Value
		count  int
		order  int
	}
	perTID := make(map[relation.TID]map[uint64][]*valEntry, len(s.Rows))
	var tidOrder []relation.TID
	n := 0
	for _, r := range s.Rows {
		m, ok := perTID[r.TID]
		if !ok {
			m = make(map[uint64][]*valEntry, 2)
			perTID[r.TID] = m
			tidOrder = append(tidOrder, r.TID)
		}
		h := relation.HashValues(r.Values)
		var ve *valEntry
		for _, cand := range m[h] {
			if sameValues(cand.values, r.Values) {
				ve = cand
				break
			}
		}
		if ve == nil {
			ve = &valEntry{values: r.Values, order: n}
			n++
			m[h] = append(m[h], ve)
		}
		ve.count += r.Sign
	}
	out := &delta.Signed{Schema: s.Schema}
	for _, tid := range tidOrder {
		var neg, pos *valEntry
		for _, chain := range perTID[tid] {
			for _, ve := range chain {
				switch {
				case ve.count < 0 && (neg == nil || ve.order < neg.order):
					neg = ve
				case ve.count > 0 && (pos == nil || ve.order < pos.order):
					pos = ve
				}
			}
		}
		if neg != nil {
			out.Rows = append(out.Rows, delta.SignedRow{TID: tid, Values: neg.values, Sign: -1})
		}
		if pos != nil {
			out.Rows = append(out.Rows, delta.SignedRow{TID: tid, Values: pos.values, Sign: +1})
		}
	}
	return out
}

// sameValues reports whether two rows carry equal values position by
// position (same arity assumed within one signed multiset).
func sameValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
