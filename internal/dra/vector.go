package dra

import (
	"fmt"
	"sync"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// nonConforming reports a value that does not fit its typed column. The
// store's write boundary conforms every stored value to its column
// (relation.Schema.Conform), so this is an invariant violation — a
// hand-built window, or a store that bypassed the boundary — and an
// ordinary refresh error: the scheduler's guard counts it against the
// CQ's breaker like any other failure.
func nonConforming(what string) error {
	return fmt.Errorf("dra: %s: value does not fit its typed column: %w", what, relation.ErrTypeMismatch)
}

// vecEval is the per-refresh state of the columnar evaluator. Every
// pooled batch and selection vector it creates lands in owned / idx and
// returns to the arena in one sweep at the end — cross-refresh buffer
// reuse through the pool is where the allocation win comes from. The
// vecEval itself is pooled too (vecEvals), its two lists keeping their
// capacity from one refresh to the next.
type vecEval struct {
	e      *Engine
	ctx    *Context
	execTS vclock.Timestamp
	st     *Stats
	owned  []*batch.Batch
	idx    [][]int32
	// relevant records that some maximal join-free subtree's filtered
	// window was non-empty: the relevance test of Section 5.2, answered
	// by the evaluation itself.
	relevant bool
}

// vecEvals recycles evaluator states across refreshes and engines.
var vecEvals = sync.Pool{New: func() any { return new(vecEval) }}

// newVecEval takes an evaluator state from the pool; release returns it.
func newVecEval(e *Engine, ctx *Context, execTS vclock.Timestamp, st *Stats) *vecEval {
	v := vecEvals.Get().(*vecEval)
	*v = vecEval{e: e, ctx: ctx, execTS: execTS, st: st, owned: v.owned[:0], idx: v.idx[:0]}
	return v
}

// vecEvaluate runs the differential evaluation over typed columnar
// batches and nets the result into res. Prepared join groups advance
// their replicas as they go, so an error can leave them part-advanced;
// the caller clears the plan's position (Prepared.StepInto).
//
// A refresh whose operands' filtered windows are all empty is reported
// as Skipped: nothing past the window scan ran and the net change is
// empty.
func (e *Engine) vecEvaluate(root *compiledNode, ctx *Context, res *Result) error {
	st := &res.Stats
	v := newVecEval(e, ctx, res.ExecTS, st)
	defer v.release()
	if root.view != nil && v.paired() {
		w, err := v.view(root.view)
		if err != nil {
			return err
		}
		v.relevant = w.len() > 0
		res.setRows(w.schema, v.netView(w))
	} else {
		out, err := v.nodeBatch(root)
		if err != nil {
			return err
		}
		if root.joinFree() && out.Len() > 0 {
			v.relevant = true
		}
		res.setRows(out.Schema, v.netBatch(out))
	}
	if !v.relevant {
		st.Skipped = true
		st.DeltaRows = 0 // a skipped refresh consumed no delta row
	}
	return nil
}

// paired reports that every scan's window holds each tid at most once,
// as one row or as an adjacent -old/+new pair: the windows are compacted,
// by the caller (whose Context.Batches are then the compacted windows
// row for row) or by the scan.
func (v *vecEval) paired() bool { return v.e.CompactDeltas || v.ctx.Compacted }

func (v *vecEval) own(b *batch.Batch) *batch.Batch {
	v.owned = append(v.owned, b)
	return b
}

func (v *vecEval) release() {
	for _, b := range v.owned {
		// released: evaluation is over and netting materialized the net
		// result into owned memory; no owned batch is referenced again.
		v.e.pool.Put(b)
	}
	for _, sel := range v.idx {
		// released: every view over the selection has been consumed.
		v.e.pool.PutIdx(sel)
	}
	clear(v.owned)
	clear(v.idx)
	*v = vecEval{owned: v.owned[:0], idx: v.idx[:0]}
	// released: the evaluation is over and the state is wiped above, so
	// the pooled value keeps no buffer, context or engine reachable.
	vecEvals.Put(v)
}

// nodeBatch computes the signed change of a compiled node's output
// between the pre and post states, as a batch the evaluation owns.
func (v *vecEval) nodeBatch(n *compiledNode) (*batch.Batch, error) {
	switch {
	case n.view != nil:
		w, err := v.view(n.view)
		if err != nil {
			return nil, err
		}
		out := v.own(v.e.pool.Get(w.schema, w.len()))
		out.AppendSelected(w.b, w.sel, w.cols)
		return out, nil
	case n.sel != nil:
		in, err := v.nodeBatch(n.sel.input)
		if err != nil {
			return nil, err
		}
		return v.filterBatch(in, n.sel.pred)
	case n.proj != nil:
		in, err := v.nodeBatch(n.proj.input)
		if err != nil {
			return nil, err
		}
		return v.projectBatch(in, n.proj.items, n.proj.schema)
	case n.join != nil:
		return v.joinBatch(n.join)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedPlan, n.plan)
	}
}

// selView is the signed change of a selection, read in place: rows sel
// of the scan's window batch b — the round's shared image, which this
// evaluation must not write, or the scan's own conversion — with output
// column j in b's column cols[j]. Its consumer nets it straight into
// result rows (netView) or copies it out once (nodeBatch).
type selView struct {
	b      *batch.Batch
	sel    []int32 // nil: every row
	cols   []int
	schema relation.Schema
}

func (w *selView) len() int {
	if w.sel == nil {
		return w.b.Len()
	}
	return len(w.sel)
}

// at returns the window row of the view's k-th row.
func (w *selView) at(k int) int32 {
	if w.sel == nil {
		return int32(k)
	}
	return w.sel[k]
}

// view evaluates a selection: one pass of each predicate over the
// window's surviving rows, producing selection indices and nothing else.
func (v *vecEval) view(s *selection) (selView, error) {
	w := selView{cols: s.cols, schema: s.schema}
	var err error
	if w.b, err = v.scanBatch(s.scan); err != nil {
		return w, err
	}
	pool := v.e.pool
	for _, pred := range s.preds {
		if w.len() == 0 {
			break
		}
		w.sel, err = algebra.SelectBatch(pred, w.b, w.sel, pool.GetIdx(w.len()), pool)
		v.idx = append(v.idx, w.sel)
		if err != nil {
			return w, fmt.Errorf("dra: select: %w", err)
		}
	}
	return w, nil
}

// scanBatch produces the table's differential window as a signed batch
// with the scan's column types. When the context carries a prebuilt
// columnar window (built once by the window cache and shared by every
// CQ at the round timestamp) and no further compaction would apply, that
// batch is the scan, read in place; otherwise the scan converts the row
// window into a pooled batch.
func (v *vecEval) scanBatch(n *algebra.ScanPlan) (*batch.Batch, error) {
	e := v.e
	if pre := v.ctx.Batches[n.Table]; pre != nil && (!e.CompactDeltas || v.ctx.Compacted) {
		v.st.DeltaRows += pre.Len()
		return pre, nil
	}
	d := v.ctx.Deltas[n.Table]
	if d != nil && e.CompactDeltas && !v.ctx.Compacted {
		d = d.Compact()
	}
	size := 0
	if d != nil {
		size = d.Len() * 2
	}
	out := v.own(e.pool.Get(n.Schema(), size))
	if d != nil {
		for _, r := range d.Rows() {
			if !out.AppendChange(r) {
				return nil, nonConforming("window of " + n.Table)
			}
		}
	}
	v.st.DeltaRows += out.Len()
	return out, nil
}

// filterBatch applies a selection predicate column-at-a-time to a batch
// the evaluation owns, compacting it in place to the surviving rows.
func (v *vecEval) filterBatch(in *batch.Batch, pred algebra.CompiledExpr) (*batch.Batch, error) {
	if in.Len() == 0 {
		return in, nil
	}
	pool := v.e.pool
	sel, err := algebra.SelectBatch(pred, in, nil, pool.GetIdx(in.Len()), pool)
	if err == nil && len(sel) < in.Len() {
		in.Gather(sel)
	}
	// released: gather consumed the indices, or the selection aborted and
	// they never escaped.
	pool.PutIdx(sel)
	if err != nil {
		return nil, fmt.Errorf("dra: select: %w", err)
	}
	return in, nil
}

// projectBatch evaluates projection as column permutation: items that
// are bare column references of the output type move by slice exchange
// (zero copies; the input slot is hollowed out), and only computed
// items run a row loop. NULL-propagating expressions evaluate to untyped
// NULLs; each computed value takes its output column's type by the
// store's own rule (relation.Column.Conform), which Equal and the value
// hash cannot tell from the untyped form.
func (v *vecEval) projectBatch(in *batch.Batch, items []algebra.CompiledExpr, schema relation.Schema) (*batch.Batch, error) {
	out := v.own(v.e.pool.Get(schema, in.Len()))
	width := in.Schema.Len()
	moved := make([]int, len(items)) // source column of a pass-through item; -1 = computed
	refs := make([]int, width)
	for i, ce := range items {
		moved[i] = -1
		if ci, ok := algebra.ColumnIndexOf(ce); ok && schema.Col(i).Type == in.Cols[ci].Type {
			moved[i] = ci
			refs[ci]++
		}
	}
	// Computed items first: they read full input rows, which the column
	// moves below would hollow out.
	var scratch []relation.Value
	n := in.Len()
	for i, ce := range items {
		if moved[i] >= 0 {
			continue
		}
		if scratch == nil {
			scratch = make([]relation.Value, width)
		}
		col := schema.Col(i)
		for r := 0; r < n; r++ {
			in.ReadRow(r, scratch)
			val, err := ce.Eval(relation.Tuple{TID: in.TIDs[r], Values: scratch})
			if err == nil {
				val, err = col.Conform(val)
			}
			if err != nil {
				return nil, fmt.Errorf("dra: project: %w", err)
			}
			out.AppendColValue(i, val) // conformed: fits
		}
	}
	for i := range items {
		ci := moved[i]
		if ci < 0 {
			continue
		}
		if refs[ci] == 1 {
			in.MoveCol(ci, out, i)
		} else {
			// The column appears more than once in the projection: every
			// use takes a deep copy so no two output columns alias.
			out.Cols[i] = batch.CloneCol(in.Cols[ci])
		}
	}
	out.CopyRowsFrom(in)
	return out, nil
}

// vecInput is one operand's relation within a term: a signed batch to
// enumerate, or a replica whose maintained hash indexes the hash step
// probes directly.
type vecInput struct {
	b   *batch.Batch
	ent *replica
}

func (t *vecInput) length() int {
	if t.ent != nil {
		return t.ent.t.Len()
	}
	return t.b.Len()
}

// enumerable returns the input as a batch, copying a replica's live
// rows on first use (seed and cross steps enumerate; hash steps probe
// the replica's index and never call this). The copy is good until the
// replica advances; telescopeJoin drops it there.
func (t *vecInput) enumerable(v *vecEval) *batch.Batch {
	if t.b == nil {
		t.b = v.own(t.ent.liveBatch(v.e.pool))
	}
	return t.b
}

// joinBatch computes the signed delta of a join group. What the group is
// decides the kernel: a standing query's group (it has replicas)
// telescopes over them and ends the call with them at execTS; a
// transient one runs Algorithm 1's truth table over the pre-state
// snapshot.
func (v *vecEval) joinBatch(cj *compiledJoin) (*batch.Batch, error) {
	deltas := make([]*batch.Batch, len(cj.ops))
	var changed []int
	for i := range cj.ops {
		d, err := v.nodeBatch(cj.opNodes[i])
		if err != nil {
			return nil, err
		}
		deltas[i] = d
		if d.Len() > 0 {
			changed = append(changed, i)
			if cj.opNodes[i].joinFree() {
				v.relevant = true
			}
		}
	}
	var out *batch.Batch
	var err error
	switch {
	case len(changed) == 0:
	case cj.cache != nil:
		out, err = v.telescopeJoin(cj, deltas)
	default:
		out, err = v.truthTableJoin(cj, deltas, changed)
	}
	if out == nil && err == nil {
		out = v.own(v.e.pool.Get(cj.outSchema, 0))
	}
	return out, err
}

// truthTableJoin is Algorithm 1, steps 1-3: one term per non-empty subset
// of the changed operands, the subset's windows joined with every other
// operand's pre-state, evaluated from the images as of the last
// execution on first use (operandPre). It keeps nothing between calls. A nil batch means no term emitted.
func (v *vecEval) truthTableJoin(cj *compiledJoin, deltas []*batch.Batch, changed []int) (*batch.Batch, error) {
	e := v.e
	nOps := len(cj.ops)
	if len(changed) > maxChangedOperands {
		d, err := Propagate(cj.plan, v.ctx.Pre, v.ctx.Post, 0)
		if err != nil {
			return nil, err
		}
		pb := v.own(e.pool.Get(d.Schema(), 2*d.Len()))
		for _, r := range d.Rows() {
			if !pb.AppendChange(r) {
				return nil, nonConforming("join re-evaluation")
			}
		}
		return pb, nil
	}

	pres := make([]*vecInput, nOps)
	dIn := make([]*vecInput, nOps)
	for i := range deltas {
		dIn[i] = &vecInput{b: deltas[i]}
	}
	var out *batch.Batch
	term := make([]*vecInput, nOps)
	isDelta := make([]bool, nOps)
	lens := make([]int, nOps)
	k := len(changed)
	for mask := 1; mask < 1<<k; mask++ {
		empty := false
		for i := 0; i < nOps; i++ {
			substituted := false
			for b, ci := range changed {
				if ci == i && mask&(1<<b) != 0 {
					substituted = true
					break
				}
			}
			if substituted {
				term[i] = dIn[i]
			} else {
				if pres[i] == nil {
					pb, err := v.operandPre(cj, i)
					if err != nil {
						return nil, err
					}
					pres[i] = &vecInput{b: pb}
				}
				term[i] = pres[i]
			}
			isDelta[i] = substituted
			if lens[i] = term[i].length(); lens[i] == 0 {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		v.st.Terms++
		tp := cj.planTerm(termOrder(cj, lens, isDelta))
		var err error
		if out, err = v.runTerm(cj, tp, term, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// operandPre evaluates operand i's pre-state into a pooled batch
// (operandAt).
func (v *vecEval) operandPre(cj *compiledJoin, i int) (*batch.Batch, error) {
	pb := v.own(v.e.pool.Get(cj.ops[i].plan.Schema(), 0))
	if err := v.operandAt(cj, i, pb); err != nil {
		return nil, err
	}
	return pb, nil
}

// runTerm joins one term's operand inputs along its resolved plan,
// multiplying signs and applying predicates as soon as their operands
// are joined, and adds the term's signed rows to out (nil adopts the
// term's own final batch, saving the copy when a refresh has a single
// term). The in-progress join state is a pooled work batch over the
// flattened schema (unfilled operand ranges hold placeholders that no
// ready predicate can read) plus a pooled row-major provenance buffer
// of one TID per operand per row.
func (v *vecEval) runTerm(cj *compiledJoin, tp *termPlan, term []*vecInput, out *batch.Batch) (*batch.Batch, error) {
	pool := v.e.pool
	nOps := len(cj.ops)
	fb := term[tp.first].enumerable(v)
	work := v.own(pool.Get(cj.outSchema, fb.Len()))
	tids := pool.GetTIDs(nOps * fb.Len())
	lo := cj.ops[tp.first].lo
	for r := 0; r < fb.Len(); r++ {
		work.AppendPlaced(fb, r, lo)
		for i := 0; i < nOps; i++ {
			tids = append(tids, 0)
		}
		tids[r*nOps+tp.first] = fb.TIDs[r]
	}
	tids, err := v.applyPredsVec(cj, work, tids, tp.seedPreds)
	for i := 0; err == nil && i < len(tp.steps) && work.Len() > 0; i++ {
		if err = guard.Overdue(v.ctx.Deadline); err != nil {
			break
		}
		step := &tp.steps[i]
		in := term[step.op]
		v.st.JoinProbeRows += work.Len()
		nw := v.own(pool.Get(work.Schema, work.Len()))
		nt := pool.GetTIDs(len(tids))
		deadline := v.ctx.Deadline
		cross := len(step.buildCols) == 0
		switch {
		case cross:
			nt, err = v.crossStepVec(cj, nw, nt, work, tids, in.enumerable(v), step)
		case in.ent != nil:
			nt, err = hashStepVec(nw, nt, work, tids, in.ent.index(step.buildCols, v.st), in.ent.t.Rows(), cj.ops[step.op].lo, step, nOps, deadline)
		default:
			// A batch operand (another delta, or the truth table's
			// pre-state) gets a transient index over its rows.
			var ix relation.SlotIndex
			for r := 0; r < in.b.Len(); r++ {
				ix.Insert(int32(r), in.b.HashKey(r, step.buildCols))
			}
			nt, err = hashStepVec(nw, nt, work, tids, &ix, in.b, cj.ops[step.op].lo, step, nOps, deadline)
		}
		// released: superseded by the join step's output provenance.
		pool.PutTIDs(tids)
		work, tids = nw, nt
		if err == nil && !cross { // a cross step filters as it goes
			tids, err = v.applyPredsVec(cj, work, tids, step.preds)
		}
	}
	if err != nil || work.Len() == 0 {
		// released: the term failed or emitted nothing.
		pool.PutTIDs(tids)
		return out, err
	}
	v.st.JoinEmitRows += work.Len()
	for r := 0; r < work.Len(); r++ {
		t := tids[r*nOps : (r+1)*nOps]
		tid := t[0]
		for _, next := range t[1:] {
			tid = relation.CombineTIDs(tid, next)
		}
		work.TIDs[r] = tid
	}
	// released: provenance folded into the output tids.
	pool.PutTIDs(tids)
	if out == nil {
		return work, nil
	}
	for r := 0; r < work.Len(); r++ {
		out.AppendFrom(work, r)
	}
	return out, nil
}

// applyPredsVec filters the work batch through the listed conjuncts,
// compacting the batch and its provenance buffer in step.
func (v *vecEval) applyPredsVec(cj *compiledJoin, work *batch.Batch, tids []relation.TID, preds []int) ([]relation.TID, error) {
	pool := v.e.pool
	nOps := len(cj.ops)
	for _, pi := range preds {
		if work.Len() == 0 {
			break
		}
		sel, err := algebra.SelectBatch(cj.cPreds[pi], work, nil, pool.GetIdx(work.Len()), pool)
		if err != nil {
			// released: predicate aborted; the indices never escaped.
			pool.PutIdx(sel)
			return tids, fmt.Errorf("dra: term predicate: %w", err)
		}
		if len(sel) < work.Len() {
			work.Gather(sel)
			for k, j := range sel {
				copy(tids[k*nOps:(k+1)*nOps], tids[int(j)*nOps:(int(j)+1)*nOps])
			}
			tids = tids[:len(sel)*nOps]
		}
		// released: gather and provenance compaction consumed the indices.
		pool.PutIdx(sel)
	}
	return tids, nil
}

// hashStepVec joins the work batch with one operand by walking a flat
// hash index over the operand's rows — a replica's maintained index
// over its slots, or a transient one over a batch — verifying each
// candidate against the columns and emitting matches straight into the
// output batch and provenance buffer. Every row it probes or emits
// ticks the deadline's meter, so a hot key stops mid-probe too.
func hashStepVec(out *batch.Batch, outT []relation.TID, work *batch.Batch, tids []relation.TID, ix *relation.SlotIndex, rows *batch.Batch, lo int, step *probeStep, nOps int, deadline time.Time) ([]relation.TID, error) {
	dm := guard.Meter{Deadline: deadline}
	for r := 0; r < work.Len(); r++ {
		if err := dm.Tick(); err != nil {
			return outT, err
		}
		for s := ix.First(work.HashKey(r, step.probeCols)); s >= 0; s = ix.Next(s) {
			if !rows.KeyEqual(int(s), step.buildCols, work, r, step.probeCols) {
				continue // hash collision
			}
			out.AppendMerged(work, r, rows, int(s), lo)
			outT = append(outT, tids[r*nOps:(r+1)*nOps]...)
			outT[len(outT)-nOps+step.op] = rows.TIDs[s]
			if err := dm.Tick(); err != nil {
				return outT, err
			}
		}
	}
	return outT, nil
}

// crossStepVec joins the work batch with every row of kb and filters
// the product through the step's predicates one chunk of at most
// guard.CheckRows rows at a time, built in one reused scratch batch:
// only each chunk's survivors reach out, so the step holds what
// survives it plus one chunk, never the whole product. The deadline is
// read once per chunk.
func (v *vecEval) crossStepVec(cj *compiledJoin, out *batch.Batch, outT []relation.TID, work *batch.Batch, tids []relation.TID, kb *batch.Batch, step *probeStep) ([]relation.TID, error) {
	pool, nOps, lo := v.e.pool, len(cj.ops), cj.ops[step.op].lo
	size := min(work.Len()*kb.Len(), guard.CheckRows)
	chunk, ct := pool.Get(work.Schema, size), pool.GetTIDs(nOps*size)
	defer func() {
		// released: each chunk's survivors were copied to out.
		pool.Put(chunk)
		pool.PutTIDs(ct)
	}()
	for r := 0; r < work.Len(); r++ {
		for m := 0; m < kb.Len(); m++ {
			chunk.AppendMerged(work, r, kb, m, lo)
			ct = append(ct, tids[r*nOps:(r+1)*nOps]...)
			ct[len(ct)-nOps+step.op] = kb.TIDs[m]
			if chunk.Len() < guard.CheckRows && (r+1 < work.Len() || m+1 < kb.Len()) {
				continue
			}
			// A full chunk, or the last one.
			var err error
			if ct, err = v.applyPredsVec(cj, chunk, ct, step.preds); err != nil {
				return outT, err
			}
			for k := 0; k < chunk.Len(); k++ {
				out.AppendFrom(chunk, k)
			}
			outT = append(outT, ct...)
			chunk.Reset()
			ct = ct[:0]
			if err := guard.Overdue(v.ctx.Deadline); err != nil {
				return outT, err
			}
		}
	}
	return outT, nil
}

// netView nets a selection over paired windows (vecEval.paired) and
// renders the net change as result rows stamped with the execution's
// timestamp. Each tid reaches the view as a lone row or as its adjacent
// -old/+new pair, so netting is one forward pass with no grouping: a
// pair whose projected columns are equal cancels (the projection dropped
// every changed column), a pair that differs is one modification, a
// lone row an insertion or a deletion. Only the projected columns are
// compared or read; the rows' values share one flat owned backing, so
// the change does not reference the window. No net change renders
// nothing and returns nil.
func (v *vecEval) netView(w selView) []delta.Row {
	n := w.len()
	if n == 0 {
		return nil
	}
	b, pool := w.b, v.e.pool
	keep := pool.GetIdx(n) // window rows kept, a pair's two adjacent
	tids := 0
	for k := 0; k < n; k++ {
		i := w.at(k)
		if b.Signs[i] < 0 && k+1 < n {
			if j := w.at(k + 1); b.Signs[j] > 0 && b.TIDs[j] == b.TIDs[i] {
				k++
				if !b.KeyEqual(int(i), w.cols, b, int(j), w.cols) {
					keep = append(keep, i, j)
					tids++
				}
				continue
			}
		}
		keep = append(keep, i)
		tids++
	}
	var rows []delta.Row
	if tids > 0 {
		width := len(w.cols)
		flat := make([]relation.Value, len(keep)*width)
		rows = make([]delta.Row, 0, tids)
		render := func(i int32) []relation.Value {
			vals := flat[:width:width]
			flat = flat[width:]
			for c, ci := range w.cols {
				vals[c] = b.Value(int(i), ci)
			}
			return vals
		}
		for k := 0; k < len(keep); k++ {
			i := keep[k]
			row := delta.Row{TID: b.TIDs[i], TS: v.execTS}
			if b.Signs[i] > 0 {
				row.New = render(i)
			} else {
				row.Old = render(i)
				if k+1 < len(keep) && b.Signs[keep[k+1]] > 0 && b.TIDs[keep[k+1]] == row.TID {
					k++
					row.New = render(keep[k])
				}
			}
			rows = append(rows, row)
		}
	}
	// released: the kept rows are rendered.
	pool.PutIdx(keep)
	return rows
}

// netEntry is one distinct value-row of a tid's net group: the index of
// its first occurrence in the batch and the accumulated sign count.
type netEntry struct {
	row   int32
	count int32
}

// netGroup accumulates one tid's signed rows. The two inline entries
// cover the common shapes (a compacted window contributes at most a
// -old/+new pair per tid); the spill slice absorbs churn-heavy groups
// without growing the fixed part.
type netGroup struct {
	tid   relation.TID
	n     int32
	inl   [2]netEntry
	spill []netEntry
}

func (g *netGroup) entry(k int) *netEntry {
	if k < len(g.inl) {
		return &g.inl[k]
	}
	return &g.spill[k-len(g.inl)]
}

func (g *netGroup) add(e netEntry) {
	if int(g.n) < len(g.inl) {
		g.inl[g.n] = e
	} else {
		g.spill = append(g.spill, e)
	}
	g.n++
}

// netBatch reduces the signed batch to at most one negative and one
// positive row per tid by counting per (tid, value) and keeping nonzero
// nets, and renders each tid's net as one result row stamped with the
// execution's timestamp: a deletion, an insertion, or a modification
// pairing the two. This collapses the cross terms of the truth-table
// expansion (e.g. a tuple modified on both join sides contributes four
// signed rows that net to one -old and one +new), and is the netting of
// everything netView's premise does not cover: join outputs, computed
// projections, uncompacted windows. Candidate rows are compared in place
// (RowsEqual) — no row is materialized or hashed, so two distinct rows
// can never merge — and grouping is a flat group slice addressed through
// one tid index, so the pass costs O(1) allocations. The rows' values
// share one flat owned backing, so the change stays valid after the
// batch returns to the pool. No net change renders nothing and returns
// nil.
func (v *vecEval) netBatch(b *batch.Batch) []delta.Row {
	if b.Len() == 0 {
		return nil
	}
	width := b.Schema.Len()
	groupOf := make(map[relation.TID]int32, b.Len())
	groups := make([]netGroup, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		tid := b.TIDs[i]
		gi, ok := groupOf[tid]
		if !ok {
			gi = int32(len(groups))
			groupOf[tid] = gi
			groups = append(groups, netGroup{tid: tid})
		}
		g := &groups[gi]
		matched := false
		for k := 0; k < int(g.n); k++ {
			e := g.entry(k)
			if b.RowsEqual(int(e.row), i) {
				e.count += int32(b.Signs[i])
				matched = true
				break
			}
		}
		if !matched {
			g.add(netEntry{row: int32(i), count: int32(b.Signs[i])})
		}
	}
	// Entries sit in arrival order within each group and groups in
	// first-arrival order of their tid: a tid's net is its first
	// negative and its first positive entry. Count the halves first, so
	// the rendering allocates once.
	halves, nets := 0, 0
	for gi := range groups {
		negAt, posAt := groups[gi].net()
		if negAt >= 0 {
			halves++
		}
		if posAt >= 0 {
			halves++
		}
		if negAt >= 0 || posAt >= 0 {
			nets++
		}
	}
	if halves == 0 {
		return nil
	}
	flat := make([]relation.Value, halves*width)
	render := func(row int32) []relation.Value {
		vals := flat[:width:width]
		flat = flat[width:]
		b.ReadRow(int(row), vals)
		return vals
	}
	rows := make([]delta.Row, 0, nets)
	for gi := range groups {
		g := &groups[gi]
		negAt, posAt := g.net()
		if negAt < 0 && posAt < 0 {
			continue
		}
		row := delta.Row{TID: g.tid, TS: v.execTS}
		if negAt >= 0 {
			row.Old = render(negAt)
		}
		if posAt >= 0 {
			row.New = render(posAt)
		}
		rows = append(rows, row)
	}
	return rows
}

// net returns the batch rows of the group's first negative and first
// positive entry, -1 for a half the group nets without.
func (g *netGroup) net() (negAt, posAt int32) {
	negAt, posAt = -1, -1
	for k := 0; k < int(g.n); k++ {
		e := g.entry(k)
		switch {
		case e.count < 0 && negAt < 0:
			negAt = e.row
		case e.count > 0 && posAt < 0:
			posAt = e.row
		}
	}
	return negAt, posAt
}
