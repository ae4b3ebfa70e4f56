package dra

import (
	"fmt"
	"sync"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
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
// vecEval itself is pooled too (vecEvals), its lists, the join kernel's
// scratch and netBatch's grouping scratch keeping their capacity from
// one refresh to the next.
type vecEval struct {
	e      *Engine
	ctx    *Context
	execTS vclock.Timestamp
	st     *Stats
	owned  []*batch.Batch
	idx    [][]int32
	// seeding marks the step from the empty state (a seed: every window
	// is its table's image); float a seed from a source without a
	// timestamp (telescopeJoin, ready).
	seeding, float bool
	// relevant records that some maximal join-free subtree's filtered
	// window was non-empty: the relevance test of Section 5.2, answered
	// by the evaluation itself.
	relevant bool
	// scans are the step's own windows, one per table (window).
	scans []scanned
	// term, corrs and aheads are telescopeJoin's partner inputs,
	// corrections and images past the step; cix is the hash index a
	// probe builds over a correction.
	term   []vecInput
	corrs  []correction
	aheads []aheadImage
	cix    relation.SlotIndex
	// groupOf and groups are netBatch's tid index and groups, emptied
	// after each use in O(groups), not O(capacity) (resetNet).
	groupOf map[relation.TID]int32
	groups  []netGroup
}

// scanned is one table's window as the step reads it: the round's
// shared image (shared), or the scan's own conversion of ctx.Deltas.
type scanned struct {
	table  string
	b      *batch.Batch
	shared bool
}

// vecEvals recycles evaluator states across refreshes and engines.
var vecEvals = sync.Pool{New: func() any { return new(vecEval) }}

// newVecEval takes an evaluator state from the pool; release returns it.
func newVecEval(e *Engine, ctx *Context, execTS vclock.Timestamp, st *Stats) *vecEval {
	v := vecEvals.Get().(*vecEval)
	*v = vecEval{e: e, ctx: ctx, execTS: execTS, st: st, owned: v.owned[:0], idx: v.idx[:0]}.keep(v)
	return v
}

// keep carries w's reusable scratch over into v.
func (v vecEval) keep(w *vecEval) vecEval {
	v.scans, v.term, v.corrs, v.aheads = w.scans[:0], w.term[:0], w.corrs[:0], w.aheads[:0]
	v.cix, v.groupOf, v.groups = w.cix, w.groupOf, w.groups
	return v
}

// vecEvaluate runs the differential evaluation over typed columnar
// batches and nets the result into res. A join moves the arrangements
// it reads to the step's timestamp before its terms run
// (telescopeJoin), so an error leaves no state of the plan's behind.
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
		v.netView(w, res)
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
	clear(v.scans)
	clear(v.term)
	clear(v.corrs)
	clear(v.aheads)
	v.cix.Reset()
	*v = vecEval{owned: v.owned[:0], idx: v.idx[:0]}.keep(v)
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
// evaluation must not write (shared), or the scan's own conversion —
// with output column j in b's column cols[j]. Its consumer nets it
// straight into the result's change (netView) or copies it out once
// (nodeBatch).
type selView struct {
	b      *batch.Batch
	shared bool
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
	if w.b, w.shared, err = v.window(s.scan); err != nil {
		return w, err
	}
	v.st.DeltaRows += w.b.Len()
	w.sel, err = v.filterRows(s, w.b, nil)
	return w, err
}

// filterRows runs a selection's predicates over the rows in (nil: all)
// of b, which has the selection's scan schema, and returns the
// surviving row indices (in itself when there is no predicate), owned
// by the evaluation.
func (v *vecEval) filterRows(s *selection, b *batch.Batch, in []int32) ([]int32, error) {
	pool := v.e.pool
	sel := in
	for _, pred := range s.preds {
		n := viewLen(b, sel)
		if n == 0 {
			break
		}
		var err error
		sel, err = algebra.SelectBatch(pred, b, sel, pool.GetIdx(n), pool)
		v.idx = append(v.idx, sel)
		if err != nil {
			return sel, fmt.Errorf("dra: select: %w", err)
		}
	}
	return sel, nil
}

// window produces the table's differential window as a signed batch
// with the scan's column types, once per table and step: the view of
// each operand over the table reads it, and so does the advance of the
// table's arrangement. When the context carries a prebuilt columnar
// window (built once by the window cache and shared by every CQ at the
// round timestamp) and no further compaction would apply, that batch is
// the scan, read in place (shared); otherwise the scan converts the row
// window into a pooled batch.
func (v *vecEval) window(n *algebra.ScanPlan) (b *batch.Batch, shared bool, err error) {
	for _, s := range v.scans {
		if s.table == n.Table {
			return s.b, s.shared, nil
		}
	}
	if b, shared, err = v.convert(n); err == nil {
		v.scans = append(v.scans, scanned{table: n.Table, b: b, shared: shared})
	}
	return b, shared, err
}

// convert is window's first read of a table.
func (v *vecEval) convert(n *algebra.ScanPlan) (b *batch.Batch, shared bool, err error) {
	e := v.e
	if pre := v.ctx.Batches[n.Table]; pre != nil && (!e.CompactDeltas || v.ctx.Compacted) {
		return pre, true, nil
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
				return nil, false, nonConforming("window of " + n.Table)
			}
		}
	}
	return out, false, nil
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

// vecInput is one operand's relation within a term: the seeding
// operand's signed window batch (b), or a partner's state — the
// arrangement of its table read through its view, plus its correction
// rows (telescopeJoin), whose maintained hash indexes the hash step
// probes directly.
type vecInput struct {
	b    *batch.Batch
	arr  *arrangement
	view *selection
	corr *batch.Batch
}

// length bounds the partner's rows from above: the arrangement's table
// before the view filters it, plus the correction; 0 means none.
func (t *vecInput) length() int {
	if t.arr == nil {
		return t.b.Len()
	}
	n := t.arr.t.Len()
	if t.corr != nil {
		n += t.corr.Len()
	}
	return n
}

// enumerate returns a partner's rows as a batch in its view's schema,
// built on first use: the arrangement's live rows the view keeps, then
// the correction (cross steps enumerate; hash steps probe the index and
// never call this).
func (v *vecEval) enumerate(t *vecInput) (*batch.Batch, error) {
	if t.b != nil {
		return t.b, nil
	}
	rows, pool := t.arr.t.Rows(), v.e.pool
	live := pool.GetIdx(t.arr.t.Len())
	v.idx = append(v.idx, live)
	for s := 0; s < rows.Len(); s++ {
		if rows.Signs[s] != 0 {
			live = append(live, int32(s))
		}
	}
	v.idx[len(v.idx)-1] = live
	sel, err := v.filterRows(t.view, rows, live)
	if err != nil {
		return nil, err
	}
	n := len(sel)
	if t.corr != nil {
		n += t.corr.Len()
	}
	b := v.own(pool.Get(t.view.schema, n))
	b.AppendSelected(rows, sel, t.view.cols)
	for k := 0; t.corr != nil && k < t.corr.Len(); k++ {
		b.AppendFrom(t.corr, k)
	}
	t.b = b
	return b, nil
}

// joinBatch computes the signed delta of a join group by telescoping
// over its arrangements, which end the call at execTS or past it.
func (v *vecEval) joinBatch(cj *compiledJoin) (*batch.Batch, error) {
	deltas := make([]*batch.Batch, len(cj.ops))
	for i := range cj.ops {
		d, err := v.nodeBatch(cj.opNodes[i])
		if err != nil {
			return nil, err
		}
		deltas[i] = d
		if d.Len() > 0 && cj.opNodes[i].joinFree() {
			v.relevant = true
		}
	}
	out, err := v.telescopeJoin(cj, deltas)
	if out == nil && err == nil {
		out = v.own(v.e.pool.Get(cj.outSchema, 0))
	}
	return out, err
}

// runTerm joins one term's operand inputs along its resolved plan,
// multiplying signs and applying predicates as soon as their operands
// are joined, and adds the term's signed rows to out (nil adopts the
// term's own final batch, saving the copy when a refresh has a single
// term). The in-progress join state is a pooled work batch over the
// flattened schema (unfilled operand ranges hold placeholders that no
// ready predicate can read) plus a pooled row-major provenance buffer
// of one TID per operand per row.
func (v *vecEval) runTerm(cj *compiledJoin, tp *termPlan, term []vecInput, out *batch.Batch) (*batch.Batch, error) {
	pool := v.e.pool
	nOps := len(cj.ops)
	fb := term[tp.first].b
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
		in := &term[step.op]
		v.st.JoinProbeRows += work.Len()
		nw := v.own(pool.Get(work.Schema, work.Len()))
		nt := pool.GetTIDs(len(tids))
		cross := len(step.buildCols) == 0
		if cross {
			var kb *batch.Batch
			if kb, err = v.enumerate(in); err == nil {
				nt, err = v.crossStepVec(cj, nw, nt, work, tids, kb, step)
			}
		} else {
			nt, err = v.hashStepVec(cj, nw, nt, work, tids, in, step)
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

// hashStepVec joins the work batch with one partner by walking the flat
// hash index its arrangement maintains over its slots, verifying each
// candidate against the columns, and then its correction rows the same
// way through a scratch index. The arrangement's candidates are
// collected first and the partner's view filters them column at a time
// (filterPairs), so only survivors are merged into the output batch and
// provenance buffer. Every row it probes or emits ticks the deadline's
// meter, so a hot key stops mid-probe too.
func (v *vecEval) hashStepVec(cj *compiledJoin, out *batch.Batch, outT []relation.TID, work *batch.Batch, tids []relation.TID, in *vecInput, step *probeStep) ([]relation.TID, error) {
	dm := guard.Meter{Deadline: v.ctx.Deadline}
	nOps, lo := len(cj.ops), cj.ops[step.op].lo
	rows, ix := in.arr.t.Rows(), &step.key.ix
	emit := func(r int, src *batch.Batch, m int, cols []int) {
		out.AppendMerged(work, r, src, m, lo, cols)
		outT = append(outT, tids[r*nOps:(r+1)*nOps]...)
		outT[len(outT)-nOps+step.op] = src.TIDs[m]
	}
	pool := v.e.pool
	at, slots := pool.GetIdx(work.Len()), pool.GetIdx(work.Len())
	v.idx = append(v.idx, at, slots)
	for r := 0; r < work.Len(); r++ {
		if err := dm.Tick(); err != nil {
			return outT, err
		}
		for s := ix.First(work.HashKey(r, step.probeCols)); s >= 0; s = ix.Next(s) {
			if rows.KeyEqual(int(s), step.keyCols, work, r, step.probeCols) { // else a hash collision
				at, slots = append(at, int32(r)), append(slots, s)
			}
		}
	}
	v.idx[len(v.idx)-2], v.idx[len(v.idx)-1] = at, slots
	at, slots, err := v.filterPairs(in.view, rows, at, slots)
	if err != nil {
		return outT, err
	}
	for k, r := range at {
		emit(int(r), rows, int(slots[k]), in.view.cols)
		if err := dm.Tick(); err != nil {
			return outT, err
		}
	}
	c := in.corr
	if c == nil || c.Len() == 0 {
		return outT, nil
	}
	v.cix.Reset()
	for k := 0; k < c.Len(); k++ {
		v.cix.Insert(int32(k), c.HashKey(k, step.buildCols))
	}
	for r := 0; r < work.Len(); r++ {
		for k := v.cix.First(work.HashKey(r, step.probeCols)); k >= 0; k = v.cix.Next(k) {
			if c.KeyEqual(int(k), step.buildCols, work, r, step.probeCols) {
				emit(r, c, int(k), nil)
			}
		}
		if err := dm.Tick(); err != nil {
			return outT, err
		}
	}
	return outT, nil
}

// filterPairs keeps the candidate pairs (work row at[k], arrangement
// slot slots[k]) whose slot the view's predicates keep, compacting both
// lists in place. SelectBatch keeps a subsequence of the slots it is
// given, in order, so each survivor is matched back to its pair by one
// forward walk.
func (v *vecEval) filterPairs(view *selection, rows *batch.Batch, at, slots []int32) ([]int32, []int32, error) {
	if len(slots) == 0 || len(view.preds) == 0 {
		return at, slots, nil
	}
	kept, err := v.filterRows(view, rows, slots)
	if err != nil {
		return nil, nil, err
	}
	n, p := 0, 0
	for k, s := range slots {
		if p < len(kept) && kept[p] == s {
			at[n], slots[n] = at[k], s
			n, p = n+1, p+1
		}
	}
	return at[:n], slots[:n], nil
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
			chunk.AppendMerged(work, r, kb, m, lo, nil)
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

// netView nets a selection over paired windows (vecEval.paired) into
// res's change. Each tid reaches the view as a lone row or as its
// adjacent -old/+new pair, so netting is one forward pass with no
// grouping: a pair whose projected columns are equal cancels (the
// projection dropped every changed column), a pair that differs is one
// modification, a lone row an insertion or a deletion. Only the
// projected columns are compared. Over the round's shared image the net
// change stays columnar — the kept row indices over the image, which
// nobody writes or recycles (batch.Change) — and renders rows only when
// a reader asks for them; over the scan's own pooled conversion it is
// rendered now (batch.NetRows), since that batch returns to the pool
// when the evaluation ends. No net change reports res's empty Delta.
func (v *vecEval) netView(w selView, res *Result) {
	n := w.len()
	if n == 0 {
		res.setRows(w.schema, nil)
		return
	}
	b, pool := w.b, v.e.pool
	keep := pool.GetIdx(n) // window rows kept, a pair's two adjacent
	for k := 0; k < n; k++ {
		i := w.at(k)
		if b.Signs[i] < 0 && k+1 < n {
			if j := w.at(k + 1); b.Signs[j] > 0 && b.TIDs[j] == b.TIDs[i] {
				k++
				if !b.KeyEqual(int(i), w.cols, b, int(j), w.cols) {
					keep = append(keep, i, j)
				}
				continue
			}
		}
		keep = append(keep, i)
	}
	switch {
	case len(keep) == 0:
		res.setRows(w.schema, nil)
	case w.shared:
		c := new(batch.Change)
		c.Init(w.schema, b, keep, w.cols, v.execTS, v.renderCounter())
		res.setChange(c)
	default:
		res.setRows(w.schema, batch.NetRows(b, keep, w.cols, v.execTS))
	}
	// released: the kept rows are copied out or rendered.
	pool.PutIdx(keep)
}

// renderCounter is dra.changes_rendered, or nil on an uninstrumented
// engine.
func (v *vecEval) renderCounter() *obs.Counter {
	if m := v.e.Metrics; m != nil {
		return m.ChangesRendered
	}
	return nil
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
// pairing the two. This collapses what the join terms emit for one tid
// (e.g. a tuple modified on both join sides contributes four signed
// rows that net to one -old and one +new), and is the netting of
// everything netView's premise does not cover: join outputs, computed
// projections, uncompacted windows. Candidate rows are compared in place
// (RowsEqual) — no row is materialized or hashed, so two distinct rows
// can never merge — and grouping is a flat group slice addressed through
// one tid index, both kept on the pooled evaluator, so a steady stream
// of refreshes groups without allocating. The rows' values share one
// flat owned backing, so the change stays valid after the batch returns
// to the pool. No net change renders nothing and returns nil.
func (v *vecEval) netBatch(b *batch.Batch) []delta.Row {
	if b.Len() == 0 {
		return nil
	}
	width := b.Schema.Len()
	groups := v.group(b)
	defer v.resetNet()
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

// group counts the signed rows of b per (tid, row) into the
// evaluator's grouping scratch: one group per tid, in first-arrival
// order, each holding its distinct rows with their summed signs.
// Candidate rows are compared in place (RowsEqual), so two distinct
// rows never merge. The caller empties the scratch (resetNet).
func (v *vecEval) group(b *batch.Batch) []netGroup {
	if v.groupOf == nil {
		v.groupOf = make(map[relation.TID]int32, b.Len())
	}
	groupOf, groups := v.groupOf, v.groups
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
	v.groups = groups
	return groups
}

// cancel reduces a signed batch to its net multiset: each distinct
// (tid, row) once per unit of its summed sign, in first-arrival order
// of the tids. A join whose terms read corrections emits ± pairs beside
// the arrangements' rows; this takes them out before anything that is
// not a netting (a group table's fold) reads the batch.
func (v *vecEval) cancel(b *batch.Batch) *batch.Batch {
	groups := v.group(b)
	defer v.resetNet()
	out := v.own(v.e.pool.Get(b.Schema, b.Len()))
	for gi := range groups {
		g := &groups[gi]
		for k := 0; k < int(g.n); k++ {
			e := g.entry(k)
			for c := e.count; c != 0; {
				out.AppendFrom(b, int(e.row))
				if c > 0 {
					out.Signs[out.Len()-1], c = +1, c-1
				} else {
					out.Signs[out.Len()-1], c = -1, c+1
				}
			}
		}
	}
	return out
}

// maxPooledNet bounds the grouping scratch an evaluator keeps: a
// refresh that grouped more tids leaves its map and groups to the
// collector rather than pinning them in the pool.
const maxPooledNet = 1 << 14

// resetNet empties netBatch's scratch by deleting the keys its groups
// name — O(groups this call made), where clearing the map would cost
// its high-water capacity — and drops the groups' spill slices.
func (v *vecEval) resetNet() {
	if len(v.groups) > maxPooledNet {
		v.groupOf, v.groups = nil, nil
		return
	}
	for i := range v.groups {
		delete(v.groupOf, v.groups[i].tid)
	}
	clear(v.groups)
	v.groups = v.groups[:0]
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
