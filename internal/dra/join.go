package dra

import (
	"errors"
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/vclock"
)

// maxChangedOperands caps the truth-table width; beyond it (4096 terms)
// complete re-evaluation is cheaper and Reevaluate falls back to
// Propagate.
const maxChangedOperands = 12

// operand is one leaf of the flattened join expression: a maximal
// join-free subtree (Scan, possibly under Selects from predicate
// pushdown).
type operand struct {
	plan   algebra.Plan
	lo, hi int // column range in the flattened output schema
}

// flatten decomposes a plan subtree into join operands and the list of
// cross-operand predicate conjuncts collected from Join ON clauses.
// Operand column ranges follow the left-deep concatenation order, so the
// flattened output schema equals the subtree's schema.
func flatten(p algebra.Plan) ([]*operand, []sql.Expr, error) {
	var ops []*operand
	var preds []sql.Expr
	var walk func(algebra.Plan) error
	col := 0
	walk = func(p algebra.Plan) error {
		if j, ok := p.(*algebra.JoinPlan); ok {
			if err := walk(j.Left); err != nil {
				return err
			}
			if err := walk(j.Right); err != nil {
				return err
			}
			if j.On != nil {
				preds = append(preds, algebra.SplitConjuncts(j.On)...)
			}
			return nil
		}
		width := p.Schema().Len()
		ops = append(ops, &operand{plan: p, lo: col, hi: col + width})
		col += width
		return nil
	}
	if err := walk(p); err != nil {
		return nil, nil, err
	}
	return ops, preds, nil
}

// termInput is one operand's relation within a truth-table term: the
// signed rows to enumerate, or — when the operand is an unsubstituted
// pre-state served by a prepared plan's cache — the live cache entry,
// whose maintained hash indexes the hash step probes directly instead
// of building a transient index per term.
type termInput struct {
	signed *delta.Signed
	ent    *replica
}

func (t termInput) len() int {
	if t.ent != nil {
		return t.ent.live
	}
	return t.signed.Len()
}

// rows returns the signed enumeration of the input (building the cached
// replica's +1 view lazily).
func (t termInput) rows() *delta.Signed {
	if t.ent != nil {
		return t.ent.signedView()
	}
	return t.signed
}

// joinDelta computes the signed delta of a join group by truth-table
// expansion (Algorithm 1, steps 1-3), against the group's compiled
// predicates and — when prepared — its cross-refresh operand cache.
func (e *Engine) joinDelta(cj *compiledJoin, ctx *Context, execTS vclock.Timestamp, st *Stats) (*delta.Signed, error) {
	deltas := make([]*delta.Signed, len(cj.ops))
	var changed []int
	for i := range cj.ops {
		d, err := e.signedDelta(cj.opNodes[i], ctx, execTS, st)
		if err != nil {
			return nil, err
		}
		deltas[i] = d
		if d.Len() > 0 {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		if cj.cache != nil {
			cj.cache.advanceSigned(ctx, execTS, deltas)
		}
		return &delta.Signed{Schema: cj.outSchema}, nil
	}
	if len(changed) > maxChangedOperands {
		// Complete re-evaluation; the cache is left behind and will
		// revalidate by table version or rebuild at the next refresh.
		return PropagateSigned(cj.plan, ctx.Pre, ctx.Post)
	}

	// Lazily materialized pre-states for unsubstituted operands, served
	// from the cache when one is attached.
	pres := make([]termInput, len(cj.ops))
	have := make([]bool, len(cj.ops))
	preOf := func(i int) (termInput, error) {
		if !have[i] {
			ti, err := e.operandPre(cj, i, ctx, st)
			if err != nil {
				return termInput{}, err
			}
			pres[i] = ti
			have[i] = true
		}
		return pres[i], nil
	}

	out := &delta.Signed{Schema: cj.outSchema}
	k := len(changed)
	for mask := 1; mask < 1<<k; mask++ {
		term := make([]termInput, len(cj.ops))
		isDelta := make([]bool, len(cj.ops))
		empty := false
		for i := range cj.ops {
			substituted := false
			for b, ci := range changed {
				if ci == i && mask&(1<<b) != 0 {
					substituted = true
					break
				}
			}
			if substituted {
				term[i] = termInput{signed: deltas[i]}
				isDelta[i] = true
			} else {
				p, err := preOf(i)
				if err != nil {
					return nil, err
				}
				term[i] = p
			}
			if term[i].len() == 0 {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		st.Terms++
		rows, err := e.evalTerm(cj, term, isDelta, st)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, rows...)
	}
	if cj.cache != nil {
		cj.cache.advanceSigned(ctx, execTS, deltas)
	}
	return out, nil
}

// operandPre materializes operand i's pre-state: from the cross-refresh
// cache when the join is prepared and the operand fits typed columns,
// transiently from the last-execution snapshot otherwise.
func (e *Engine) operandPre(cj *compiledJoin, i int, ctx *Context, st *Stats) (termInput, error) {
	if cj.cache != nil {
		ent, err := cj.cache.pre(i, ctx, st)
		if err == nil {
			return termInput{ent: ent}, nil
		}
		if !errors.Is(err, errVecFallback) {
			return termInput{}, err
		}
	}
	ex := algebra.NewExecutor(ctx.Pre)
	ex.UseHashJoin = e.UseHashJoin
	rel, err := ex.Execute(cj.ops[i].plan)
	if err != nil {
		return termInput{}, fmt.Errorf("dra: operand pre-state: %w", err)
	}
	st.PreTuplesScanned += rel.Len()
	out := &delta.Signed{Schema: rel.Schema(), Rows: make([]delta.SignedRow, 0, rel.Len())}
	for _, t := range rel.Tuples() {
		out.Rows = append(out.Rows, delta.SignedRow{TID: t.TID, Values: t.Values, Sign: +1})
	}
	return termInput{signed: out}, nil
}

// compilePreds compiles each cross-operand conjunct against the flattened
// schema and computes the bitmask of operands each references.
func compilePreds(preds []sql.Expr, outSchema relation.Schema, ops []*operand) ([]algebra.CompiledExpr, []uint64, error) {
	compiled := make([]algebra.CompiledExpr, len(preds))
	masks := make([]uint64, len(preds))
	for i, p := range preds {
		ce, err := algebra.Compile(p, outSchema)
		if err != nil {
			return nil, nil, fmt.Errorf("dra: join predicate: %w", err)
		}
		compiled[i] = ce
		for _, col := range algebra.ColumnsOf(p) {
			idx, ok := outSchema.ColIndex(col)
			if !ok {
				return nil, nil, fmt.Errorf("dra: join predicate column %q not in schema", col)
			}
			for oi, op := range ops {
				if idx >= op.lo && idx < op.hi {
					masks[i] |= 1 << uint(oi)
					break
				}
			}
		}
	}
	return compiled, masks, nil
}

// partial is an in-progress joined row during term evaluation.
type partial struct {
	vals []relation.Value // full output width; unfilled ranges are zero
	sign int
	tids []relation.TID // per-operand provenance
}

// evalTerm joins the term's operand relations, multiplying signs and
// applying predicates as soon as all referenced operands are joined.
func (e *Engine) evalTerm(cj *compiledJoin, term []termInput, isDelta []bool, st *Stats) ([]delta.SignedRow, error) {
	tp := cj.planTerm(e.termOrder(cj, term, isDelta), e.UseHashJoin)
	width := cj.outSchema.Len()

	// Seed with the first operand.
	first := cj.ops[tp.first]
	seed := term[tp.first].rows()
	cur := make([]*partial, 0, len(seed.Rows))
	for _, r := range seed.Rows {
		vals := make([]relation.Value, width)
		copy(vals[first.lo:first.hi], r.Values)
		tids := make([]relation.TID, len(cj.ops))
		tids[tp.first] = r.TID
		cur = append(cur, &partial{vals: vals, sign: r.Sign, tids: tids})
	}
	cur, err := applyPreds(cur, cj, tp.seedPreds)
	if err != nil {
		return nil, err
	}

	for i := range tp.steps {
		if len(cur) == 0 {
			return nil, nil
		}
		step := &tp.steps[i]
		if len(step.buildCols) > 0 {
			cur = hashStep(cur, term[step.op], cj.ops[step.op], step, st)
		} else {
			cur = loopStep(cur, term[step.op].rows(), cj.ops[step.op], step.op)
		}
		if cur, err = applyPreds(cur, cj, step.preds); err != nil {
			return nil, err
		}
	}

	rows := make([]delta.SignedRow, 0, len(cur))
	for _, p := range cur {
		tid := p.tids[0]
		for i := 1; i < len(p.tids); i++ {
			tid = relation.CombineTIDs(tid, p.tids[i])
		}
		rows = append(rows, delta.SignedRow{TID: tid, Values: p.vals, Sign: p.sign})
	}
	return rows, nil
}

// termOrder picks the operand join order: with heuristics, the smallest
// delta operand first, then greedily the operand connected by an equi
// predicate with the smallest relation; without, left-to-right.
func (e *Engine) termOrder(cj *compiledJoin, term []termInput, isDelta []bool) []int {
	lens := make([]int, len(term))
	for i := range term {
		lens[i] = term[i].len()
	}
	return e.termOrderBy(cj, lens, isDelta)
}

// termOrderBy is termOrder on operand sizes alone, so the row and
// columnar term evaluators share one ordering policy.
func (e *Engine) termOrderBy(cj *compiledJoin, lens []int, isDelta []bool) []int {
	n := len(cj.ops)
	order := make([]int, 0, n)
	if !e.UseHeuristics {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	used := make([]bool, n)
	// Start with the smallest delta operand (there is at least one in
	// every term).
	best := -1
	for i := 0; i < n; i++ {
		if isDelta[i] && (best == -1 || lens[i] < lens[best]) {
			best = i
		}
	}
	if best == -1 {
		best = 0
	}
	order = append(order, best)
	used[best] = true
	var filled uint64 = 1 << uint(best)

	for len(order) < n {
		next := -1
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			if next == -1 {
				next = k
				continue
			}
			nc, kc := cj.equiLinked(filled, next), cj.equiLinked(filled, k)
			switch {
			case kc && !nc:
				next = k
			case kc == nc && lens[k] < lens[next]:
				next = k
			}
		}
		order = append(order, next)
		used[next] = true
		filled |= 1 << uint(next)
	}
	return order
}

func isEquiConjunct(p sql.Expr) bool {
	be, ok := p.(*sql.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	_, l := be.L.(*sql.ColumnRef)
	_, r := be.R.(*sql.ColumnRef)
	return l && r
}

// hashStep joins the current partials with operand step.op through a
// hash index on the step's key columns: the maintained index of a
// cached pre-state replica when one is attached, a transient per-term
// index otherwise.
func hashStep(cur []*partial, in termInput, op *operand, step *probeStep, st *Stats) []*partial {
	var out []*partial
	probe := make([]relation.Value, len(step.probeCols))
	if ent := in.ent; ent != nil {
		ix := ent.index(step.buildCols, st)
		for _, p := range cur {
			for i, c := range step.probeCols {
				probe[i] = p.vals[c]
			}
			for s := ix.First(relation.HashValues(probe)); s >= 0; s = ix.Next(s) {
				if ent.keyIs(int(s), step.buildCols, probe) {
					np := extendPartial(p, step.op, ent.rows.TIDs[s], 1)
					ent.rows.ReadRow(int(s), np.vals[op.lo:op.hi])
					out = append(out, np)
				}
			}
		}
		return out
	}
	rel := in.signed
	idx := make(map[uint64][]delta.SignedRow, rel.Len())
	key := make([]relation.Value, len(step.buildCols))
	for _, r := range rel.Rows {
		for i, c := range step.buildCols {
			key[i] = r.Values[c]
		}
		h := relation.HashValues(key)
		idx[h] = append(idx[h], r)
	}
	for _, p := range cur {
		for i, c := range step.probeCols {
			probe[i] = p.vals[c]
		}
		for _, r := range idx[relation.HashValues(probe)] {
			// Verify against collisions.
			match := true
			for i, c := range step.buildCols {
				if !r.Values[c].Equal(probe[i]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, mergePartial(p, r, op, step.op))
			}
		}
	}
	return out
}

// loopStep joins the current partials with operand k by nested loops;
// predicates are applied afterwards.
func loopStep(cur []*partial, rel *delta.Signed, op *operand, opIdx int) []*partial {
	out := make([]*partial, 0, len(cur))
	for _, p := range cur {
		for _, r := range rel.Rows {
			out = append(out, mergePartial(p, r, op, opIdx))
		}
	}
	return out
}

// extendPartial copies p with operand opIdx's provenance and sign
// factor set; the caller fills the operand's value range.
func extendPartial(p *partial, opIdx int, tid relation.TID, sign int) *partial {
	vals := make([]relation.Value, len(p.vals))
	copy(vals, p.vals)
	tids := make([]relation.TID, len(p.tids))
	copy(tids, p.tids)
	tids[opIdx] = tid
	return &partial{vals: vals, sign: p.sign * sign, tids: tids}
}

func mergePartial(p *partial, r delta.SignedRow, op *operand, opIdx int) *partial {
	np := extendPartial(p, opIdx, r.TID, r.Sign)
	copy(np.vals[op.lo:op.hi], r.Values)
	return np
}

// applyPreds filters the partials through the listed conjuncts.
func applyPreds(cur []*partial, cj *compiledJoin, preds []int) ([]*partial, error) {
	for _, pi := range preds {
		out := cur[:0]
		for _, p := range cur {
			ok, err := algebra.EvalPredicate(cj.cPreds[pi], relation.Tuple{Values: p.vals})
			if err != nil {
				return nil, fmt.Errorf("dra: term predicate: %w", err)
			}
			if ok {
				out = append(out, p)
			}
		}
		cur = out
	}
	return cur, nil
}
