package dra

import (
	"fmt"
	"slices"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// compiledNode is the refresh-invariant compilation of one SPJ plan
// node: every algebra.Compile result, join binding, and predicate mask
// the differential evaluator needs, derived once so that a refresh only
// pays for delta rows. Exactly one of the kind fields is set.
//
// Reevaluate builds a transient tree per call; Prepare builds one at CQ
// registration and reuses it for the life of the query.
type compiledNode struct {
	plan algebra.Plan
	scan *algebra.ScanPlan
	sel  *compiledSelect
	proj *compiledProject
	join *compiledJoin

	// view is set when the subtree has the shape the evaluator reads
	// straight off its scan's window (selection); the kind field above is
	// then not evaluated.
	view *selection
}

// selection is the compiled form of a join-free subtree
// [Project(bare columns)]([Select]...(Scan)): selection and projection
// are linear, so the subtree's signed change is a subset of the scan's
// window rows under a column map — no operator between the window and
// the subtree's consumer builds a batch of its own (selView).
type selection struct {
	scan *algebra.ScanPlan
	// preds are the selections, innermost first, compiled against the
	// scan's schema.
	preds []algebra.CompiledExpr
	// cols maps output column j to scan column cols[j]; projected is set
	// once a projection has shaped them, after which a further Select's
	// predicate no longer reads the scan's columns.
	cols      []int
	projected bool
	schema    relation.Schema
}

type compiledSelect struct {
	input *compiledNode
	pred  algebra.CompiledExpr
}

type compiledProject struct {
	input  *compiledNode
	items  []algebra.CompiledExpr
	schema relation.Schema
}

// equiBind is the pre-resolved form of one equi conjunct (column =
// column): the two full-width column indexes, looked up once instead of
// per term.
type equiBind struct {
	ok     bool // the conjunct is col = col
	li, ri int  // full-width column indexes of the two sides
}

// compiledJoin owns everything refresh-invariant about one flattened
// join group: its operands with their compiled subtrees, the
// cross-operand conjuncts compiled against the flattened schema, each
// conjunct's operand bitmask, and the resolved equi-join bindings.
type compiledJoin struct {
	plan      *algebra.JoinPlan
	ops       []*operand
	opNodes   []*compiledNode
	preds     []sql.Expr
	cPreds    []algebra.CompiledExpr
	masks     []uint64
	equi      []equiBind
	outSchema relation.Schema

	// cache holds the operand replicas and their hash indexes across
	// refreshes, and decides the group's kernel: with it the group
	// telescopes over the replicas (telescopeJoin), without it — the
	// transient Reevaluate path — it runs Algorithm 1's truth table over
	// the pre-state snapshot. Set by attachReplicas.
	cache *opCache
}

// compilePlan builds the compiled mirror of an SPJ plan. Plans outside
// the SPJ class (aggregates, distinct, sort, limit) are rejected;
// callers gate on supportsDifferential first.
func compilePlan(p algebra.Plan) (*compiledNode, error) {
	switch n := p.(type) {
	case *algebra.ScanPlan:
		cols := make([]int, n.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		return &compiledNode{plan: p, scan: n, view: &selection{scan: n, cols: cols, schema: n.Schema()}}, nil
	case *algebra.SelectPlan:
		in, err := compilePlan(n.Input)
		if err != nil {
			return nil, err
		}
		ce, err := algebra.Compile(n.Pred, n.Input.Schema())
		if err != nil {
			return nil, err
		}
		out := &compiledNode{plan: p, sel: &compiledSelect{input: in, pred: ce}}
		if v := in.view; v != nil && !v.projected {
			sel := *v
			sel.preds = append(slices.Clip(v.preds), ce)
			out.view = &sel
		}
		return out, nil
	case *algebra.ProjectPlan:
		in, err := compilePlan(n.Input)
		if err != nil {
			return nil, err
		}
		items := make([]algebra.CompiledExpr, len(n.Items))
		for i, it := range n.Items {
			ce, err := algebra.Compile(it.Expr, n.Input.Schema())
			if err != nil {
				return nil, err
			}
			items[i] = ce
		}
		return newProjectNode(p, in, items, p.Schema()), nil
	case *algebra.JoinPlan:
		return compileJoin(n)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedPlan, p)
	}
}

// newProjectNode compiles a projection of in to the given items. Items
// that are all bare column references over a selection keep the subtree
// a selection: the projection is a column map.
func newProjectNode(p algebra.Plan, in *compiledNode, items []algebra.CompiledExpr, schema relation.Schema) *compiledNode {
	out := &compiledNode{plan: p, proj: &compiledProject{input: in, items: items, schema: schema}}
	v := in.view
	if v == nil {
		return out
	}
	cols := make([]int, len(items))
	for i, ce := range items {
		ci, ok := algebra.ColumnIndexOf(ce)
		if !ok || schema.Col(i).Type != v.schema.Col(ci).Type {
			return out
		}
		cols[i] = v.cols[ci]
	}
	out.view = &selection{scan: v.scan, preds: v.preds, cols: cols, projected: true, schema: schema}
	return out
}

// compileJoin flattens a join subtree and resolves what no refresh or
// term should re-derive: compiled conjuncts, operand masks, equi
// bindings.
func compileJoin(n *algebra.JoinPlan) (*compiledNode, error) {
	ops, preds, err := flatten(n)
	if err != nil {
		return nil, err
	}
	opNodes := make([]*compiledNode, len(ops))
	for i, op := range ops {
		opNodes[i], err = compilePlan(op.plan)
		if err != nil {
			return nil, err
		}
	}
	outSchema := n.Schema()
	cPreds, masks, err := compilePreds(preds, outSchema, ops)
	if err != nil {
		return nil, err
	}
	equi := make([]equiBind, len(preds))
	for i, p := range preds {
		if !isEquiConjunct(p) {
			continue
		}
		be := p.(*sql.BinaryExpr)
		li, lok := outSchema.ColIndex(be.L.(*sql.ColumnRef).Name)
		ri, rok := outSchema.ColIndex(be.R.(*sql.ColumnRef).Name)
		if lok && rok {
			equi[i] = equiBind{ok: true, li: li, ri: ri}
		}
	}
	cj := &compiledJoin{
		plan:      n,
		ops:       ops,
		opNodes:   opNodes,
		preds:     preds,
		cPreds:    cPreds,
		masks:     masks,
		equi:      equi,
		outSchema: outSchema,
	}
	return &compiledNode{plan: n, join: cj}, nil
}

// joinFree reports that no join occurs in the subtree. The maximal
// join-free subtrees — a join-free root, a join group's join-free
// operands — are the units whose filtered windows decide relevance
// (Section 5.2).
func (n *compiledNode) joinFree() bool {
	switch {
	case n.scan != nil:
		return true
	case n.sel != nil:
		return n.sel.input.joinFree()
	case n.proj != nil:
		return n.proj.input.joinFree()
	default:
		return false
	}
}

// eachJoin visits every join group in the tree, topmost first.
func (n *compiledNode) eachJoin(f func(*compiledJoin)) {
	switch {
	case n.sel != nil:
		n.sel.input.eachJoin(f)
	case n.proj != nil:
		n.proj.input.eachJoin(f)
	case n.join != nil:
		f(n.join)
		for _, op := range n.join.opNodes {
			op.eachJoin(f)
		}
	}
}

// attachReplicas gives every join group in the tree its cross-refresh
// operand state — what makes the tree a standing query's.
func (n *compiledNode) attachReplicas() {
	n.eachJoin(func(cj *compiledJoin) {
		cj.cache = newOpCache(cj)
	})
}

// dropReplicas discards the operand replicas of every prepared join group
// in the tree (Close).
func (n *compiledNode) dropReplicas() {
	n.eachJoin(func(cj *compiledJoin) { clear(cj.cache.ents) })
}

// probeStep is one join step of a term: operand op joins the rows
// accumulated so far, through a hash index on buildCols (local columns
// of op) probed with the accumulated row's probeCols (full-width
// columns), or as a cross product when no equi conjunct links op to the
// operands already joined. preds lists the conjuncts that become
// evaluable once op is joined and that the key did not already decide.
type probeStep struct {
	op        int
	probeCols []int
	buildCols []int
	preds     []int
}

// termPlan is the resolved evaluation plan of one term: the seeding
// operand, the conjuncts over it alone, and the join steps in order.
// Everything the term evaluators used to re-derive per row or per step
// (key columns, which conjuncts are ready, which the key consumed) is
// decided here once — at Prepare for the telescoping kernel, per term
// for the truth table, whose join order depends on operand sizes.
type termPlan struct {
	first     int
	seedPreds []int
	steps     []probeStep
}

// equiLinked reports that an equi conjunct links operand k to the
// operands in filled and to nothing else.
func (cj *compiledJoin) equiLinked(filled uint64, k int) bool {
	kbit := uint64(1) << uint(k)
	for pi, m := range cj.masks {
		if cj.equi[pi].ok && m&kbit != 0 && m&filled != 0 && m&^(filled|kbit) == 0 {
			return true
		}
	}
	return false
}

// planTerm resolves the steps of joining the operands in the given
// order. Every equi conjunct linking a step's operand to the operands
// before it becomes part of the step's composite key and is not
// evaluated again; all other conjuncts run as soon as their operands are
// joined ("select before join", Section 5.2).
func (cj *compiledJoin) planTerm(order []int) *termPlan {
	tp := &termPlan{first: order[0], steps: make([]probeStep, 0, len(order)-1)}
	applied := make([]bool, len(cj.preds))
	filled := uint64(1) << uint(order[0])
	ready := func() []int {
		var out []int
		for i, m := range cj.masks {
			if !applied[i] && m&^filled == 0 {
				applied[i] = true
				out = append(out, i)
			}
		}
		return out
	}
	tp.seedPreds = ready()
	for _, k := range order[1:] {
		st := probeStep{op: k}
		kbit := uint64(1) << uint(k)
		lo, hi := cj.ops[k].lo, cj.ops[k].hi
		for i, eq := range cj.equi {
			m := cj.masks[i]
			if applied[i] || !eq.ok || m&kbit == 0 || m&filled == 0 || m&^(filled|kbit) != 0 {
				continue
			}
			lIn, rIn := eq.li >= lo && eq.li < hi, eq.ri >= lo && eq.ri < hi
			switch {
			case lIn && !rIn:
				st.probeCols, st.buildCols = append(st.probeCols, eq.ri), append(st.buildCols, eq.li-lo)
			case rIn && !lIn:
				st.probeCols, st.buildCols = append(st.probeCols, eq.li), append(st.buildCols, eq.ri-lo)
			default:
				continue
			}
			applied[i] = true
		}
		filled |= kbit
		st.preds = ready()
		tp.steps = append(tp.steps, st)
	}
	return tp
}

// deltaFirstOrder is the size-blind join order of a telescoping term
// seeded by operand src: grow over equi links where one exists (first
// such operand in plan order), cross-join the first unjoined operand
// otherwise.
func (cj *compiledJoin) deltaFirstOrder(src int) []int {
	n := len(cj.ops)
	order := append(make([]int, 0, n), src)
	filled := uint64(1) << uint(src)
	for len(order) < n {
		next := -1
		for k := 0; k < n; k++ {
			if filled&(1<<uint(k)) != 0 {
				continue
			}
			if next < 0 {
				next = k
			}
			if cj.equiLinked(filled, k) {
				next = k
				break
			}
		}
		order = append(order, next)
		filled |= 1 << uint(next)
	}
	return order
}
