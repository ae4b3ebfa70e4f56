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
// Prepare builds the tree once and reuses it for the life of the query.
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

	// plans[i] is the term plan of operand i's window against the other
	// operands' states (telescopeJoin), resolved once here.
	plans []*termPlan
	// arrs[i] is the engine's arrangement of operand i's table, and uses
	// the group's distinct arrangements in table-name order — the order a
	// step read-locks them in. Both are set while the plan is attached
	// (Engine.attach), from Prepare to Close.
	arrs []*arrangement
	uses []arrUse
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
// bindings, and the term plans. Every operand must be a selection over
// one table (a view): its state is the engine's arrangement of that
// table read through the view, so an operand the SQL planner never
// builds — a join, a computed projection — is refused with
// ErrUnsupportedPlan, and Prepare puts the plan on complete
// re-evaluation.
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
		if op.view = opNodes[i].view; op.view == nil {
			return nil, fmt.Errorf("%w: join operand %d is not a selection over one table", ErrUnsupportedPlan, i)
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
	cj.plans = make([]*termPlan, len(ops))
	for i := range ops {
		cj.plans[i] = cj.planTerm(cj.deltaFirstOrder(i))
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

// probeStep is one join step of a term: operand op joins the rows
// accumulated so far, through a hash index on buildCols (local columns
// of op) probed with the accumulated row's probeCols (full-width
// columns), or as a cross product when no equi conjunct links op to the
// operands already joined. keyCols are buildCols as columns of op's
// table (its view's column map): the key set of the arrangement index
// the step probes, key, registered while the plan is attached. preds
// lists the conjuncts that become evaluable once op is joined and that
// the key did not already decide.
type probeStep struct {
	op        int
	probeCols []int
	buildCols []int
	keyCols   []int
	key       *keyIndex
	preds     []int
}

// termPlan is the resolved evaluation plan of one term: the seeding
// operand, the conjuncts over it alone, and the join steps in order.
// Everything the term evaluator would otherwise re-derive per row or per
// step (key columns, which conjuncts are ready, which the key consumed)
// is decided here once, at Prepare.
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
		for _, c := range st.buildCols {
			st.keyCols = append(st.keyCols, cj.ops[k].view.cols[c])
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
