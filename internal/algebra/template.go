package algebra

import (
	"sort"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// A Template is a plan with its comparison constants stripped out. Two
// continual queries that differ only in constants — `price > 5` vs
// `price > 90` — reduce to the same template with one parameter slot
// each, so a single prepared evaluation of the template serves both: the
// template delta is computed once and each subscriber takes the subset
// of rows its own constants select.
//
// Stripping σ_c out of the plan and re-applying it at the root is only
// sound when the compared column's value survives verbatim to the
// output row (selection commutes with projection/join on pass-through
// columns, and with difference — which is what makes it valid on
// deltas too). ExtractTemplate proves that per slot by walking column
// provenance from the root down, and refuses plans where it can't.
type Template struct {
	// Fingerprint identifies the template: same fingerprint ⇒ same
	// stripped plan, same output schema, same slot layout.
	Fingerprint uint64
	// Plan is the constant-stripped plan. Its output schema is
	// identical to the original plan's.
	Plan Plan
	// Slots describes each stripped comparison in canonical order. The
	// parameter vector returned by ExtractTemplate is index-aligned
	// with Slots.
	Slots []ParamSlot
}

// ParamSlot is one stripped comparison: `<column> <op> <constant>`,
// normalized so the column is always on the left.
type ParamSlot struct {
	// Col is the root-schema name of the compared column.
	Col string
	// Idx is the column's index in the template's output schema — the
	// dispatch stage reads row.Values[Idx].
	Idx int
	// Op is one of "=", "<", "<=", ">", ">=".
	Op string
	// Kind is the column's type.
	Kind relation.Type
}

// strippableOps are the comparison operators a slot may use. "!=" is
// excluded on purpose: the dispatch index answers "which subscribers
// match this row" from equality and interval lookups, and a not-equals
// parameter would match almost every subscriber, defeating O(matches).
var strippableOps = map[string]string{
	"=": "=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

// flipOp mirrors an operator across the comparison: `5 < price` is
// normalized to `price > 5`.
var flipOp = map[string]string{
	"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}

// ExtractTemplate splits a plan into a constant-stripped template and
// the parameter vector holding the stripped constants (index-aligned
// with Template.Slots). ok is false when the plan has no strippable
// comparison or contains a node the rewrite cannot prove safe
// (aggregates, DISTINCT, ORDER BY, LIMIT, or a comparison on a column
// that does not survive to the output row).
func ExtractTemplate(p Plan) (t *Template, params []relation.Value, ok bool) {
	if !templatable(p) {
		return nil, nil, false
	}
	x := &extractor{root: p.Schema()}
	stripped := x.rewrite(p, identityMap(p.Schema().Len()))
	if x.failed || len(x.slots) == 0 {
		return nil, nil, false
	}
	// The rewrite must preserve the output schema exactly — dispatch
	// evaluates slots against template delta rows by root index.
	if !stripped.Schema().Equal(p.Schema()) {
		return nil, nil, false
	}
	x.canonicalize()
	return &Template{
		Fingerprint: templateFingerprint(stripped, x.slots),
		Plan:        stripped,
		Slots:       x.slots,
	}, x.params, true
}

// MatchRow reports whether a template-delta row satisfies every slot
// under the given parameter vector, with the engine's comparison
// semantics: a NULL column value satisfies nothing.
func (t *Template) MatchRow(params, row []relation.Value) bool {
	for i, s := range t.Slots {
		if !slotMatches(s, params[i], row) {
			return false
		}
	}
	return true
}

// MatchBatch appends to out the indices of the rows of b — rows of the
// template's output schema — that MatchRow accepts under params, testing
// them column at a time: the slots become one conjunction of column /
// constant comparisons run by SelectBatch's typed loops. A constant that
// does not compare with its column as SQL would (a kind mismatch, which
// the selection reports as an error) has the rows tested one by one
// instead, so the answer is MatchRow's either way.
func (t *Template) MatchBatch(params []relation.Value, b *batch.Batch, out []int32) []int32 {
	n := len(out)
	var pred sql.Expr
	for i, s := range t.Slots {
		var cmp sql.Expr = &sql.BinaryExpr{Op: s.Op,
			L: &sql.ColumnRef{Name: b.Schema.Col(s.Idx).Name}, R: &sql.Literal{Value: params[i]}}
		if pred != nil {
			cmp = &sql.BinaryExpr{Op: "AND", L: pred, R: cmp}
		}
		pred = cmp
	}
	if ce, err := Compile(pred, b.Schema); err == nil {
		if sel, err := SelectBatch(ce, b, nil, out, nil); err == nil {
			return sel
		}
	}
	out = out[:n]
	row := make([]relation.Value, b.Schema.Len())
	for r := 0; r < b.Len(); r++ {
		for _, s := range t.Slots {
			row[s.Idx] = b.Value(r, s.Idx)
		}
		if t.MatchRow(params, row) {
			out = append(out, int32(r))
		}
	}
	return out
}

func slotMatches(s ParamSlot, param relation.Value, row []relation.Value) bool {
	v := row[s.Idx]
	if v.IsNull() || param.IsNull() {
		return false
	}
	switch s.Op {
	case "=":
		return v.Equal(param)
	case "<":
		return v.Compare(param) < 0
	case "<=":
		return v.Compare(param) <= 0
	case ">":
		return v.Compare(param) > 0
	case ">=":
		return v.Compare(param) >= 0
	}
	return false
}

// templatable gates the plan shapes the strip-and-redispatch rewrite is
// proven for: Scan/Select/Project/Join compositions. Aggregate changes
// row identity and multiplicity, Distinct collapses by value, and
// Sort/Limit are order-sensitive — a selection does not commute past
// any of them row-by-row.
func templatable(p Plan) bool {
	switch p.(type) {
	case *ScanPlan, *SelectPlan, *ProjectPlan, *JoinPlan:
		for _, c := range p.Children() {
			if !templatable(c) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// extractor carries rewrite state. colMap arguments map a node's schema
// column indices to root output indices, -1 where the column does not
// survive verbatim to the output.
type extractor struct {
	root   relation.Schema
	slots  []ParamSlot
	params []relation.Value
	failed bool
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func (x *extractor) rewrite(p Plan, colMap []int) Plan {
	if x.failed {
		return p
	}
	switch n := p.(type) {
	case *ScanPlan:
		return n
	case *SelectPlan:
		// The predicate reads the input schema, which equals this
		// node's schema, so the same colMap applies to both.
		residual := x.stripConjuncts(n.Input.Schema(), colMap, SplitConjuncts(n.Pred))
		in := x.rewrite(n.Input, colMap)
		if len(residual) == 0 {
			return in
		}
		return &SelectPlan{Input: in, Pred: JoinConjuncts(residual)}
	case *ProjectPlan:
		childMap := x.projectChildMap(n, colMap)
		in := x.rewrite(n.Input, childMap)
		out, err := NewProjectPlan(in, n.Items)
		if err != nil {
			x.failed = true
			return p
		}
		return out
	case *JoinPlan:
		ln := n.Left.Schema().Len()
		left := x.rewrite(n.Left, colMap[:ln])
		right := x.rewrite(n.Right, colMap[ln:])
		out, err := NewJoinPlan(left, right, n.On)
		if err != nil {
			x.failed = true
			return p
		}
		return out
	default:
		x.failed = true
		return p
	}
}

// projectChildMap derives the provenance map for a projection's input:
// input column j survives to root index r iff some projected item is a
// bare reference to j and that item's own output column maps to r.
func (x *extractor) projectChildMap(n *ProjectPlan, colMap []int) []int {
	in := n.Input.Schema()
	childMap := make([]int, in.Len())
	for i := range childMap {
		childMap[i] = -1
	}
	for i, it := range n.Items {
		if colMap[i] < 0 {
			continue
		}
		ref, isRef := it.Expr.(*sql.ColumnRef)
		if !isRef {
			continue
		}
		j, found := in.ColIndex(ref.Name)
		if !found {
			continue
		}
		if childMap[j] < 0 {
			childMap[j] = colMap[i]
		}
	}
	return childMap
}

// stripConjuncts pulls strippable comparisons out of a conjunct list,
// recording slots and parameters, and returns the residual conjuncts in
// canonical (encoding-hash) order so equivalent predicates written in
// different conjunct orders reach the same template.
func (x *extractor) stripConjuncts(in relation.Schema, colMap []int, conjs []sql.Expr) []sql.Expr {
	var residual []sql.Expr
	for _, c := range conjs {
		if slot, v, ok := x.stripOne(in, colMap, c); ok {
			x.slots = append(x.slots, slot)
			x.params = append(x.params, v)
			continue
		}
		residual = append(residual, c)
	}
	sort.SliceStable(residual, func(i, j int) bool {
		return exprHash(residual[i]) < exprHash(residual[j])
	})
	return residual
}

func (x *extractor) stripOne(in relation.Schema, colMap []int, c sql.Expr) (ParamSlot, relation.Value, bool) {
	be, isBin := c.(*sql.BinaryExpr)
	if !isBin {
		return ParamSlot{}, relation.Value{}, false
	}
	op, strippable := strippableOps[be.Op]
	if !strippable {
		return ParamSlot{}, relation.Value{}, false
	}
	col, isCol := be.L.(*sql.ColumnRef)
	lit, isLit := be.R.(*sql.Literal)
	if !isCol || !isLit {
		// Literal on the left: flip.
		if col, isCol = be.R.(*sql.ColumnRef); !isCol {
			return ParamSlot{}, relation.Value{}, false
		}
		if lit, isLit = be.L.(*sql.Literal); !isLit {
			return ParamSlot{}, relation.Value{}, false
		}
		op = flipOp[op]
	}
	if lit.Value.IsNull() {
		// NULL comparisons never match; keep them in the plan.
		return ParamSlot{}, relation.Value{}, false
	}
	j, found := in.ColIndex(col.Name)
	if !found {
		return ParamSlot{}, relation.Value{}, false
	}
	rootIdx := colMap[j]
	if rootIdx < 0 {
		// The column does not survive to the output row, so the
		// dispatch stage could not re-check this comparison.
		return ParamSlot{}, relation.Value{}, false
	}
	kind := x.root.Col(rootIdx).Type
	if !(kind == lit.Value.Kind ||
		(lit.Value.IsNumeric() && (kind == relation.TInt || kind == relation.TFloat))) {
		// Incomparable kinds would error at eval time; leave the
		// comparison where the engine can report it.
		return ParamSlot{}, relation.Value{}, false
	}
	return ParamSlot{
		Col:  x.root.Col(rootIdx).Name,
		Idx:  rootIdx,
		Op:   op,
		Kind: kind,
	}, lit.Value, true
}

// canonicalize orders slots (and the aligned parameter vector) by
// (Idx, Op, Col) so conjunct order in the source text does not change
// the template fingerprint. Ties (`price > 5 AND price > 9`) keep
// source order; slot layouts still agree across members because the tie
// slots are interchangeable.
func (x *extractor) canonicalize() {
	order := make([]int, len(x.slots))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := x.slots[order[a]], x.slots[order[b]]
		if sa.Idx != sb.Idx {
			return sa.Idx < sb.Idx
		}
		if sa.Op != sb.Op {
			return sa.Op < sb.Op
		}
		return sa.Col < sb.Col
	})
	slots := make([]ParamSlot, len(order))
	params := make([]relation.Value, len(order))
	for i, o := range order {
		slots[i] = x.slots[o]
		params[i] = x.params[o]
	}
	x.slots, x.params = slots, params
}

// exprHash is the canonical-encoding hash of a single expression, used
// only for ordering residual conjuncts.
func exprHash(e sql.Expr) uint64 {
	w := newFPWriter()
	w.expr(e)
	return w.sum()
}

// templateFingerprint hashes the stripped plan, its output schema and
// the slot layout. It lives in a distinct tag space from
// PlanFingerprint so a template can never collide with a plain plan
// fingerprint.
func templateFingerprint(p Plan, slots []ParamSlot) uint64 {
	w := newFPWriter()
	w.tag(fpTemplate)
	w.tag(fpVersion)
	w.plan(p)
	w.schema(p.Schema())
	w.uvarint(uint64(len(slots)))
	for _, s := range slots {
		w.str(s.Col)
		w.uvarint(uint64(s.Idx))
		w.str(s.Op)
		w.tag(byte(s.Kind))
	}
	return w.sum()
}
