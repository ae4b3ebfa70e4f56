package algebra

import (
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
)

// SelectBatch evaluates a compiled predicate over a columnar batch and
// appends the indices of passing rows to sel (which callers obtain from
// a batch.Pool). Semantics are identical to evaluating EvalPredicate
// row by row — NULL collapses to false, AND/OR short-circuit, and type
// errors surface on the first row that would have raised them on the
// row path — so the two pipelines stay transcript-equivalent.
//
// AND conjuncts evaluate as successive filters over the surviving
// selection (column-at-a-time), and comparisons of a bare column
// against a literal run as typed loops over the column slice; every
// other shape falls back to a scratch-tuple row loop, which is still
// allocation-free per row because Eval returns values, not pointers.
func SelectBatch(pred CompiledExpr, b *batch.Batch, sel []int32) ([]int32, error) {
	n := b.Len()
	if n == 0 {
		return sel, nil
	}
	scratch := make([]relation.Value, b.Schema.Len())
	return selectRows(pred, b, nil, sel, scratch)
}

// selectRows filters the row set `in` (nil = all rows of b) by pred,
// appending survivors to out.
func selectRows(pred CompiledExpr, b *batch.Batch, in, out []int32, scratch []relation.Value) ([]int32, error) {
	if be, ok := pred.(binExpr); ok {
		switch be.op {
		case "AND":
			// Successive filtering matches the row path's short-circuit:
			// rows rejected by the left conjunct never evaluate the right.
			mid, err := selectRows(be.l, b, in, nil, scratch)
			if err != nil || len(mid) == 0 {
				// An empty selection must end here: passed on, nil would
				// read as "all rows" and the right conjunct alone would
				// decide rows the left one rejected.
				return out, err
			}
			return selectRows(be.r, b, mid, out, scratch)
		case "=", "!=", "<", "<=", ">", ">=":
			if done, res, err := selectCompare(be, b, in, out); done {
				return res, err
			}
		}
	}
	// General shape: row loop over the selection with a reused scratch
	// tuple. EvalPredicate reproduces the row path bit for bit.
	return selectGeneric(pred, b, in, out, scratch)
}

func selectGeneric(pred CompiledExpr, b *batch.Batch, in, out []int32, scratch []relation.Value) ([]int32, error) {
	n := int32(b.Len())
	eval := func(i int32) (bool, error) {
		b.ReadRow(int(i), scratch)
		return EvalPredicate(pred, relation.Tuple{TID: b.TIDs[i], Values: scratch})
	}
	if in == nil {
		for i := int32(0); i < n; i++ {
			ok, err := eval(i)
			if err != nil {
				return out, err
			}
			if ok {
				out = append(out, i)
			}
		}
		return out, nil
	}
	for _, i := range in {
		ok, err := eval(i)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// ColumnIndexOf reports the schema position a compiled expression reads
// when it is a bare column reference; projection uses this to detect
// columns that survive verbatim and can move by slice reuse instead of
// re-evaluation.
func ColumnIndexOf(ce CompiledExpr) (int, bool) {
	c, ok := ce.(colExpr)
	if !ok {
		return 0, false
	}
	return c.idx, true
}

// IsLiteral reports whether the expression is a constant, with its value.
func IsLiteral(ce CompiledExpr) (relation.Value, bool) {
	l, ok := ce.(litExpr)
	if !ok {
		return relation.Value{}, false
	}
	return l.v, true
}

// selectCompare runs a typed column-at-a-time loop for comparisons of a
// bare column against a literal. done=false means the shape or types
// are outside the fast path and the caller must use the generic loop
// (which also reproduces the row path's error behavior for
// incomparable kinds).
func selectCompare(be binExpr, b *batch.Batch, in, out []int32) (done bool, _ []int32, _ error) {
	col, lit, op := be.l, be.r, be.op
	ci, ok := ColumnIndexOf(col)
	if !ok {
		// literal <op> column: flip the comparison.
		ci, ok = ColumnIndexOf(lit)
		if !ok {
			return false, out, nil
		}
		col, lit = lit, col
		op = flipCmp(op)
	}
	lv, ok := IsLiteral(lit)
	if !ok {
		return false, out, nil
	}
	c := &b.Cols[ci]
	if lv.IsNull() {
		// comparison with NULL is NULL for every row -> selects nothing,
		// raising no error, exactly as evalComparison does.
		return true, out, nil
	}
	switch {
	case c.Type == relation.TInt && lv.Kind == relation.TInt:
		k := lv.AsInt()
		return true, collect(b, in, &out, func(i int32) bool {
			return c.IsValid(int(i)) && cmpOK(op, compareI64(c.I64[i], k))
		}), nil
	case c.Type == relation.TInt && lv.Kind == relation.TFloat:
		k := lv.AsFloat()
		return true, collect(b, in, &out, func(i int32) bool {
			return c.IsValid(int(i)) && cmpOK(op, compareF64(float64(c.I64[i]), k))
		}), nil
	case c.Type == relation.TFloat && (lv.Kind == relation.TFloat || lv.Kind == relation.TInt):
		k := lv.AsFloat()
		return true, collect(b, in, &out, func(i int32) bool {
			return c.IsValid(int(i)) && cmpOK(op, compareF64(c.F64[i], k))
		}), nil
	case c.Type == relation.TString && lv.Kind == relation.TString:
		k := lv.AsString()
		return true, collect(b, in, &out, func(i int32) bool {
			return c.IsValid(int(i)) && cmpOK(op, compareStr(c.Str[i], k))
		}), nil
	case c.Type == relation.TBool && lv.Kind == relation.TBool:
		k := lv.AsBool()
		return true, collect(b, in, &out, func(i int32) bool {
			return c.IsValid(int(i)) && cmpOK(op, compareBool(c.B[i], k))
		}), nil
	}
	// Incomparable kinds: let the generic loop raise the row path's
	// ErrTypeMismatch on the first evaluated row.
	return false, out, nil
}

func collect(b *batch.Batch, in []int32, out *[]int32, pass func(int32) bool) []int32 {
	if in == nil {
		n := int32(b.Len())
		for i := int32(0); i < n; i++ {
			if pass(i) {
				*out = append(*out, i)
			}
		}
		return *out
	}
	for _, i := range in {
		if pass(i) {
			*out = append(*out, i)
		}
	}
	return *out
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

func cmpOK(op string, cmp int) bool {
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func compareI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}
