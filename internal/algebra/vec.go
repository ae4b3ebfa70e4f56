package algebra

import (
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
)

// SelectBatch evaluates a compiled predicate over the rows in of a
// columnar batch (nil means every row) and appends the indices of
// passing rows to out. Semantics are identical to evaluating
// EvalPredicate row by row — NULL collapses to false, AND/OR
// short-circuit, and type errors surface on the first row that would have
// raised them on the row path — so the two stay transcript-equivalent.
//
// AND conjuncts evaluate as successive filters over the surviving
// selection (column-at-a-time), the intermediate selection drawn from
// pool (nil allocates), and comparisons of a bare column against a
// literal run the typed loop Compile resolved for them; every other
// shape falls back to a scratch-tuple row loop, which is still
// allocation-free per row because Eval returns values, not pointers.
func SelectBatch(pred CompiledExpr, b *batch.Batch, in, out []int32, pool *batch.Pool) ([]int32, error) {
	if b.Len() == 0 {
		return out, nil
	}
	s := selector{b: b, pool: pool}
	return s.rows(pred, in, out)
}

// selector is one SelectBatch call: the batch, the pool behind AND
// chains, and the row loop's scratch tuple, allocated on first use.
type selector struct {
	b       *batch.Batch
	pool    *batch.Pool
	scratch []relation.Value
}

// rows filters the row set in (nil = all rows of b) by pred, appending
// survivors to out.
func (s *selector) rows(pred CompiledExpr, in, out []int32) ([]int32, error) {
	n := selLen(s.b.TIDs, in)
	if be, ok := pred.(binExpr); ok {
		switch {
		case be.op == "AND":
			// Successive filtering matches the row path's short-circuit:
			// rows rejected by the left conjunct never evaluate the right.
			mid, err := s.rows(be.l, in, s.pool.GetIdx(n))
			// An empty selection must end here: passed on, it would read
			// as "all rows" and the right conjunct alone would decide rows
			// the left one rejected.
			if err == nil && len(mid) > 0 {
				out, err = s.rows(be.r, mid, out)
			}
			// released: the right conjunct consumed the selection.
			s.pool.PutIdx(mid)
			return out, err
		case be.cmp != nil && s.b.Cols[be.cmp.col].Type == be.cmp.typ:
			return be.cmp.selectRows(&s.b.Cols[be.cmp.col], in, out), nil
		}
	}
	// General shape: row loop over the selection with a reused scratch
	// tuple. EvalPredicate reproduces the row path bit for bit.
	if s.scratch == nil {
		s.scratch = make([]relation.Value, len(s.b.Cols))
	}
	for k := 0; k < n; k++ {
		i := selAt(in, k)
		s.b.ReadRow(int(i), s.scratch)
		ok, err := EvalPredicate(pred, relation.Tuple{TID: s.b.TIDs[i], Values: s.scratch})
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

// cmpMask is a comparison operator as the set of orderings it accepts:
// the typed loops order the two payloads once and test one bit, so no
// loop switches on the operator.
type cmpMask uint8

const (
	maskLT cmpMask = 1 << iota
	maskEQ
	maskGT
)

// cmpMaskOf maps a comparison operator to its mask; ok is false for
// every other operator.
func cmpMaskOf(op string) (m cmpMask, ok bool) {
	switch op {
	case "=":
		return maskEQ, true
	case "!=":
		return maskLT | maskGT, true
	case "<":
		return maskLT, true
	case "<=":
		return maskLT | maskEQ, true
	case ">":
		return maskGT, true
	case ">=":
		return maskGT | maskEQ, true
	}
	return 0, false
}

// flip mirrors the mask: literal <op> column reads column <flipped op>
// literal.
func (m cmpMask) flip() cmpMask {
	return m&maskEQ | (m&maskLT)<<2 | (m&maskGT)>>2
}

// order is Value.Compare on two payloads of one ordered type, as a
// mask bit. Unordered floats (NaN) read as equal, as they do there.
func order[T int64 | float64 | string](a, b T) cmpMask {
	switch {
	case a < b:
		return maskLT
	case a > b:
		return maskGT
	}
	return maskEQ
}

// colCmp is a comparison of a bare column against a literal, resolved
// once at Compile: the column, the accepted orderings, and the literal
// in the payload type the column's loop compares in.
type colCmp struct {
	col  int
	typ  relation.Type // the column's type; selects the loop
	mask cmpMask
	// asFloat compares an INT column against a FLOAT literal in float64.
	// never: the literal is NULL, so the comparison is NULL on every row.
	asFloat, never bool
	i              int64 // a BOOL literal is held as boolOrd
	f              float64
	s              string
}

// resolveColCmp returns the typed form of `column <op> literal` (either
// way round), or nil when the expression has another shape or compares
// incomparable kinds — the row loop then raises the row path's
// ErrTypeMismatch on the first evaluated row.
func resolveColCmp(op string, l, r CompiledExpr) *colCmp {
	mask, ok := cmpMaskOf(op)
	if !ok {
		return nil
	}
	col, isCol := l.(colExpr)
	lit, isLit := r.(litExpr)
	if !isCol || !isLit {
		if col, isCol = r.(colExpr); !isCol {
			return nil
		}
		if lit, isLit = l.(litExpr); !isLit {
			return nil
		}
		mask = mask.flip()
	}
	c := &colCmp{col: col.idx, typ: col.typ, mask: mask}
	lv := lit.v
	switch {
	case lv.IsNull():
		c.never = true
	case col.typ == relation.TInt && lv.Kind == relation.TInt:
		c.i = lv.AsInt()
	case col.typ == relation.TInt && lv.Kind == relation.TFloat:
		c.asFloat, c.f = true, lv.AsFloat()
	case col.typ == relation.TFloat && lv.IsNumeric():
		c.f = lv.AsFloat()
	case col.typ == relation.TString && lv.Kind == relation.TString:
		c.s = lv.AsString()
	case col.typ == relation.TBool && lv.Kind == relation.TBool:
		c.i = boolOrd(lv.AsBool())
	default:
		return nil
	}
	return c
}

// selectRows appends to out the rows of in (nil = every row) whose
// non-NULL cell in col stands in an accepted ordering to the literal.
func (c *colCmp) selectRows(col *batch.Col, in, out []int32) []int32 {
	switch {
	case c.never:
		return out
	case c.typ == relation.TInt && c.asFloat:
		for k, n := 0, selLen(col.I64, in); k < n; k++ {
			i := selAt(in, k)
			if col.IsValid(int(i)) && order(float64(col.I64[i]), c.f)&c.mask != 0 {
				out = append(out, i)
			}
		}
		return out
	case c.typ == relation.TInt:
		return selectOrdered(col, col.I64, c.i, c.mask, in, out)
	case c.typ == relation.TFloat:
		return selectOrdered(col, col.F64, c.f, c.mask, in, out)
	case c.typ == relation.TString:
		return selectOrdered(col, col.Str, c.s, c.mask, in, out)
	}
	for k, n := 0, selLen(col.B, in); k < n; k++ {
		i := selAt(in, k)
		if col.IsValid(int(i)) && order(boolOrd(col.B[i]), c.i)&c.mask != 0 {
			out = append(out, i)
		}
	}
	return out
}

// boolOrd orders the booleans as Value.Compare does: false < true.
func boolOrd(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// selectOrdered is the typed loop of one ordered payload type.
func selectOrdered[T int64 | float64 | string](col *batch.Col, vals []T, k T, mask cmpMask, in, out []int32) []int32 {
	if in == nil && col.Valid == nil {
		for i, v := range vals {
			if order(v, k)&mask != 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for j, n := 0, selLen(vals, in); j < n; j++ {
		i := selAt(in, j)
		if col.IsValid(int(i)) && order(vals[i], k)&mask != 0 {
			out = append(out, i)
		}
	}
	return out
}

// selLen and selAt walk a selection that may be the implicit "every
// row" (nil).
func selLen[T any](vals []T, in []int32) int {
	if in == nil {
		return len(vals)
	}
	return len(in)
}

func selAt(in []int32, k int) int32 {
	if in == nil {
		return int32(k)
	}
	return in[k]
}
