package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// operand is one leaf of the flattened join expression: a maximal
// join-free subtree (Scan, possibly under Selects from predicate
// pushdown and a bare-column projection).
type operand struct {
	plan   algebra.Plan
	lo, hi int // column range in the flattened output schema
	// view is the operand as a selection over its table's scan
	// (compileJoin): the filter and column map a partner's arrangement
	// rows are read through.
	view *selection
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

func isEquiConjunct(p sql.Expr) bool {
	be, ok := p.(*sql.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	_, l := be.L.(*sql.ColumnRef)
	_, r := be.R.(*sql.ColumnRef)
	return l && r
}
