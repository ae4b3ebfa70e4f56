package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
)

// IncrementalDistinct maintains a DISTINCT query's result across
// refreshes. Duplicate elimination is not expressible in the SPJ signed
// algebra alone — whether a value leaves the result depends on how many
// duplicates remain — so, like IncrementalAggregate, it keeps auxiliary
// state: groupTable keyed on the whole row with no aggregates, that is,
// a multiplicity count per distinct value, folded forward by the signed
// delta of the input subplan. A value enters the result when its count
// rises from zero and leaves when it returns to zero.
type IncrementalDistinct struct{ *groupTable }

// NewIncrementalDistinct validates the plan (root must be Distinct over
// an SPJ subtree) and seeds the multiplicity state.
func NewIncrementalDistinct(engine *Engine, plan algebra.Plan, src algebra.Source) (*IncrementalDistinct, error) {
	d, ok := plan.(*algebra.DistinctPlan)
	if !ok {
		return nil, fmt.Errorf("%w: root is %T", ErrNotIncremental, plan)
	}
	if !supportsDifferential(d.Input) {
		return nil, fmt.Errorf("%w: DISTINCT input is not SPJ", ErrNotIncremental)
	}
	cols := d.Schema().Columns()
	g, err := newGroupTable(engine, d.Schema(), d.Input, nil, cols, len(cols), nil, src)
	if err != nil {
		return nil, err
	}
	return &IncrementalDistinct{g}, nil
}
