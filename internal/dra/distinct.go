package dra

import "github.com/diorama/continual/internal/algebra"

// IncrementalDistinct maintains a DISTINCT query's result across
// refreshes. Duplicate elimination is not expressible in the SPJ signed
// algebra alone — whether a value leaves the result depends on how many
// duplicates remain — so, like an aggregate, a prepared DISTINCT plan
// keeps auxiliary state: groupTable keyed on the whole row with no
// aggregates, that is, a multiplicity count per distinct value, folded
// forward by the signed delta of the input subplan. A value enters the
// result when its count rises from zero and leaves when it returns to
// zero. IncrementalDistinct is that table, stand-alone.
type IncrementalDistinct struct{ *groupTable }

// NewIncrementalDistinct validates the plan (root must be Distinct over
// an SPJ subtree) and seeds the multiplicity state, as Prepare and Seed
// do for a DISTINCT plan.
func NewIncrementalDistinct(engine *Engine, plan algebra.Plan, src algebra.Source) (*IncrementalDistinct, error) {
	g, err := seededGroupTable[*algebra.DistinctPlan](engine, plan, src)
	if err != nil {
		return nil, err
	}
	return &IncrementalDistinct{g}, nil
}
