package dra

import (
	"errors"
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
)

// This file extends the paper's SPJ-only Algorithm 1 to aggregate
// queries. Section 5.3 already evaluates aggregate *trigger conditions*
// differentially by keeping running sums over the differential relation
// (Deposits / Withdrawals); IncrementalAggregate applies the same idea to
// the query result itself: per-group counts and sums are auxiliary state
// (groupTable), folded forward by the signed delta of the aggregate's
// input subplan, and the result change is rendered from the groups that
// delta touched. Refreshing SELECT SUM(amount) FROM CheckingAccounts
// GROUP BY branch therefore costs O(|Δ|) — neither a base scan nor a
// pass over the groups; a join in the input telescopes over the
// engine's arrangements of its tables, as a prepared SPJ plan's does.
//
// Supported: root-level AggregatePlan with SUM / COUNT / COUNT(*) / AVG
// aggregates and no HAVING clause, which Engine.Prepare compiles into a
// group table. MIN and MAX are not incrementally maintainable from counts
// alone (a deletion of the current extremum needs the base data), nor is
// HAVING: Prepare puts them on complete re-evaluation.

// ErrNotIncremental reports that a plan is not a group-table shape, so
// NewIncrementalAggregate and NewIncrementalDistinct refuse it; Prepare
// puts such a plan on complete re-evaluation.
var ErrNotIncremental = errors.New("dra: plan is not incrementally maintainable")

// IncrementalAggregate maintains an aggregate query's result across
// refreshes: the group table a prepared aggregate plan keeps, stand-alone.
// Step, StepInto, Result, Groups and Close are groupTable's.
type IncrementalAggregate struct{ *groupTable }

// NewIncrementalAggregate validates the plan and seeds the table from the
// current source contents — the group-table halves of Engine.Prepare and
// Prepared.Seed. The plan must be the root of the query.
func NewIncrementalAggregate(engine *Engine, plan algebra.Plan, src algebra.Source) (*IncrementalAggregate, error) {
	g, err := seededGroupTable[*algebra.AggregatePlan](engine, plan, src)
	if err != nil {
		return nil, err
	}
	return &IncrementalAggregate{g}, nil
}

// aggregateFold compiles an aggregate's fold row: the group keys under
// their output types, then one column per aggregate argument.
func aggregateFold(agg *algebra.AggregatePlan) ([]algebra.CompiledExpr, []relation.Column, []groupAgg, error) {
	inSchema, outSchema := agg.Input.Schema(), agg.Schema()
	nKeys := len(agg.GroupBy)
	items := make([]algebra.CompiledExpr, 0, nKeys+len(agg.Aggs))
	cols := make([]relation.Column, 0, nKeys+len(agg.Aggs))
	for i, g := range agg.GroupBy {
		ce, err := algebra.Compile(g.Expr, inSchema)
		if err != nil {
			return nil, nil, nil, err
		}
		items = append(items, ce)
		cols = append(cols, relation.Column{Name: fmt.Sprintf("k%d", i), Type: outSchema.Col(i).Type})
	}
	aggs := make([]groupAgg, len(agg.Aggs))
	for i, a := range agg.Aggs {
		if a.Func != "SUM" && a.Func != "COUNT" && a.Func != "AVG" {
			return nil, nil, nil, fmt.Errorf("%w: %s needs base access on deletions", ErrNotIncremental, a.Func)
		}
		aggs[i] = groupAgg{fn: a.Func, arg: -1, out: outSchema.Col(nKeys + i).Type}
		if a.Arg == nil {
			continue // COUNT(*)
		}
		ce, err := algebra.Compile(a.Arg, inSchema)
		if err != nil {
			return nil, nil, nil, err
		}
		typ := ce.Type()
		if typ == 0 {
			typ = relation.TInt // a bare NULL literal; any column type holds its NULLs
		}
		aggs[i].arg = len(items)
		items = append(items, ce)
		cols = append(cols, relation.Column{Name: fmt.Sprintf("a%d", i), Type: typ})
	}
	return items, cols, aggs, nil
}
