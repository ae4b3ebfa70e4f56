package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Propagate is the paper's reference operator (Section 4.2): it expresses
// how the result of Q changes when operand relations change, by complete
// re-evaluation — run Q over the pre-update state and over the
// post-update state, and Diff the two result relations. The DRA is proven
// functionally equivalent to this operator; the property tests in this
// package exercise that equivalence over randomized histories.
func Propagate(plan algebra.Plan, pre, post algebra.Source, ts vclock.Timestamp) (*delta.Delta, error) {
	oldR, err := execute(plan, pre)
	if err != nil {
		return nil, fmt.Errorf("dra: propagate pre: %w", err)
	}
	newR, err := execute(plan, post)
	if err != nil {
		return nil, fmt.Errorf("dra: propagate post: %w", err)
	}
	return delta.Diff(oldR, newR, ts)
}

// FullReevaluate is the complete re-evaluation baseline used by the
// benchmark harness: it executes the plan against the current state and
// derives the change by diffing with the previous result.
func FullReevaluate(plan algebra.Plan, post algebra.Source, prev *relation.Relation, execTS vclock.Timestamp) (*Result, error) {
	res := &Result{ExecTS: execTS}
	if err := fullReevaluate(plan, post, prev, res); err != nil {
		return nil, err
	}
	return res, nil
}

// fullReevaluate is FullReevaluate into res, reset to the execution's
// timestamp.
func fullReevaluate(plan algebra.Plan, post algebra.Source, prev *relation.Relation, res *Result) error {
	if prev == nil {
		return ErrNoPrev
	}
	cur, err := execute(plan, post)
	if err != nil {
		return fmt.Errorf("dra: full re-evaluation: %w", err)
	}
	d, err := delta.Diff(prev, cur, res.ExecTS)
	if err != nil {
		return err
	}
	res.setRows(plan.Schema(), d.Rows())
	res.materialized = cur
	return nil
}

// InitialResult runs the query from scratch on the row executor (the
// "initial execution" of the CQ, which Algorithm 1 assumes has
// happened). It is the oracle Prepared.Seed is held to; a standing query
// seeds through Seed.
func InitialResult(plan algebra.Plan, src algebra.Source) (*relation.Relation, error) {
	return execute(plan, src)
}

// execute runs the query completely over src: the one use of the row
// executor in the package, behind complete re-evaluation and the oracle.
func execute(plan algebra.Plan, src algebra.Source) (*relation.Relation, error) {
	return algebra.NewExecutor(src).Execute(plan)
}
