// Package baseline implements the two comparison systems the paper
// positions DRA against:
//
//   - Full: complete re-evaluation ("recompute the query from scratch",
//     Section 4.2) — re-run the query over the current base data on every
//     refresh and diff against the previous result;
//   - AppendOnly: continuous queries in the style of Terry et al.
//     (Section 2), which incrementally evaluate the query over appended
//     tuples only. The approach is correct on append-only streams but, as
//     the paper stresses, "the limitation of database updates to
//     append-only, disallowing deletions and modifications" makes it
//     return stale results under general updates — deleted tuples linger
//     and modifications are missed. Experiment E11 demonstrates exactly
//     this divergence.
package baseline

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Full is the complete re-evaluation processor.
type Full struct {
	plan   algebra.Plan
	result *relation.Relation
}

// NewFull runs the initial execution and returns the processor.
func NewFull(plan algebra.Plan, src algebra.Source) (*Full, error) {
	initial, err := dra.InitialResult(plan, src)
	if err != nil {
		return nil, fmt.Errorf("baseline full: %w", err)
	}
	return &Full{plan: plan, result: initial}, nil
}

// Step re-evaluates from scratch against the current source and returns
// the change from the previous result.
func (f *Full) Step(post algebra.Source, ts vclock.Timestamp) (*delta.Delta, error) {
	res, err := dra.FullReevaluate(f.plan, post, f.result, ts)
	if err != nil {
		return nil, err
	}
	f.result = res.ApplyTo(f.result)
	return res.Delta, nil
}

// Result returns the current maintained result.
func (f *Full) Result() *relation.Relation { return f.result }

// AppendOnly is the Terry-style continuous query processor: each step
// consumes only the *insertions* of the update stream, joins them against
// the base state, and appends the matches to the running result. It never
// removes or revises result tuples.
type AppendOnly struct {
	plan   algebra.Plan
	engine *dra.Engine
	result *relation.Relation
}

// NewAppendOnly runs the initial execution and returns the processor.
func NewAppendOnly(plan algebra.Plan, src algebra.Source) (*AppendOnly, error) {
	initial, err := dra.InitialResult(plan, src)
	if err != nil {
		return nil, fmt.Errorf("baseline append-only: %w", err)
	}
	return &AppendOnly{plan: plan, engine: dra.NewEngine(), result: initial}, nil
}

// Step consumes the update windows. Deletion and modification rows are
// dropped on the floor — the defining restriction of the append-only
// model. pre is the base state as of the previous step: the partner
// operands of a join. Each step runs a freshly prepared plan, which has
// no position and so seeds its operand replicas from pre; a plan kept
// across steps would have folded only the inserts into them. A plan
// outside the differential class diffs post against the running result.
func (a *AppendOnly) Step(deltas map[string]*delta.Delta, pre, post algebra.Source, ts vclock.Timestamp) (*relation.Relation, error) {
	insertOnly := make(map[string]*delta.Delta, len(deltas))
	for table, d := range deltas {
		filtered := delta.New(d.Schema())
		for _, r := range d.Rows() {
			if r.Kind() == delta.Insert {
				if err := filtered.Append(r); err != nil {
					return nil, fmt.Errorf("baseline append-only: %w", err)
				}
			}
		}
		insertOnly[table] = filtered
	}
	p, err := a.engine.Prepare(a.plan, dra.StrategyAuto)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ctx := &dra.Context{Pre: pre, Post: post, Deltas: insertOnly, Prev: a.result}
	res, err := p.Step(ctx, ts)
	if err != nil {
		return nil, err
	}
	// Append-only result maintenance: add new matches, never remove.
	added := relation.New(a.result.Schema())
	for _, t := range res.Delta.Insertions().Tuples() {
		if !a.result.Has(t.TID) {
			if err := a.result.Insert(t.Clone()); err != nil {
				return nil, err
			}
			_ = added.Insert(t.Clone())
		}
	}
	return added, nil
}

// Result returns the running (possibly stale) result.
func (a *AppendOnly) Result() *relation.Relation { return a.result }
