package dra

import "github.com/diorama/continual/internal/batch"

// telescopeJoin is the join kernel of every standing query: the
// telescoping decomposition equivalent to the truth table. Processing operand
// deltas in a fixed order, with the replicas of earlier operands already
// advanced,
//
//	ΔQ = Σ_i  R1' ⋈ ... ⋈ R(i-1)' ⋈ ΔRi ⋈ R(i+1) ⋈ ... ⋈ Rn
//
// produces exactly the net change of the 2^k−1 subset terms in at most
// n terms, each of which only probes maintained indexes: a refresh
// costs O(Σ|ΔRi| × probe fan-out). This realizes the paper's closing
// future-work item ("other algorithms for differential or incremental
// evaluation of CQs") as a maintained-index variant, run batch-at-a-time
// over the group's operand replicas: each operand's window seeds a work
// batch, walks the partner replicas' flat indexes along the
// term plan resolved at Prepare, and is then folded into its own
// replica before the next operand's window runs. The replicas are at
// the window's start: the plan's position (position.resume). An error
// part-way leaves them part-advanced; the caller's failed step clears
// the position, so the next step re-seeds. A nil batch means no term
// emitted.
func (v *vecEval) telescopeJoin(cj *compiledJoin, deltas []*batch.Batch) (*batch.Batch, error) {
	c := cj.cache
	term := make([]*vecInput, len(cj.ops))
	for i, ent := range c.ents {
		term[i] = &vecInput{ent: ent}
	}
	var out *batch.Batch
	for i, d := range deltas {
		if d.Len() == 0 {
			continue
		}
		v.st.Terms++
		held := term[i]
		term[i] = &vecInput{b: d}
		var err error
		if !emptyPartner(term, i) {
			out, err = v.runTerm(cj, c.plans[i], term, out)
		}
		term[i] = held
		if err != nil {
			return nil, err
		}
		// Advance replica i AFTER its delta ran, so later operands'
		// deltas see it at the new state and earlier ones saw it at the
		// old state (the telescoping invariant).
		held.ent.apply(d)
		// A cross step of an earlier term may have copied the replica's
		// live rows (vecInput.enumerable); that copy is now stale.
		held.b = nil
	}
	return out, nil
}

// emptyPartner reports that some operand other than i has no rows, so
// term i joins to nothing: it runs no probe and builds no index. An
// initial execution meets this in every term but the last (the later
// operands' replicas are still empty).
func emptyPartner(term []*vecInput, i int) bool {
	for j, in := range term {
		if j != i && in.length() == 0 {
			return true
		}
	}
	return false
}
