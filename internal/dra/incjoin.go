package dra

import (
	"fmt"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/vclock"
)

// telescopeJoin is the join kernel of every standing query: the
// telescoping decomposition equivalent to the truth table. Processing
// operand windows in a fixed order, operand i's window joins the
// operands before it at the step's timestamp T and those after it at
// its last execution L,
//
//	ΔQ = Σ_i  R1(T) ⋈ ... ⋈ R(i-1)(T) ⋈ ΔRi ⋈ R(i+1)(L) ⋈ ... ⋈ Rn(L)
//
// which produces exactly the net change of the 2^k−1 subset terms in at
// most n terms, each of which only probes maintained indexes: a refresh
// costs O(Σ|ΔRi| × probe fan-out). This realizes the paper's closing
// future-work item ("other algorithms for differential or incremental
// evaluation of CQs") as a maintained-index variant, run
// batch-at-a-time: each operand's window seeds a work batch and walks
// the partners' indexes along the term plan resolved at Prepare.
//
// Every partner state is the engine's one arrangement of its table
// (Section 4.2's Rj), shared by every plan that joins it, at its
// timestamp at: ready first moves it to at >= T, then the terms read it
// under its read lock with a correction of O(|Δ|) rows,
//
//	Rj(X) = Arr(at) ⊎ −Δj(X, at]
//
// Δj being operand j's view of the table's window (X, at], signs
// negated: for a partner after i that is the step's own window of j
// plus the image (T, at], for one before i the image (T, at] alone —
// nothing at all when at == T, the common case. The ± pairs a
// correction emits beside the arrangement's rows cancel in the netting.
// So nothing a step leaves behind depends on its outcome: a failed or
// stopped step leaves the arrangements valid, and its retry steps from
// the same L. A nil batch means no term emitted.
//
// A seed (v.seeding) is the step from the empty state with every
// ΔR = R: partners after i are empty, so only the last operand's term
// runs, its image against the others at the seed timestamp.
func (v *vecEval) telescopeJoin(cj *compiledJoin, deltas []*batch.Batch) (*batch.Batch, error) {
	for _, u := range cj.uses {
		if err := v.ready(u); err != nil {
			return nil, err
		}
	}
	for _, u := range cj.uses {
		u.a.mu.RLock()
	}
	defer func() {
		for _, u := range cj.uses {
			u.a.mu.RUnlock()
		}
	}()
	n := len(cj.ops)
	v.corrs = append(v.corrs[:0], make([]correction, 2*n)...)
	term := append(v.term[:0], make([]vecInput, n)...)
	v.term = term
	first := 0
	if v.seeding {
		first = n - 1
	}
	var out *batch.Batch
	corrected := false
	for i := first; i < n; i++ {
		d := deltas[i]
		if d.Len() == 0 {
			continue
		}
		v.st.Terms++
		for j := range term {
			if j == i {
				term[j] = vecInput{b: d}
				continue
			}
			c, err := v.correction(cj, j, j > i, deltas[j])
			if err != nil {
				return nil, err
			}
			term[j] = vecInput{arr: cj.arrs[j], view: cj.ops[j].view, corr: c}
			corrected = corrected || c != nil
		}
		if emptyPartner(term, i) {
			continue
		}
		var err error
		if out, err = v.runTerm(cj, cj.plans[i], term, out); err != nil {
			return nil, err
		}
	}
	if corrected && out != nil {
		out = v.cancel(out)
	}
	return out, nil
}

// ready moves an arrangement the join reads to the step's timestamp T or
// past it, under its write lock and holding nothing else: built, when
// no step or seed has read it yet, from the table's image at LastTS (a
// seed's own image; ctx.Pre's on a step); advanced by the window
// (at, T] — the step's own when it starts at at, ctx.Windows' otherwise.
// What it needs beyond the lock it reads first, so a racing step may
// have moved the arrangement meanwhile: it then looks again. A float
// seed (a stand-alone group table's, from a source without a timestamp)
// takes a built arrangement as it is.
func (v *vecEval) ready(u arrUse) error {
	a, T := u.a, v.execTS
	for look := 0; ; look++ {
		a.mu.RLock()
		built, at, float := a.t != nil, a.at, a.float
		a.mu.RUnlock()
		if built && look == 0 {
			v.st.IndexCacheHits++
		}
		if built && (v.float || !float && at >= T) {
			return nil
		}
		var img *batch.Batch
		var err error
		switch {
		case !built:
			img, err = v.image(u)
		case float:
		case at == v.ctx.LastTS && !v.seeding:
			img, _, err = v.window(u.scan)
		default:
			img, err = v.windowImage(a.table, at, T)
		}
		if err != nil {
			return err
		}
		a.mu.Lock()
		switch {
		case (a.t != nil) != built || a.at != at || a.float != float:
			// Another step moved it meanwhile: look again.
		case !built:
			a.fill(img, v.ctx.LastTS, v.float)
			v.st.IndexCacheMisses += 1 + len(a.keys)
			if !v.seeding {
				v.st.PreTuplesScanned += img.Len()
			}
		case float:
			a.at, a.float = v.ctx.LastTS, false
		default:
			a.advance(img, T)
		}
		a.gauge(v.e.Metrics)
		a.mu.Unlock()
	}
}

// image is the all-insert image of u's table an arrangement is built
// from: a seed's own (its window is the image), or ctx.Pre's at LastTS.
func (v *vecEval) image(u arrUse) (*batch.Batch, error) {
	if v.seeding {
		b, _, err := v.window(u.scan)
		return b, err
	}
	if v.ctx.Pre == nil {
		return nil, fmt.Errorf("dra: the arrangement of %q is not built, and the context has no Pre source", u.a.table)
	}
	b, err := tableImage(v.ctx.Pre, u.a.table)
	if err != nil {
		return nil, fmt.Errorf("dra: build the arrangement of %q: %w", u.a.table, err)
	}
	return b, nil
}

// windowImage reads the image of table's window (from, to] from
// ctx.Windows.
func (v *vecEval) windowImage(table string, from, to vclock.Timestamp) (*batch.Batch, error) {
	ws := v.ctx.Windows
	if ws == nil {
		return nil, noWindows(table, from, to)
	}
	b, err := ws.WindowBatch(table, from, to, v.e.CompactDeltas)
	if err != nil {
		return nil, fmt.Errorf("dra: window (%d, %d] of %q: %w", from, to, table, err)
	}
	return b, nil
}

// correction is one partner state's correction rows, built once per
// step: done marks it built, b holds its rows (nil: none).
type correction struct {
	done bool
	b    *batch.Batch
}

// correction returns the rows that take operand j's arrangement, at at
// >= T under the step's read lock, to the state a term reads it at: its
// L when pre (a partner after the term's operand), its T otherwise —
// −Δj(L or T, at], through j's view, in j's schema. own is j's view of
// the step's own window (L, T]. Nil when there is nothing to correct.
func (v *vecEval) correction(cj *compiledJoin, j int, pre bool, own *batch.Batch) (*batch.Batch, error) {
	slot := &v.corrs[2*j]
	if pre {
		slot = &v.corrs[2*j+1]
	}
	if slot.done {
		return slot.b, nil
	}
	a, view := cj.arrs[j], cj.ops[j].view
	var ahead *batch.Batch
	if !v.float && a.at > v.execTS {
		var err error
		if ahead, err = v.ahead(a); err != nil {
			return nil, err
		}
	}
	var sel []int32
	rows := 0
	if ahead != nil {
		var err error
		if sel, err = v.filterRows(view, ahead, nil); err != nil {
			return nil, err
		}
		rows = viewLen(ahead, sel)
	}
	if pre {
		rows += own.Len()
	}
	slot.done = true
	if rows == 0 {
		return nil, nil
	}
	b := v.own(v.e.pool.Get(view.schema, rows))
	for k := 0; pre && k < own.Len(); k++ {
		b.AppendFrom(own, k)
	}
	if ahead != nil {
		b.AppendSelected(ahead, sel, view.cols)
	}
	for k := range b.Signs {
		b.Signs[k] = -b.Signs[k]
	}
	slot.b = b
	return b, nil
}

// ahead returns the image (T, at] of an arrangement past the step's
// timestamp, read once per step.
func (v *vecEval) ahead(a *arrangement) (*batch.Batch, error) {
	for _, x := range v.aheads {
		if x.a == a {
			return x.b, nil
		}
	}
	b, err := v.windowImage(a.table, v.execTS, a.at)
	if err != nil {
		return nil, err
	}
	v.aheads = append(v.aheads, aheadImage{a: a, b: b})
	return b, nil
}

// aheadImage is the image (T, at] of one arrangement past a step.
type aheadImage struct {
	a *arrangement
	b *batch.Batch
}

// viewLen is the number of rows a selection sel (nil: all) keeps of b.
func viewLen(b *batch.Batch, sel []int32) int {
	if sel == nil {
		return b.Len()
	}
	return len(sel)
}

// emptyPartner reports that some operand other than i has no rows, so
// term i joins to nothing: it runs no probe.
func emptyPartner(term []vecInput, i int) bool {
	for j := range term {
		if j != i && term[j].length() == 0 {
			return true
		}
	}
	return false
}
