package delta

import (
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Signed is the signed-multiset view of a differential relation that the
// DRA's differential operators (DiffSelect, DiffProj, DiffJoin) compute
// over. Each modification row decomposes into a -1 entry for the old
// tuple and a +1 entry for the new tuple; an insertion is +1; a deletion
// is -1. Signed deltas compose under select, project and join by simple
// sign arithmetic (the sign of a joined tuple is the product of the input
// signs), which is what makes the truth-table expansion of Algorithm 1
// exact for general updates.
type Signed struct {
	Schema relation.Schema
	Rows   []SignedRow
}

// SignedRow is one signed tuple.
type SignedRow struct {
	TID    relation.TID
	Values []relation.Value
	Sign   int // +1 or -1
}

// ToSigned converts a differential relation to its signed form.
func (d *Delta) ToSigned() *Signed {
	out := &Signed{Schema: d.schema, Rows: make([]SignedRow, 0, len(d.rows))}
	for _, r := range d.rows {
		switch r.Kind() {
		case Insert:
			out.Rows = append(out.Rows, SignedRow{TID: r.TID, Values: r.New, Sign: +1})
		case Delete:
			out.Rows = append(out.Rows, SignedRow{TID: r.TID, Values: r.Old, Sign: -1})
		case Modify:
			out.Rows = append(out.Rows,
				SignedRow{TID: r.TID, Values: r.Old, Sign: -1},
				SignedRow{TID: r.TID, Values: r.New, Sign: +1},
			)
		}
	}
	return out
}

// Len returns the number of signed rows.
func (s *Signed) Len() int { return len(s.Rows) }

// ToDelta converts a signed delta back to the old/new/ts differential
// layout, pairing a -1 and a +1 row with the same tid into a modification.
// All rows receive timestamp ts.
func (s *Signed) ToDelta(ts vclock.Timestamp) *Delta {
	type pair struct {
		old, now []relation.Value
	}
	pairs := make(map[relation.TID]*pair, len(s.Rows))
	order := make([]relation.TID, 0, len(s.Rows))
	for _, r := range s.Rows {
		p, ok := pairs[r.TID]
		if !ok {
			p = &pair{}
			pairs[r.TID] = p
			order = append(order, r.TID)
		}
		if r.Sign < 0 {
			p.old = r.Values
		} else {
			p.now = r.Values
		}
	}
	out := New(s.Schema)
	for _, tid := range order {
		p := pairs[tid]
		if p.old == nil && p.now == nil {
			continue
		}
		if p.old != nil && p.now != nil && valuesEqual(p.old, p.now) {
			continue
		}
		out.rows = append(out.rows, Row{TID: tid, Old: p.old, New: p.now, TS: ts})
	}
	return out
}

// ToDeltaNetted is ToDelta specialized to signed deltas already in
// netted form — each tid appears exactly once, as an adjacent run of at
// most one -1 row followed by at most one +1 row. The pairing is then a
// single forward pass with no per-tid index, so the conversion allocates
// only the output. Callers holding arbitrary signed deltas must use
// ToDelta.
func (s *Signed) ToDeltaNetted(ts vclock.Timestamp) *Delta {
	out := &Delta{schema: s.Schema}
	if len(s.Rows) == 0 {
		return out
	}
	out.rows = make([]Row, 0, len(s.Rows))
	for i := 0; i < len(s.Rows); i++ {
		r := s.Rows[i]
		if r.Sign < 0 && i+1 < len(s.Rows) && s.Rows[i+1].Sign > 0 && s.Rows[i+1].TID == r.TID {
			now := s.Rows[i+1].Values
			if !valuesEqual(r.Values, now) {
				out.rows = append(out.rows, Row{TID: r.TID, Old: r.Values, New: now, TS: ts})
			}
			i++
			continue
		}
		if r.Sign < 0 {
			out.rows = append(out.rows, Row{TID: r.TID, Old: r.Values, TS: ts})
		} else {
			out.rows = append(out.rows, Row{TID: r.TID, New: r.Values, TS: ts})
		}
	}
	return out
}

// ApplySigned applies a signed delta to a materialized result relation
// in row order: a -1 row removes its tid, a +1 row inserts or replaces
// it. A -1 row directly followed by the +1 row of the same tid — how a
// netted delta carries a modification — is one replacement in place: the
// tuple keeps its position and the tid index is not touched. Used to
// maintain the cached complete result of a CQ (Section 4.3, "complete
// set of the result").
func ApplySigned(rel *relation.Relation, s *Signed) {
	for i, r := range s.Rows {
		switch {
		case r.Sign > 0:
			_ = rel.Upsert(relation.Tuple{TID: r.TID, Values: r.Values})
		case i+1 < len(s.Rows) && s.Rows[i+1].Sign > 0 && s.Rows[i+1].TID == r.TID:
			// -old of a pair: the +new that follows overwrites it.
		default:
			_ = rel.Delete(r.TID) // an absent tid has nothing to remove
		}
	}
}
