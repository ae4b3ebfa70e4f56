package batch

import (
	"errors"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// ErrShape is returned by ToDeltaOrdered when the batch does not carry
// the ordered signed form (missing TS column or inconsistent lengths).
var ErrShape = errors.New("batch: not an ordered signed batch")

// EnableTS switches the batch into the ordered signed form that carries
// a per-row commit timestamp, used for batches built at the storage
// boundary. Must be called while the batch is empty.
func (b *Batch) EnableTS() {
	b.check()
	if b.TS == nil {
		// Sized like the other columns, so filling the batch grows none.
		b.TS = make([]vclock.Timestamp, 0, max(cap(b.TIDs), 8))
	}
	b.TS = b.TS[:0]
}

// Adopt wraps columns built elsewhere — a decoded frame (Dec.Frame) —
// as an ordered signed batch without copying them. Every slice must hold
// len(tids) rows (a Valid bitmap: nil, or at least one bit per row); the
// caller checks that, and must not modify the slices while the batch is
// in use.
func Adopt(schema relation.Schema, tids []relation.TID, signs []int8, ts []vclock.Timestamp, cols []Col) *Batch {
	return &Batch{Schema: schema, TIDs: tids, Signs: signs, TS: ts, Cols: cols, n: len(tids)}
}

// FromSigned converts a signed delta into a pooled columnar batch. It
// reports ok=false — and returns no batch — when any value is
// unrepresentable under the schema's column types (kind mismatch or an
// untyped NULL); what to do then is the caller's.
func FromSigned(p *Pool, s *delta.Signed) (*Batch, bool) {
	b := p.Get(s.Schema, len(s.Rows))
	for _, r := range s.Rows {
		if !b.AppendRow(r.TID, int8(r.Sign), r.Values) {
			// released: partial fill discarded, nothing else holds it.
			p.Put(b)
			return nil, false
		}
	}
	return b, true
}

// AppendChange appends one differential row in its signed decomposition
// (-old then +new, deletes -old only, inserts +new only), stamping the
// row timestamps when the batch carries a TS column. Reports false on
// an unrepresentable value; the batch is then in an undefined state and
// must be discarded by the caller.
func (b *Batch) AppendChange(r delta.Row) bool {
	b.check()
	if r.Old != nil {
		if !b.AppendRow(r.TID, -1, r.Old) {
			return false
		}
		if b.TS != nil {
			b.TS[b.n-1] = r.TS
		}
	}
	if r.New != nil {
		if !b.AppendRow(r.TID, +1, r.New) {
			return false
		}
		if b.TS != nil {
			b.TS[b.n-1] = r.TS
		}
	}
	return true
}

// FromDelta converts a differential window into its ordered signed
// batch form (TS column populated). ok=false means some value was
// unrepresentable; a window read from the store never is.
func FromDelta(p *Pool, d *delta.Delta) (*Batch, bool) {
	b := p.Get(d.Schema(), d.Len()*2)
	b.EnableTS()
	for _, r := range d.Rows() {
		if !b.AppendChange(r) {
			// released: partial fill discarded, nothing else holds it.
			p.Put(b)
			return nil, false
		}
	}
	return b, true
}

// ToSigned materializes the batch as a row-oriented signed delta. All
// row value slices share one flat backing array, so the conversion
// costs two allocations regardless of row count, and the result owns
// its memory — it stays valid after the batch returns to the pool.
func (b *Batch) ToSigned() *delta.Signed {
	b.check()
	out := &delta.Signed{Schema: b.Schema}
	if b.n == 0 {
		return out
	}
	width := len(b.Cols)
	flat := make([]relation.Value, b.n*width)
	out.Rows = make([]delta.SignedRow, b.n)
	for i := 0; i < b.n; i++ {
		vals := flat[i*width : (i+1)*width : (i+1)*width]
		b.ReadRow(i, vals)
		out.Rows[i] = delta.SignedRow{TID: b.TIDs[i], Values: vals, Sign: int(b.Signs[i])}
	}
	return out
}

// ToDeltaOrdered reconstructs the differential rows from an ordered
// signed batch (the exact inverse of FromDelta / AppendChange): a -1
// row immediately followed by a +1 row with the same tid and timestamp
// is a modification; a lone +1 is an insertion; a lone -1 is a
// deletion. This is lossless because within one commit each table's
// tids are unique, so adjacency fully determines pairing.
func (b *Batch) ToDeltaOrdered() (*delta.Delta, error) {
	b.check()
	if b.TS == nil && b.n > 0 {
		return nil, ErrShape
	}
	out := delta.New(b.Schema)
	width := len(b.Cols)
	for i := 0; i < b.n; i++ {
		switch {
		case b.Signs[i] > 0:
			vals := make([]relation.Value, width)
			b.ReadRow(i, vals)
			if err := out.AppendInsert(b.TIDs[i], vals, b.TS[i]); err != nil {
				return nil, err
			}
		case i+1 < b.n && b.Signs[i+1] > 0 && b.TIDs[i+1] == b.TIDs[i] && b.TS[i+1] == b.TS[i]:
			old := make([]relation.Value, width)
			now := make([]relation.Value, width)
			b.ReadRow(i, old)
			b.ReadRow(i+1, now)
			if err := out.AppendModify(b.TIDs[i], old, now, b.TS[i]); err != nil {
				return nil, err
			}
			i++
		default:
			vals := make([]relation.Value, width)
			b.ReadRow(i, vals)
			if err := out.AppendDelete(b.TIDs[i], vals, b.TS[i]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
