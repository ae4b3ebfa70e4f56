package batch

import (
	"fmt"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
)

// Table is slot-addressed columnar storage of a row set keyed by tid —
// the integrated Z-set of a standing query: a join operand's replica,
// and every maintained query result (Section 4.3's Et_i(Q), kept by
// applying each refresh's change). Rows live in the typed columns of
// one batch, addressed by slot: a row keeps its slot for as long as it
// lives, a freed slot is a hole (sign 0) reused LIFO, and the tid → slot
// index is a flat relation.SlotIndex verified against the TID column on
// probe. The free list is threaded through the holes' TID cells, so
// freeing and reusing slots allocates nothing. Nothing in it holds a
// Tuple, a value slice or a per-row map; apart from string payloads the
// whole structure is pointer-free, so a row references none of the
// batches or value slices it was written from, and the collector has
// little to trace.
//
// Reads that need rows render them on demand (Relation) into
// memory the caller owns. A Table is not safe for concurrent use.
type Table struct {
	rows  *Batch // slot-addressed; Signs[slot] is +1 live, 0 free
	byTID relation.SlotIndex
	// free is 1 + the most recently freed slot, 0 when there is none; a
	// free slot's TID cell holds 1 + the slot freed before it the same way.
	free int32
	live int
	// moves is ApplyChange's scratch, kept for the next change.
	moves []move
}

// SlotObserver is told of every slot Table.ApplyBatch writes or frees,
// so an owner can keep secondary indexes over the slots (a replica's key
// indexes). SlotFreed runs before the slot is cleared; SlotWritten after
// the row is written, fresh when the slot was not live before.
type SlotObserver interface {
	SlotFreed(slot int32)
	SlotWritten(slot int32, fresh bool)
}

// compactMin is the fewest free slots a result table compacts away:
// below it the holes cost less than the copy.
const compactMin = 64

// NewTable returns an empty table for the schema with room for capHint
// rows.
func NewTable(schema relation.Schema, capHint int) *Table {
	return &Table{rows: New(schema, capHint)}
}

// TableOf adopts rows — every row live, each tid once — as a table. The
// table owns the batch from then on.
func TableOf(rows *Batch) *Table {
	t := &Table{rows: rows, live: rows.Len()}
	for s, tid := range rows.TIDs {
		rows.Signs[s] = 1
		t.byTID.Insert(int32(s), uint64(tid))
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() relation.Schema { return t.rows.Schema }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// Rows returns the slot-addressed columns, holes included (Signs[slot]
// is 0 for a free slot). They are the table's own: read them, never
// write them.
func (t *Table) Rows() *Batch { return t.rows }

// Slot returns the slot holding tid, or -1.
func (t *Table) Slot(tid relation.TID) int32 {
	s := t.byTID.First(uint64(tid))
	for s >= 0 && t.rows.TIDs[s] != tid {
		s = t.byTID.Next(s)
	}
	return s
}

// RowEqual reports whether slot s holds vals, position by position
// (relation.Value.Equal semantics), compared in place.
func (t *Table) RowEqual(s int32, vals []relation.Value) bool {
	for c := range t.rows.Cols {
		if !t.rows.Cols[c].value(int(s)).Equal(vals[c]) {
			return false
		}
	}
	return true
}

// ApplyBatch folds a signed delta batch of the table's column types into
// it in row order: a negative row frees its tid's slot, a positive row
// overwrites its tid's slot or takes a free one. A modification arrives
// as -old directly before +new and is one overwrite in place: the row
// keeps its slot. obs, when non-nil, is told of every slot written or
// freed.
func (t *Table) ApplyBatch(b *Batch, obs SlotObserver) {
	n := b.Len()
	if t.rows.Len() == 0 {
		// An empty table (a seed's) takes the batch's size at once.
		t.rows = New(t.rows.Schema, n)
	}
	for i := 0; i < n; i++ {
		tid := b.TIDs[i]
		s := t.Slot(tid)
		if b.Signs[i] < 0 {
			if s >= 0 && i+1 < n && b.Signs[i+1] > 0 && b.TIDs[i+1] == tid {
				i++ // -old +new: fall through to overwrite slot s with +new
			} else {
				if s >= 0 {
					if obs != nil {
						obs.SlotFreed(s)
					}
					t.freeSlot(s)
				}
				continue
			}
		}
		fresh := s < 0
		if fresh {
			s = t.takeSlot(tid)
		}
		t.rows.SetRowFrom(int(s), b, i)
		t.rows.Signs[s] = 1
		if obs != nil {
			obs.SlotWritten(s, fresh)
		}
	}
}

// Apply folds a refresh's netted change (dra.Result.Delta) into the
// table, with delta.ApplySigned's semantics over a relation.Relation: an
// insert writes its tid, a delete frees it (an absent tid has nothing to
// free), and a modification overwrites the tid's row in place. Values
// are written typed into the table's own slots under
// relation.Column.Conform, so nothing of d is retained. d must fit the
// table (Fits): a refresh checks it before anything commits and applies
// it after, so Apply has nothing left to refuse. A table left with more
// free slots than live rows compacts.
func (t *Table) Apply(d *delta.Delta) {
	for _, r := range d.Rows() {
		if r.New != nil {
			t.put(r.TID, r.New)
		} else if sl := t.Slot(r.TID); sl >= 0 {
			t.freeSlot(sl)
		}
	}
	t.compact()
}

// Fits reports whether every new half of d can be written into the
// table (Apply): the right arity, and every value one its column holds
// under relation.Column.Conform. Deletions are only matched by tid. A
// value its column cannot hold is an error wrapping
// relation.ErrTypeMismatch.
func (t *Table) Fits(d *delta.Delta) error {
	for _, r := range d.Rows() {
		if r.New != nil {
			if err := t.fits(r.New); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *Table) fits(vals []relation.Value) error {
	schema := t.rows.Schema
	if len(vals) != schema.Len() {
		return fmt.Errorf("batch: table row: %w: got %d values, schema has %d columns", relation.ErrArity, len(vals), schema.Len())
	}
	for c, v := range vals {
		if v.Kind == t.rows.Cols[c].Type {
			continue
		}
		if _, err := schema.Col(c).Conform(v); err != nil {
			return fmt.Errorf("batch: table row: %w", err)
		}
	}
	return nil
}

// Set inserts vals under tid, or overwrites the row tid already has,
// writing them typed (relation.Column.Conform). A value its column
// cannot hold fails with an error wrapping relation.ErrTypeMismatch and
// leaves the table untouched.
func (t *Table) Set(tid relation.TID, vals []relation.Value) error {
	if err := t.fits(vals); err != nil {
		return err
	}
	t.put(tid, vals)
	return nil
}

// put is Set for values already known to fit.
func (t *Table) put(tid relation.TID, vals []relation.Value) {
	s := t.Slot(tid)
	if s < 0 {
		s = t.takeSlot(tid)
	}
	schema := t.rows.Schema
	for c := range t.rows.Cols {
		v := vals[c]
		if col := &t.rows.Cols[c]; v.Kind != col.Type {
			v, _ = schema.Col(c).Conform(v) // fits: checked by the caller (Fits)
		}
		t.rows.Cols[c].setValue(int(s), t.rows.n, v)
	}
	t.rows.TIDs[s], t.rows.Signs[s] = tid, 1
}

// PutFrom inserts row i of src (the table's column types) under its tid,
// or overwrites the row that tid already has: a typed copy, cell by
// cell.
func (t *Table) PutFrom(src *Batch, i int) {
	tid := src.TIDs[i]
	s := t.Slot(tid)
	if s < 0 {
		s = t.takeSlot(tid)
	}
	t.rows.SetRowFrom(int(s), src, i)
	t.rows.Signs[s] = 1
}

// Load inserts rows sel of src (nil means every row), taking column j
// from src column cols[j], as PutFrom would one by one — but column at a
// time: the bulk fill of a seed from a selection over a table image.
func (t *Table) Load(src *Batch, sel []int32, cols []int) {
	first := t.rows.Len()
	t.rows.AppendSelected(src, sel, cols)
	for s := first; s < t.rows.Len(); s++ {
		tid := t.rows.TIDs[s]
		if old := t.Slot(tid); old >= 0 {
			// A tid seen again: the later row wins, in the earlier slot.
			t.rows.SetRowFrom(int(old), t.rows, s)
			t.rows.Signs[old] = 1
			t.rows.ClearRow(s)
			t.pushFree(int32(s))
			continue
		}
		t.rows.Signs[s] = 1
		t.byTID.Insert(int32(s), uint64(tid))
		t.live++
	}
}

// takeSlot gives tid a slot — a freed one, or a fresh one at the end —
// indexed and counted live; the caller writes the row.
func (t *Table) takeSlot(tid relation.TID) int32 {
	var s int32
	if t.free > 0 {
		s = t.free - 1
		t.free = int32(t.rows.TIDs[s])
	} else {
		s = int32(t.rows.Len())
		t.rows.appendHole()
	}
	t.rows.TIDs[s] = tid
	t.byTID.Insert(s, uint64(tid))
	t.live++
	return s
}

// freeSlot unindexes slot s and leaves it a hole for reuse, on top of
// the free list.
func (t *Table) freeSlot(s int32) {
	t.byTID.Delete(s)
	t.rows.ClearRow(int(s))
	t.pushFree(s)
	t.live--
}

// pushFree puts the hole s on top of the free list.
func (t *Table) pushFree(s int32) {
	t.rows.TIDs[s] = relation.TID(t.free)
	t.free = s + 1
}

// compact rewrites the table without its holes once they outnumber the
// live rows (and compactMin), so a result that shrank gives its memory
// back. Slots are renumbered: only a table no secondary index addresses
// by slot may compact, which is why ApplyBatch never does.
func (t *Table) compact() {
	if holes := t.rows.Len() - t.live; holes < compactMin || holes <= t.live {
		return
	}
	rows := New(t.rows.Schema, t.live)
	var ix relation.SlotIndex
	for s := 0; s < t.rows.Len(); s++ {
		if t.rows.Signs[s] != 0 {
			ix.Insert(int32(rows.Len()), uint64(t.rows.TIDs[s]))
			rows.AppendFrom(t.rows, s)
		}
	}
	t.rows, t.byTID, t.free = rows, ix, 0
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := NewTable(t.rows.Schema, t.live)
	for s := 0; s < t.rows.Len(); s++ {
		if t.rows.Signs[s] != 0 {
			out.PutFrom(t.rows, s)
		}
	}
	return out
}

// Relation renders the live rows as a relation the caller owns, every
// row's values on one flat backing allocated for the call.
func (t *Table) Relation() *relation.Relation {
	width := t.rows.Schema.Len()
	out := relation.NewSized(t.rows.Schema, t.live)
	flat := make([]relation.Value, t.live*width)
	for s := 0; s < t.rows.Len(); s++ {
		if t.rows.Signs[s] == 0 {
			continue
		}
		vals := flat[:width:width]
		flat = flat[width:]
		t.rows.ReadRow(s, vals)
		_ = out.Insert(relation.Tuple{TID: t.rows.TIDs[s], Values: vals}) // tids are distinct
	}
	return out
}

// Bytes is the memory the table holds: its columns (string headers, not
// the payloads, which it shares with the rows it was written from; the
// free list lives in the holes), the tid index and ApplyChange's
// scratch, by capacity.
func (t *Table) Bytes() int {
	b := t.rows
	n := cap(b.TIDs)*8 + cap(b.Signs) + cap(b.TS)*8
	for c := range b.Cols {
		col := &b.Cols[c]
		n += cap(col.I64)*8 + cap(col.F64)*8 + cap(col.Str)*16 + cap(col.B) + cap(col.Valid)*8
	}
	return n + t.byTID.Bytes() + cap(t.moves)*8
}

// appendHole appends one empty row (sign 0, tid 0, zero payloads,
// valid) to a slot-addressed batch.
func (b *Batch) appendHole() {
	b.check()
	for c := range b.Cols {
		col := &b.Cols[c]
		col.appendValidity(b.n, true)
		col.appendZero()
	}
	b.TIDs = append(b.TIDs, 0)
	b.Signs = append(b.Signs, 0)
	if b.TS != nil {
		b.TS = append(b.TS, 0)
	}
	b.n++
}

// setValue overwrites row n of the column (which holds rows rows) with
// v, a value of the column's type or a NULL.
func (c *Col) setValue(n, rows int, v relation.Value) {
	valid := !v.IsNull()
	if c.Valid != nil || !valid {
		if c.Valid == nil {
			c.materializeValidity(rows)
		}
		if valid {
			c.Valid[n>>6] |= 1 << uint(n&63)
		} else {
			c.Valid[n>>6] &^= 1 << uint(n&63)
		}
	}
	switch c.Type {
	case relation.TInt:
		c.I64[n] = 0
		if valid {
			c.I64[n] = v.AsInt()
		}
	case relation.TFloat:
		c.F64[n] = 0
		if valid {
			c.F64[n] = v.AsFloat()
		}
	case relation.TString:
		c.Str[n] = ""
		if valid {
			c.Str[n] = v.AsString()
		}
	case relation.TBool:
		c.B[n] = valid && v.AsBool()
	}
}
