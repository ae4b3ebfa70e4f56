// Package batch implements the typed columnar representation of signed
// deltas that the vectorized refresh path computes over: one typed Go
// slice per column ([]int64, []float64, []string, []bool), a validity
// bitmap for NULLs, a tuple-identifier column, a sign column, and an
// optional commit-timestamp column for batches built at the storage
// boundary. The layout is the Z-set batch of DBSP-style incremental
// engines: a Batch is a signed multiset of rows, exactly the algebraic
// object the truth-table expansion of Algorithm 1 composes, but stored
// structure-of-arrays so operators touch contiguous memory and a pooled
// arena (Pool) can recycle every buffer across refresh rounds.
//
// Representability: a Batch stores one declared type per column. Values
// whose Kind differs from the column type — including untyped NULLs
// (relation.NullValue, Kind 0) — are unrepresentable; conversion entry
// points report ok=false. The store's write boundary
// (relation.Schema.Conform) keeps such values out of every stored row,
// so for the engine ok=false is an error, not a mode. NULLs tagged with
// the column type (relation.TypedNull) round-trip exactly through the
// validity bitmap.
package batch

import (
	"fmt"
	"slices"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Col is one typed column: exactly one of the payload slices is in use,
// selected by Type, and all payload slices in use share the batch's row
// count. Rows whose validity bit is clear are NULL; their payload slot
// holds the zero value as a placeholder.
type Col struct {
	Type relation.Type
	I64  []int64
	F64  []float64
	Str  []string
	B    []bool
	// Valid is the validity bitmap (bit i set means row i is non-NULL);
	// nil means every row is valid.
	Valid []uint64
}

// Batch is a signed columnar multiset of rows under a schema.
// All column slices and TIDs/Signs (and TS when present) have the same
// length. The zero Batch is empty and unusable; construct with New or
// Pool.Get.
type Batch struct {
	Schema relation.Schema
	TIDs   []relation.TID
	Signs  []int8
	// TS carries per-row commit timestamps; it is set only on batches
	// built at the storage boundary (FromDelta / the commit hook) where
	// the ordered signed form must reconstruct the differential rows
	// exactly. Operator outputs leave it nil.
	TS   []vclock.Timestamp
	Cols []Col

	n int

	// dead and gen implement the poisoned-generation use-after-release
	// assertion: Pool.Put marks the batch dead and bumps gen; in poison
	// builds (-race / the poison tag) every accessor panics on a dead
	// batch, so a stage that keeps referencing a returned batch fails
	// loudly in CI instead of silently reading recycled buffers.
	dead bool
	gen  uint64
}

// New allocates an unpooled batch for the schema with capacity for
// capHint rows.
func New(schema relation.Schema, capHint int) *Batch {
	b := &Batch{}
	b.init(schema, capHint)
	return b
}

// init (re)shapes the batch for a schema, keeping whatever buffer
// capacity it already has.
func (b *Batch) init(schema relation.Schema, capHint int) {
	b.Schema = schema
	b.n = 0
	b.TIDs = b.TIDs[:0]
	b.Signs = b.Signs[:0]
	b.TS = nil
	if cap(b.Cols) >= schema.Len() {
		b.Cols = b.Cols[:schema.Len()]
	} else {
		b.Cols = make([]Col, schema.Len())
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		c.Type = schema.Col(i).Type
		c.Valid = c.Valid[:0]
		c.I64 = c.I64[:0]
		c.F64 = c.F64[:0]
		c.Str = c.Str[:0]
		c.B = c.B[:0]
		// One sized allocation where the recycled buffer falls short,
		// instead of a doubling series as the rows arrive.
		switch c.Type {
		case relation.TInt:
			c.I64 = slices.Grow(c.I64, capHint)
		case relation.TFloat:
			c.F64 = slices.Grow(c.F64, capHint)
		case relation.TString:
			c.Str = slices.Grow(c.Str, capHint)
		case relation.TBool:
			c.B = slices.Grow(c.B, capHint)
		}
	}
	b.TIDs = slices.Grow(b.TIDs, capHint)
	b.Signs = slices.Grow(b.Signs, capHint)
}

// Reset empties the batch for reuse under its schema, keeping its
// buffers' capacity.
func (b *Batch) Reset() {
	b.check()
	b.init(b.Schema, 0)
}

// Len returns the number of rows.
func (b *Batch) Len() int {
	b.check()
	return b.n
}

// Gen returns the poisoned-generation counter; it increments every time
// the batch is recycled through a Pool, so a holder can detect reuse.
func (b *Batch) Gen() uint64 { return b.gen }

// check panics in poison builds when the batch has been returned to a
// pool. In regular builds it compiles to nothing.
func (b *Batch) check() {
	if poisonEnabled && b.dead {
		panic("batch: use after Pool.Put (poisoned generation " + fmt.Sprint(b.gen) + ")")
	}
}

// IsValid reports whether row i of column c is non-NULL.
func (c *Col) IsValid(i int) bool {
	if c.Valid == nil {
		return true
	}
	return c.Valid[i>>6]&(1<<uint(i&63)) != 0
}

// materializeValidity allocates the bitmap with bits [0,n) set.
func (c *Col) materializeValidity(n int) {
	words := (n + 63) / 64
	if cap(c.Valid) >= words {
		c.Valid = c.Valid[:words]
	} else {
		c.Valid = make([]uint64, words)
	}
	for w := 0; w < words; w++ {
		c.Valid[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 && words > 0 {
		c.Valid[words-1] = (1 << uint(r)) - 1
	}
}

// appendValidity extends the bitmap (when present) with one bit.
func (c *Col) appendValidity(i int, valid bool) {
	if c.Valid == nil {
		if valid {
			return // all-valid stays implicit
		}
		c.materializeValidity(i)
	}
	if w := i >> 6; w == len(c.Valid) {
		c.Valid = append(c.Valid, 0)
	}
	if valid {
		c.Valid[i>>6] |= 1 << uint(i&63)
	} else {
		c.Valid[i>>6] &^= 1 << uint(i&63)
	}
}

// appendValue appends one value to the column at row index i. It reports
// false when the value is unrepresentable under the column type (kind
// mismatch, or a NULL not tagged with the column type).
func (c *Col) appendValue(i int, v relation.Value) bool {
	if v.Kind != c.Type {
		return false
	}
	if v.IsNull() {
		c.appendValidity(i, false)
		c.appendZero()
		return true
	}
	c.appendValidity(i, true)
	switch c.Type {
	case relation.TInt:
		c.I64 = append(c.I64, v.AsInt())
	case relation.TFloat:
		c.F64 = append(c.F64, v.AsFloat())
	case relation.TString:
		c.Str = append(c.Str, v.AsString())
	case relation.TBool:
		c.B = append(c.B, v.AsBool())
	default:
		return false
	}
	return true
}

// appendZero appends the zero placeholder of the column's type.
func (c *Col) appendZero() {
	switch c.Type {
	case relation.TInt:
		c.I64 = append(c.I64, 0)
	case relation.TFloat:
		c.F64 = append(c.F64, 0)
	case relation.TString:
		c.Str = append(c.Str, "")
	case relation.TBool:
		c.B = append(c.B, false)
	}
}

// length returns the column's current row count.
func (c *Col) length() int {
	switch c.Type {
	case relation.TInt:
		return len(c.I64)
	case relation.TFloat:
		return len(c.F64)
	case relation.TString:
		return len(c.Str)
	case relation.TBool:
		return len(c.B)
	default:
		return 0
	}
}

// appendFromCol appends row i of src (same type) to the column at row
// index n.
func (c *Col) appendFromCol(n int, src *Col, i int) {
	c.appendValidity(n, src.IsValid(i))
	switch c.Type {
	case relation.TInt:
		c.I64 = append(c.I64, src.I64[i])
	case relation.TFloat:
		c.F64 = append(c.F64, src.F64[i])
	case relation.TString:
		c.Str = append(c.Str, src.Str[i])
	case relation.TBool:
		c.B = append(c.B, src.B[i])
	}
}

// appendSelected appends rows sel of src (same type; nil = every row)
// to the column, which holds n rows.
func (c *Col) appendSelected(n int, src *Col, sel []int32) {
	if c.Valid != nil || src.Valid != nil {
		rows := len(sel)
		if sel == nil {
			rows = src.length()
		}
		for k := 0; k < rows; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			c.appendValidity(n+k, src.IsValid(i))
		}
	}
	if sel == nil {
		c.I64 = append(c.I64, src.I64...)
		c.F64 = append(c.F64, src.F64...)
		c.Str = append(c.Str, src.Str...)
		c.B = append(c.B, src.B...)
		return
	}
	switch c.Type {
	case relation.TInt:
		for _, i := range sel {
			c.I64 = append(c.I64, src.I64[i])
		}
	case relation.TFloat:
		for _, i := range sel {
			c.F64 = append(c.F64, src.F64[i])
		}
	case relation.TString:
		for _, i := range sel {
			c.Str = append(c.Str, src.Str[i])
		}
	case relation.TBool:
		for _, i := range sel {
			c.B = append(c.B, src.B[i])
		}
	}
}

// CloneCol deep-copies a column's buffers; the clone owns its memory.
func CloneCol(c Col) Col {
	out := Col{Type: c.Type}
	out.I64 = append(out.I64, c.I64...)
	out.F64 = append(out.F64, c.F64...)
	out.Str = append(out.Str, c.Str...)
	out.B = append(out.B, c.B...)
	out.Valid = append(out.Valid, c.Valid...)
	return out
}

// value reconstructs row i as a relation.Value. NULL rows come back as
// TypedNull of the column type.
func (c *Col) value(i int) relation.Value {
	if !c.IsValid(i) {
		return relation.TypedNull(c.Type)
	}
	switch c.Type {
	case relation.TInt:
		return relation.Int(c.I64[i])
	case relation.TFloat:
		return relation.Float(c.F64[i])
	case relation.TString:
		return relation.Str(c.Str[i])
	case relation.TBool:
		return relation.Bool(c.B[i])
	default:
		return relation.NullValue()
	}
}

// equalAt reports whether rows i and j of the column hold equal values
// under relation.Value.Equal semantics (NULL equals NULL; payloads
// compare typed).
func (c *Col) equalAt(i, j int) bool { return colsEqual(c, i, c, j) }

// colsEqual is equalAt across two columns: row i of c against row j of
// o. Columns of different types compare through relation.Value.Equal.
func colsEqual(c *Col, i int, o *Col, j int) bool {
	if c.Type != o.Type {
		return c.value(i).Equal(o.value(j))
	}
	vi, vj := c.IsValid(i), o.IsValid(j)
	if vi != vj {
		return false
	}
	if !vi {
		return true
	}
	switch c.Type {
	case relation.TInt:
		return c.I64[i] == o.I64[j]
	case relation.TFloat:
		return c.F64[i] == o.F64[j]
	case relation.TString:
		return c.Str[i] == o.Str[j]
	case relation.TBool:
		return c.B[i] == o.B[j]
	default:
		return false
	}
}

// setFromCol overwrites row n of the column (which holds rows rows) with
// row i of src (same type).
func (c *Col) setFromCol(n, rows int, src *Col, i int) {
	if valid := src.IsValid(i); c.Valid != nil || !valid {
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
		c.I64[n] = src.I64[i]
	case relation.TFloat:
		c.F64[n] = src.F64[i]
	case relation.TString:
		c.Str[n] = src.Str[i]
	case relation.TBool:
		c.B[n] = src.B[i]
	}
}

// Value returns the value at (row, col), reconstructing NULLs as typed
// NULLs of the column type.
func (b *Batch) Value(row, col int) relation.Value {
	b.check()
	return b.Cols[col].value(row)
}

// ReadRow fills dst (len == schema width) with row i's values.
func (b *Batch) ReadRow(i int, dst []relation.Value) {
	b.check()
	for c := range b.Cols {
		dst[c] = b.Cols[c].value(i)
	}
}

// RowsEqual reports whether rows i and j carry equal values position by
// position (relation.Value.Equal semantics within a typed column).
func (b *Batch) RowsEqual(i, j int) bool {
	b.check()
	for c := range b.Cols {
		if !b.Cols[c].equalAt(i, j) {
			return false
		}
	}
	return true
}

// AppendRow appends one signed row. It reports false when any value is
// unrepresentable under its column's type, leaving the batch's rows as
// they were (a column's validity bitmap may have been materialized, all
// valid, which reads the same).
func (b *Batch) AppendRow(tid relation.TID, sign int8, vals []relation.Value) bool {
	b.check()
	for c := range b.Cols {
		if !b.Cols[c].appendValue(b.n, vals[c]) {
			b.truncateCols(c)
			return false
		}
	}
	b.TIDs = append(b.TIDs, tid)
	b.Signs = append(b.Signs, sign)
	if b.TS != nil {
		b.TS = append(b.TS, 0)
	}
	b.n++
	return true
}

// truncateCols cuts the payloads of the first cols columns back to the
// batch's rows, undoing a partly appended row.
func (b *Batch) truncateCols(cols int) {
	for c := range b.Cols[:cols] {
		switch col := &b.Cols[c]; col.Type {
		case relation.TInt:
			col.I64 = col.I64[:b.n]
		case relation.TFloat:
			col.F64 = col.F64[:b.n]
		case relation.TString:
			col.Str = col.Str[:b.n]
		case relation.TBool:
			col.B = col.B[:b.n]
		}
	}
}

// AppendFrom appends row i of src (same column types) to b.
func (b *Batch) AppendFrom(src *Batch, i int) {
	b.check()
	src.check()
	for c := range b.Cols {
		dc, sc := &b.Cols[c], &src.Cols[c]
		dc.appendValidity(b.n, sc.IsValid(i))
		switch dc.Type {
		case relation.TInt:
			dc.I64 = append(dc.I64, sc.I64[i])
		case relation.TFloat:
			dc.F64 = append(dc.F64, sc.F64[i])
		case relation.TString:
			dc.Str = append(dc.Str, sc.Str[i])
		case relation.TBool:
			dc.B = append(dc.B, sc.B[i])
		}
	}
	b.TIDs = append(b.TIDs, src.TIDs[i])
	b.Signs = append(b.Signs, src.Signs[i])
	if b.TS != nil && src.TS != nil {
		b.TS = append(b.TS, src.TS[i])
	}
	b.n++
}

// AppendSelected appends rows sel of src (nil means every row), in
// order, taking column j from src column cols[j]: the selection and
// bare-column projection of a window as one column-at-a-time copy. b's
// column types must be those of the chosen src columns.
func (b *Batch) AppendSelected(src *Batch, sel []int32, cols []int) {
	b.check()
	src.check()
	for j, ci := range cols {
		b.Cols[j].appendSelected(b.n, &src.Cols[ci], sel)
	}
	if sel == nil {
		b.TIDs = append(b.TIDs, src.TIDs...)
		b.Signs = append(b.Signs, src.Signs...)
		b.n += src.n
		return
	}
	for _, i := range sel {
		b.TIDs = append(b.TIDs, src.TIDs[i])
		b.Signs = append(b.Signs, src.Signs[i])
	}
	b.n += len(sel)
}

// AppendColValue appends one value to column col (at that column's
// current length), for column-wise builders like vectorized projection.
// The caller must keep all columns at equal length before using the
// batch row-wise (see CopyRowsFrom). Reports false on an unrepresentable
// value.
func (b *Batch) AppendColValue(col int, v relation.Value) bool {
	b.check()
	c := &b.Cols[col]
	return c.appendValue(c.length(), v)
}

// CopyRowsFrom copies src's TID and sign columns (reusing b's pooled
// capacity) and sets the row count — the tail step of a column-wise
// builder whose value columns were filled by steal/clone/AppendColValue.
func (b *Batch) CopyRowsFrom(src *Batch) {
	b.check()
	src.check()
	b.TIDs = append(b.TIDs[:0], src.TIDs...)
	b.Signs = append(b.Signs[:0], src.Signs...)
	b.TS = nil
	b.n = src.n
}

// AppendPlaced appends one row whose columns [lo, lo+src.width) come
// from src row r and whose remaining columns hold valid zero
// placeholders — the seed step of vectorized term evaluation, where
// unfilled operand ranges are never read before their operand joins.
// The row's sign is src's; its TID slot is zero (term evaluation tracks
// per-operand provenance separately).
func (b *Batch) AppendPlaced(src *Batch, r, lo int) {
	b.check()
	src.check()
	w := len(src.Cols)
	for c := range b.Cols {
		dc := &b.Cols[c]
		if c >= lo && c < lo+w {
			dc.appendFromCol(b.n, &src.Cols[c-lo], r)
		} else {
			dc.appendValidity(b.n, true)
			dc.appendZero()
		}
	}
	b.TIDs = append(b.TIDs, 0)
	b.Signs = append(b.Signs, src.Signs[r])
	b.n++
}

// AppendMerged appends src row r with columns [lo, lo+w) replaced by op
// row m, multiplying the signs — one join-step emit of vectorized term
// evaluation. Column lo+k comes from op column cols[k]: a join operand's
// column map over its table's rows. Nil cols takes op's columns as they
// are (w is op's width).
func (b *Batch) AppendMerged(src *Batch, r int, op *Batch, m, lo int, cols []int) {
	b.check()
	src.check()
	op.check()
	w := len(op.Cols)
	if cols != nil {
		w = len(cols)
	}
	for c := range b.Cols {
		dc := &b.Cols[c]
		if c >= lo && c < lo+w {
			oc := c - lo
			if cols != nil {
				oc = cols[oc]
			}
			dc.appendFromCol(b.n, &op.Cols[oc], m)
		} else {
			dc.appendFromCol(b.n, &src.Cols[c], r)
		}
	}
	b.TIDs = append(b.TIDs, 0)
	b.Signs = append(b.Signs, src.Signs[r]*op.Signs[m])
	b.n++
}

// SetRowFrom overwrites row slot with row i of src (same column types),
// TID and sign included. Together with AppendFrom and ClearRow it makes
// a batch usable as slot-stable storage: a row keeps its index for as
// long as it lives, which is what lets hash indexes address replica
// rows by slot number.
func (b *Batch) SetRowFrom(slot int, src *Batch, i int) {
	b.check()
	src.check()
	for c := range b.Cols {
		b.Cols[c].setFromCol(slot, b.n, &src.Cols[c], i)
	}
	b.TIDs[slot] = src.TIDs[i]
	b.Signs[slot] = src.Signs[i]
}

// ClearRow frees row slot of a slot-stable batch: the row stays in
// place as a hole with sign 0 and tid 0 (so it can never be mistaken
// for a live row) and drops its string payloads for the collector.
func (b *Batch) ClearRow(slot int) {
	b.check()
	for c := range b.Cols {
		if col := &b.Cols[c]; col.Type == relation.TString {
			col.Str[slot] = ""
		}
	}
	b.TIDs[slot] = 0
	b.Signs[slot] = 0
}

// HashKey hashes the given columns of one row to exactly
// relation.HashValues of the same cells, without materializing Values.
func (b *Batch) HashKey(row int, cols []int) uint64 {
	b.check()
	h := relation.NewKeyHasher()
	for _, ci := range cols {
		c := &b.Cols[ci]
		switch {
		case !c.IsValid(row):
			h.Null()
		case c.Type == relation.TInt:
			h.Int(c.I64[row])
		case c.Type == relation.TFloat:
			h.Float(c.F64[row])
		case c.Type == relation.TString:
			h.Str(c.Str[row])
		case c.Type == relation.TBool:
			h.Bool(c.B[row])
		}
	}
	return h.Sum()
}

// KeyEqual reports whether the given columns of row equal ocols of row
// orow in o, position by position (relation.Value.Equal semantics) — the
// collision check of a hash probe, compared in place.
func (b *Batch) KeyEqual(row int, cols []int, o *Batch, orow int, ocols []int) bool {
	for k, ci := range cols {
		if !colsEqual(&b.Cols[ci], row, &o.Cols[ocols[k]], orow) {
			return false
		}
	}
	return true
}

// Gather compacts the batch in place to exactly the rows whose indices
// appear in sel (ascending).
func (b *Batch) Gather(sel []int32) {
	b.check()
	for c := range b.Cols {
		col := &b.Cols[c]
		switch col.Type {
		case relation.TInt:
			for k, i := range sel {
				col.I64[k] = col.I64[i]
			}
			col.I64 = col.I64[:len(sel)]
		case relation.TFloat:
			for k, i := range sel {
				col.F64[k] = col.F64[i]
			}
			col.F64 = col.F64[:len(sel)]
		case relation.TString:
			for k, i := range sel {
				col.Str[k] = col.Str[i]
			}
			col.Str = col.Str[:len(sel)]
		case relation.TBool:
			for k, i := range sel {
				col.B[k] = col.B[i]
			}
			col.B = col.B[:len(sel)]
		}
		if col.Valid != nil {
			for k, i := range sel {
				valid := col.Valid[i>>6]&(1<<uint(i&63)) != 0
				if valid {
					col.Valid[k>>6] |= 1 << uint(k&63)
				} else {
					col.Valid[k>>6] &^= 1 << uint(k&63)
				}
			}
			col.Valid = col.Valid[:(len(sel)+63)/64]
		}
	}
	for k, i := range sel {
		b.TIDs[k] = b.TIDs[i]
		b.Signs[k] = b.Signs[i]
	}
	b.TIDs = b.TIDs[:len(sel)]
	b.Signs = b.Signs[:len(sel)]
	if b.TS != nil {
		for k, i := range sel {
			b.TS[k] = b.TS[i]
		}
		b.TS = b.TS[:len(sel)]
	}
	b.n = len(sel)
}

// MoveCol moves column i's buffers into column j of dst (same type) and
// hands dst's previous buffers back in exchange, so both batches keep
// recyclable capacity. The source column is left empty whatever its row
// count says: the batch must only be released afterwards.
func (b *Batch) MoveCol(i int, dst *Batch, j int) {
	b.check()
	dst.check()
	b.Cols[i], dst.Cols[j] = dst.Cols[j], b.Cols[i]
}
