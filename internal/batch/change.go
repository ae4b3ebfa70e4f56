package batch

import (
	"slices"
	"sync"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Change is a refresh's net change held columnar: rows of a source batch
// in net order — an insertion or a deletion one row, a modification its
// adjacent -old/+new pair, each tid once — with output column j read
// from source column cols[j], stamped with the execution's timestamp.
// It embeds its differential-relation form, a deferred delta.Delta whose
// rows are the change's (Rows, rendered on the first read), so a change
// that only maintains a result table (Table.ApplyChange) and counts its
// rows renders nothing.
//
// The source batch is read, never written, for as long as the change
// lives, so a change may only be made over a batch nobody writes or
// recycles: the round's shared window image, not a pooled batch.
type Change struct {
	delta.Delta
	src           *Batch
	rows          []int32
	cols          []int
	ts            vclock.Timestamp
	ins, del, mod int
	renders       *obs.Counter // counts the render; may be nil

	once     sync.Once
	rendered []delta.Row
	// inl holds the row indices of a change of up to 32 rows in the
	// change's own allocation: BenchmarkRefreshRound/round, 64 selection
	// changes, makes 143 allocations with none inline, 96 with 16, 80
	// with 32, 79 with 64.
	inl [32]int32
}

// Init makes the zero c the change of rows rows of src (see Change),
// over schema, the change's output schema. c copies rows, adopts cols
// and keeps src; renders, if not nil, counts the change's render.
func (c *Change) Init(schema relation.Schema, src *Batch, rows []int32, cols []int, ts vclock.Timestamp, renders *obs.Counter) {
	if len(rows) <= len(c.inl) {
		rows = append(c.inl[:0], rows...)
	} else {
		rows = slices.Clone(rows)
	}
	c.src, c.rows, c.cols, c.ts, c.renders = src, rows, cols, ts, renders
	for k := 0; k < len(rows); k++ {
		switch {
		case src.Signs[rows[k]] > 0:
			c.ins++
		case pairedAt(src, rows, k):
			c.mod++
			k++
		default:
			c.del++
		}
	}
	c.Delta.Defer(schema, c)
}

// pairedAt reports that rows[k] is the -old half of a modification
// whose +new half, the same tid, follows it.
func pairedAt(src *Batch, rows []int32, k int) bool {
	return src.Signs[rows[k]] < 0 && k+1 < len(rows) &&
		src.Signs[rows[k+1]] > 0 && src.TIDs[rows[k+1]] == src.TIDs[rows[k]]
}

// Len returns the change's row count without rendering its rows.
func (c *Change) Len() int { return c.ins + c.del + c.mod }

// Counts returns the change's insert, delete and modify rows without
// rendering them.
func (c *Change) Counts() (ins, del, mod int) { return c.ins, c.del, c.mod }

// Rows renders the change's rows (NetRows) on the first call, once even
// under concurrent callers, and returns that rendering on every call.
func (c *Change) Rows() []delta.Row {
	c.once.Do(func() {
		c.rendered = NetRows(c.src, c.rows, c.cols, c.ts)
		c.renders.Inc()
	})
	return c.rendered
}

// Each calls fn on each row of the change in order: its tid and the
// source rows of its old and new halves, -1 for a half it has not (an
// insertion has no old half, a deletion no new one). Read a half's
// values with ReadRow.
func (c *Change) Each(fn func(tid relation.TID, oldAt, newAt int32)) {
	src, rows := c.src, c.rows
	for k := 0; k < len(rows); k++ {
		i := rows[k]
		switch {
		case src.Signs[i] > 0:
			fn(src.TIDs[i], -1, i)
		case pairedAt(src, rows, k):
			k++
			fn(src.TIDs[i], i, rows[k])
		default:
			fn(src.TIDs[i], i, -1)
		}
	}
}

// ReadRow reads the output columns of source row i (a half Each
// reported) into dst, which has the change's width.
func (c *Change) ReadRow(i int32, dst []relation.Value) {
	for j, ci := range c.cols {
		dst[j] = c.src.Value(int(i), ci)
	}
}

// NetRows renders rows rows of src in net order (see Change), output
// column j from src column cols[j], as differential rows stamped ts: a
// lone +row an insertion, a lone -row a deletion, an adjacent -old/+new
// pair of one tid a modification. The rows' values share one flat
// backing allocated for the call, so the rows reference nothing of src.
// No row renders nothing and returns nil.
func NetRows(src *Batch, rows []int32, cols []int, ts vclock.Timestamp) []delta.Row {
	if len(rows) == 0 {
		return nil
	}
	nets := len(rows)
	for k := range rows {
		if pairedAt(src, rows, k) {
			nets--
		}
	}
	width := len(cols)
	flat := make([]relation.Value, len(rows)*width)
	render := func(i int32) []relation.Value {
		vals := flat[:width:width]
		flat = flat[width:]
		for c, ci := range cols {
			vals[c] = src.Value(int(i), ci)
		}
		return vals
	}
	out := make([]delta.Row, 0, nets)
	for k := 0; k < len(rows); k++ {
		i := rows[k]
		row := delta.Row{TID: src.TIDs[i], TS: ts}
		switch {
		case src.Signs[i] > 0:
			row.New = render(i)
		case pairedAt(src, rows, k):
			row.Old = render(i)
			k++
			row.New = render(rows[k])
		default:
			row.Old = render(i)
		}
		out = append(out, row)
	}
	return out
}

// typedFor reports that every output column of c has the type of t's
// column at its position, so c's values write into t cell by cell.
func (c *Change) typedFor(t *Table) bool {
	if len(c.cols) != len(t.rows.Cols) {
		return false
	}
	for j, ci := range c.cols {
		if c.src.Cols[ci].Type != t.rows.Cols[j].Type {
			return false
		}
	}
	return true
}

// FitsChange is Fits for a columnar change: when every column of c has
// the table's type it fits, decided in O(width) without rendering a
// row; otherwise it is Fits over c's rendered rows.
func (t *Table) FitsChange(c *Change) error {
	if c.typedFor(t) {
		return nil
	}
	return t.Fits(&c.Delta)
}

// ApplyChange is Apply for a columnar change that fits the table
// (FitsChange): each deletion frees its tid's slot, each insertion and
// modification takes its tid's slot (a modification keeps it), and then
// the rows are written typed from c's source columns, column at a time.
// A table left with more free slots than live rows compacts. Nothing of
// c is rendered or retained. A change whose columns need conversion to
// the table's types is applied through its rendered rows (Apply).
func (t *Table) ApplyChange(c *Change) {
	if !c.typedFor(t) {
		t.Apply(&c.Delta)
		return
	}
	src, rows := c.src, c.rows
	moves := t.moves[:0]
	for k := 0; k < len(rows); k++ {
		i := rows[k]
		tid := src.TIDs[i]
		if src.Signs[i] < 0 {
			if !pairedAt(src, rows, k) {
				if s := t.Slot(tid); s >= 0 {
					t.freeSlot(s)
				}
				continue
			}
			k++
			i = rows[k]
		}
		s := t.Slot(tid)
		if s < 0 {
			s = t.takeSlot(tid)
		}
		t.rows.Signs[s] = 1
		moves = append(moves, move{to: s, from: i})
	}
	for j, ci := range c.cols {
		t.rows.Cols[j].scatterFrom(t.rows.n, &src.Cols[ci], moves)
	}
	t.moves = moves[:0]
	t.compact()
}

// move is one row write of ApplyChange: source row from into slot to.
type move struct{ to, from int32 }

// scatterFrom writes row m.from of src into row m.to of the column
// (which holds rows rows) for every move, src having the column's type.
func (c *Col) scatterFrom(rows int, src *Col, moves []move) {
	switch c.Type {
	case relation.TInt:
		for _, m := range moves {
			c.I64[m.to] = src.I64[m.from]
		}
	case relation.TFloat:
		for _, m := range moves {
			c.F64[m.to] = src.F64[m.from]
		}
	case relation.TString:
		for _, m := range moves {
			c.Str[m.to] = src.Str[m.from]
		}
	case relation.TBool:
		for _, m := range moves {
			c.B[m.to] = src.B[m.from]
		}
	}
	if c.Valid == nil && src.Valid == nil {
		return
	}
	for _, m := range moves {
		valid := src.IsValid(int(m.from))
		if c.Valid == nil {
			if valid {
				continue
			}
			c.materializeValidity(rows)
		}
		if n := int(m.to); valid {
			c.Valid[n>>6] |= 1 << uint(n&63)
		} else {
			c.Valid[n>>6] &^= 1 << uint(n&63)
		}
	}
}
