// Package delta implements differential relations as defined in Section
// 4.1 of the paper: timestamped logs of insertions, deletions and
// modifications against a base or derived relation.
//
// A differential relation ΔR over a relation R with attributes A1..An has
// rows of the form (old A1..An | new A1..An | ts). For an insertion the
// old half is null; for a deletion the new half is null; for a
// modification both halves are populated. Each row is keyed by the tid of
// the affected tuple, and the ts field is drawn from a monotonically
// increasing clock at append time.
//
// Following Example 1 of the paper, the derived views are:
//
//   - Insertions(Δ): the new halves of insertion AND modification rows
//     ("objects that are newly inserted into the base relation R" — after
//     a modification the new version is newly present);
//   - Deletions(Δ): the old halves of deletion AND modification rows
//     ("objects that are recently deleted" — the old version is gone).
//
// Unlike the hypothetical relations of eager view maintenance, a
// differential relation accumulates the changes of many transactions and
// is garbage-collected only past the "active delta zone" of every
// continual query that still needs it (Section 5.4).
package delta

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Kind classifies a differential row.
type Kind int

// Differential row kinds.
const (
	Insert Kind = iota + 1
	Delete
	Modify
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Modify:
		return "modify"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Row is one entry of a differential relation. Old is nil for insertions;
// New is nil for deletions; both are set for modifications.
//
// Once a row is committed to a store's differential relation its value
// slices are never written again: a modification hands the base
// relation a fresh slice, and garbage collection moves row headers, not
// values. Windows, compacted windows, columnar images and the base
// relation may therefore share a committed row's Old and New, and no
// reader may write through them.
type Row struct {
	TID relation.TID
	Old []relation.Value
	New []relation.Value
	TS  vclock.Timestamp
}

// Kind derives the row kind from which halves are populated.
func (r Row) Kind() Kind {
	switch {
	case r.Old == nil:
		return Insert
	case r.New == nil:
		return Delete
	default:
		return Modify
	}
}

// Errors returned by Delta operations.
var (
	ErrBadRow  = errors.New("delta: row has neither old nor new values")
	ErrArity   = errors.New("delta: value arity does not match schema")
	ErrReplay  = errors.New("delta: cannot apply row to relation")
	ErrOrder   = errors.New("delta: rows must be appended in timestamp order")
	ErrSchemas = errors.New("delta: incompatible schemas")
)

// Delta is a differential relation over a base schema. Rows are kept in
// append (= timestamp) order. Delta is not safe for concurrent mutation;
// the storage engine serializes appends.
type Delta struct {
	schema relation.Schema
	rows   []Row
}

// New creates an empty differential relation for the given base schema.
func New(schema relation.Schema) *Delta {
	return &Delta{schema: schema}
}

// FromRows adopts rows as a differential relation over schema, without
// copying them: the delta owns the slice from then on. It is how a
// refresh hands out its netted change (dra.Result.Delta), each tid at
// most once, rendered once.
func FromRows(schema relation.Schema, rows []Row) *Delta {
	return &Delta{schema: schema, rows: rows}
}

// Schema returns the base schema the delta refers to.
func (d *Delta) Schema() relation.Schema { return d.schema }

// Len returns the number of rows.
func (d *Delta) Len() int { return len(d.rows) }

// Rows exposes the backing slice for read-only iteration.
func (d *Delta) Rows() []Row { return d.rows }

// Append adds a row. Rows must arrive in non-decreasing timestamp order
// and match the schema arity.
func (d *Delta) Append(r Row) error {
	if r.Old == nil && r.New == nil {
		return ErrBadRow
	}
	if r.Old != nil && len(r.Old) != d.schema.Len() {
		return fmt.Errorf("%w: old half has %d values", ErrArity, len(r.Old))
	}
	if r.New != nil && len(r.New) != d.schema.Len() {
		return fmt.Errorf("%w: new half has %d values", ErrArity, len(r.New))
	}
	if n := len(d.rows); n > 0 && r.TS < d.rows[n-1].TS {
		return fmt.Errorf("%w: ts %d after %d", ErrOrder, r.TS, d.rows[n-1].TS)
	}
	d.rows = append(d.rows, r)
	return nil
}

// AppendInsert records an insertion.
func (d *Delta) AppendInsert(tid relation.TID, values []relation.Value, ts vclock.Timestamp) error {
	return d.Append(Row{TID: tid, New: values, TS: ts})
}

// AppendDelete records a deletion.
func (d *Delta) AppendDelete(tid relation.TID, old []relation.Value, ts vclock.Timestamp) error {
	return d.Append(Row{TID: tid, Old: old, TS: ts})
}

// AppendModify records an in-place modification.
func (d *Delta) AppendModify(tid relation.TID, old, now []relation.Value, ts vclock.Timestamp) error {
	return d.Append(Row{TID: tid, Old: old, New: now, TS: ts})
}

// After returns the sub-delta of rows with TS strictly greater than t —
// the σ_{ts>t_i}(ΔR) window that the DRA applies before every term
// evaluation (Section 4.2). The returned Delta shares row storage with d;
// callers must treat it as read-only.
func (d *Delta) After(t vclock.Timestamp) *Delta {
	return &Delta{schema: d.schema, rows: d.rows[d.search(t):]}
}

// Window returns rows with lo < TS <= hi, sharing row storage with d
// like After.
func (d *Delta) Window(lo, hi vclock.Timestamp) *Delta {
	return &Delta{schema: d.schema, rows: d.WindowRows(lo, hi)}
}

// WindowRows returns the rows with lo < TS <= hi: a subslice of d's row
// storage, found by binary search, for read-only use before d changes.
func (d *Delta) WindowRows(lo, hi vclock.Timestamp) []Row {
	i, j := d.search(lo), d.search(hi)
	if j < i {
		return nil // hi < lo: the window is empty
	}
	return d.rows[i:j]
}

// search returns the index of the first row with TS > t (rows are in ts
// order).
func (d *Delta) search(t vclock.Timestamp) int {
	return sort.Search(len(d.rows), func(i int) bool { return d.rows[i].TS > t })
}

// MaxTS returns the timestamp of the newest row, or 0 if empty.
func (d *Delta) MaxTS() vclock.Timestamp {
	if len(d.rows) == 0 {
		return 0
	}
	return d.rows[len(d.rows)-1].TS
}

// MinTS returns the timestamp of the oldest row, or 0 if empty.
func (d *Delta) MinTS() vclock.Timestamp {
	if len(d.rows) == 0 {
		return 0
	}
	return d.rows[0].TS
}

// Insertions materializes the insertions view: the new halves of insert
// and modify rows, exactly as in Example 1 of the paper (where the
// modified DEC tuple appears in insertions(ΔStocks) with its new values).
func (d *Delta) Insertions() *relation.Relation {
	out := relation.New(d.schema)
	// In row order, so the last row of a tid decides: a later new half
	// supersedes an earlier one, a later delete takes the tid out again,
	// and a re-insert after a delete puts it back.
	for _, r := range d.rows {
		if r.New != nil {
			_ = out.Upsert(relation.Tuple{TID: r.TID, Values: r.New})
		} else if out.Has(r.TID) {
			_ = out.Delete(r.TID)
		}
	}
	return out
}

// Deletions materializes the deletions view: the old halves of delete and
// modify rows.
func (d *Delta) Deletions() *relation.Relation {
	out := relation.New(d.schema)
	for _, r := range d.rows {
		if r.Old == nil {
			continue
		}
		if !out.Has(r.TID) {
			_ = out.Insert(relation.Tuple{TID: r.TID, Values: r.Old})
		}
	}
	// A tid deleted (or modified) and then re-inserted nets to its first
	// old value — keep it; but a tid whose first appearance in the window
	// is an insert did not exist before the window, so its later delete
	// must not appear in the deletions view.
	first := make(map[relation.TID]Kind, len(d.rows))
	for _, r := range d.rows {
		if _, seen := first[r.TID]; !seen {
			first[r.TID] = r.Kind()
		}
	}
	for tid, k := range first {
		if k == Insert && out.Has(tid) {
			_ = out.Delete(tid)
		}
	}
	return out
}

// Modifications materializes pure modification rows as a relation over
// the doubled schema (old columns then new columns), for display and
// notification purposes.
func (d *Delta) Modifications() []Row {
	var out []Row
	for _, r := range d.rows {
		if r.Kind() == Modify {
			out = append(out, r)
		}
	}
	return out
}

// Counts returns the number of insert, delete and modify rows.
func (d *Delta) Counts() (ins, del, mod int) {
	for _, r := range d.rows {
		switch r.Kind() {
		case Insert:
			ins++
		case Delete:
			del++
		default:
			mod++
		}
	}
	return ins, del, mod
}

// Apply replays the delta onto a relation in timestamp order, producing
// the post-state. It mutates rel.
func (d *Delta) Apply(rel *relation.Relation) error {
	if !d.schema.TypesEqual(rel.Schema()) {
		return fmt.Errorf("%w: delta %s, relation %s", ErrSchemas, d.schema, rel.Schema())
	}
	for _, r := range d.rows {
		switch r.Kind() {
		case Insert:
			if err := rel.Insert(relation.Tuple{TID: r.TID, Values: cloneValues(r.New)}); err != nil {
				return fmt.Errorf("%w: insert tid %d: %v", ErrReplay, r.TID, err)
			}
		case Delete:
			if err := rel.Delete(r.TID); err != nil {
				return fmt.Errorf("%w: delete tid %d: %v", ErrReplay, r.TID, err)
			}
		case Modify:
			if err := rel.Update(r.TID, cloneValues(r.New)); err != nil {
				return fmt.Errorf("%w: modify tid %d: %v", ErrReplay, r.TID, err)
			}
		}
	}
	return nil
}

// Unapply rolls the delta back off a relation (newest row first),
// producing the pre-state. DRA uses this to reconstruct "the contents of
// each base relation after the last execution of the CQ" (input (ii) of
// Algorithm 1) from the current contents plus the delta window.
func (d *Delta) Unapply(rel *relation.Relation) error {
	if !d.schema.TypesEqual(rel.Schema()) {
		return fmt.Errorf("%w: delta %s, relation %s", ErrSchemas, d.schema, rel.Schema())
	}
	for i := len(d.rows) - 1; i >= 0; i-- {
		r := d.rows[i]
		switch r.Kind() {
		case Insert:
			if err := rel.Delete(r.TID); err != nil {
				return fmt.Errorf("%w: unapply insert tid %d: %v", ErrReplay, r.TID, err)
			}
		case Delete:
			if err := rel.Insert(relation.Tuple{TID: r.TID, Values: cloneValues(r.Old)}); err != nil {
				return fmt.Errorf("%w: unapply delete tid %d: %v", ErrReplay, r.TID, err)
			}
		case Modify:
			if err := rel.Update(r.TID, cloneValues(r.Old)); err != nil {
				return fmt.Errorf("%w: unapply modify tid %d: %v", ErrReplay, r.TID, err)
			}
		}
	}
	return nil
}

// Compact folds the delta to its net effect per tid (see Fold). Its rows
// share their value slices with d's. Returns a new Delta.
func (d *Delta) Compact() *Delta {
	out := New(d.schema)
	Fold(d.rows, func(r Row) { out.rows = append(out.rows, r) })
	return out
}

// Fold folds rows — a window of a differential relation, in timestamp
// order — to their net effect per tid and passes each net row to emit:
// insert-then-modify becomes an insert of the final value,
// insert-then-delete vanishes, modify-then-modify collapses, a
// modification back to the original values vanishes, and
// delete-then-insert of the same tid becomes a modify. A net row keeps
// the tid's first old half and last new half, with the timestamp of its
// last contributing row, which preserves window semantics for any t
// before the compaction horizon. Net rows are emitted in order of that
// timestamp, ties in order of each tid's first appearance. Their value
// slices are the input rows' own.
//
// Fold is the one compaction: Compact collects its rows, and the store
// folds a window straight into a columnar image with it. Its scratch is
// pooled, so a steady stream of windows folds without allocating.
func Fold(rows []Row, emit func(Row)) {
	f := folders.Get().(*folder)
	for _, r := range rows {
		if i, ok := f.slot[r.TID]; ok {
			// The original pre-window value stays; the latest wins.
			f.net[i].New, f.net[i].TS = r.New, r.TS
			continue
		}
		f.slot[r.TID] = int32(len(f.net))
		f.net = append(f.net, r)
	}
	// A tid's net row moved to its last timestamp, which may put it after
	// rows of other tids; a stable sort keeps ties in first appearance.
	if !slices.IsSortedFunc(f.net, byTS) {
		slices.SortStableFunc(f.net, byTS)
	}
	for _, r := range f.net {
		if r.Old == nil && r.New == nil {
			continue // insert followed by delete: net nothing
		}
		if r.Old != nil && r.New != nil && valuesEqual(r.Old, r.New) {
			continue // modified back to the original value: net nothing
		}
		emit(r)
	}
	f.reset()
}

// folder is Fold's scratch: a slot per tid, indexed by the map, holding
// the tid's net row.
type folder struct {
	slot map[relation.TID]int32
	net  []Row
}

// maxPooledFold bounds the scratch Fold keeps: clearing a map costs its
// capacity, so a folder grown by one huge window is left to the
// collector rather than taxing every small window after it.
const maxPooledFold = 1 << 14

var folders = sync.Pool{New: func() any {
	return &folder{slot: make(map[relation.TID]int32)}
}}

func (f *folder) reset() {
	if len(f.net) > maxPooledFold {
		return
	}
	clear(f.slot)
	clear(f.net) // drop the value references
	f.net = f.net[:0]
	folders.Put(f)
}

func byTS(a, b Row) int { return cmp.Compare(a.TS, b.TS) }

// TruncateBefore drops all rows with TS <= t. This is the garbage
// collection primitive of Section 5.4: t is the lower boundary of the
// system active delta zone (the oldest last-execution timestamp over all
// registered CQs).
func (d *Delta) TruncateBefore(t vclock.Timestamp) int {
	lo := 0
	for lo < len(d.rows) && d.rows[lo].TS <= t {
		lo++
	}
	if lo == 0 {
		return 0
	}
	old := len(d.rows)
	n := copy(d.rows, d.rows[lo:])
	clear(d.rows[n:old]) // a collected row must not stay reachable
	d.rows = d.rows[:n]
	return lo
}

// Detach returns a copy of the delta's row headers that shares their
// value slices (see Row): it stays intact when d is truncated or
// appended to, and costs one allocation, not one per value.
func (d *Delta) Detach() *Delta {
	return &Delta{schema: d.schema, rows: slices.Clone(d.rows)}
}

// Clone deep-copies the delta.
func (d *Delta) Clone() *Delta {
	out := New(d.schema)
	out.rows = make([]Row, len(d.rows))
	for i, r := range d.rows {
		out.rows[i] = Row{TID: r.TID, TS: r.TS, Old: cloneValues(r.Old), New: cloneValues(r.New)}
	}
	return out
}

// Diff computes the differential relation that transforms relation a into
// relation b, comparing tuples by tid. All rows get timestamp ts. It is
// the paper's Diff operator (Section 4.2), the reference against which
// differential evaluation is proven equivalent.
func Diff(a, b *relation.Relation, ts vclock.Timestamp) (*Delta, error) {
	if !a.Schema().TypesEqual(b.Schema()) {
		return nil, fmt.Errorf("%w: %s vs %s", ErrSchemas, a.Schema(), b.Schema())
	}
	out := New(a.Schema())
	for _, t := range a.Tuples() {
		nt, ok := b.Lookup(t.TID)
		switch {
		case !ok:
			out.rows = append(out.rows, Row{TID: t.TID, Old: cloneValues(t.Values), TS: ts})
		case !valuesEqual(t.Values, nt.Values):
			out.rows = append(out.rows, Row{TID: t.TID, Old: cloneValues(t.Values), New: cloneValues(nt.Values), TS: ts})
		}
	}
	for _, t := range b.Tuples() {
		if !a.Has(t.TID) {
			out.rows = append(out.rows, Row{TID: t.TID, New: cloneValues(t.Values), TS: ts})
		}
	}
	sortRowsByTID(out.rows)
	return out, nil
}

// String renders the delta in the three-part layout of Example 1.
func (d *Delta) String() string {
	ins := d.Insertions()
	del := d.Deletions()
	return fmt.Sprintf("Δ%s  rows=%d\ninsertions:\n%s\ndeletions:\n%s",
		d.schema, len(d.rows), ins, del)
}

func cloneValues(vs []relation.Value) []relation.Value {
	if vs == nil {
		return nil
	}
	out := make([]relation.Value, len(vs))
	copy(out, vs)
	return out
}

func valuesEqual(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sortRowsByTID(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].TID < rows[j].TID })
}
