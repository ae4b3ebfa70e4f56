package relation

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// TID is a stable tuple identifier. Base tuples receive tids from the
// storage engine's allocator; derived tuples receive provenance-hashed
// tids so that Diff over query results is well defined (Section 4.1).
type TID uint64

// Tuple is a row with identity.
type Tuple struct {
	TID    TID
	Values []Value
}

// Clone deep-copies the tuple.
func (t Tuple) Clone() Tuple {
	vs := make([]Value, len(t.Values))
	copy(vs, t.Values)
	return Tuple{TID: t.TID, Values: vs}
}

// HashTID derives a tid for a computed tuple from its values. Collisions
// merely merge identical rows, which is harmless under set semantics.
func HashTID(vs []Value) TID { return TID(HashValues(vs)) }

// Errors returned by Relation mutators.
var (
	ErrArity        = errors.New("relation: tuple arity does not match schema")
	ErrDuplicateTID = errors.New("relation: duplicate tid")
	ErrNoSuchTID    = errors.New("relation: no such tid")
	ErrSchema       = errors.New("relation: incompatible schemas")
)

// Relation is a materialized relation: an ordered multiset of tuples with
// unique tids and a tid index. It is not safe for concurrent mutation.
type Relation struct {
	schema Schema
	tuples []Tuple
	byTID  map[TID]int // tid -> position in tuples
}

// New creates an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{schema: schema, byTID: make(map[TID]int)}
}

// NewSized creates an empty relation with room for n tuples.
func NewSized(schema Schema, n int) *Relation {
	return &Relation{schema: schema, tuples: make([]Tuple, 0, n), byTID: make(map[TID]int, n)}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples exposes the backing slice for read-only iteration. Callers must
// not mutate it; use Clone for an owned copy.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// At returns the i-th tuple (in insertion order).
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Lookup returns the tuple with the given tid.
func (r *Relation) Lookup(tid TID) (Tuple, bool) {
	i, ok := r.byTID[tid]
	if !ok {
		return Tuple{}, false
	}
	return r.tuples[i], true
}

// Has reports whether the tid is present.
func (r *Relation) Has(tid TID) bool {
	_, ok := r.byTID[tid]
	return ok
}

// Insert adds a tuple. The tid must be fresh and the arity must match.
func (r *Relation) Insert(t Tuple) error {
	if len(t.Values) != r.schema.Len() {
		return fmt.Errorf("%w: got %d values, schema has %d columns", ErrArity, len(t.Values), r.schema.Len())
	}
	if _, dup := r.byTID[t.TID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateTID, t.TID)
	}
	r.byTID[t.TID] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	return nil
}

// Upsert inserts the tuple, replacing any existing tuple with the same tid.
func (r *Relation) Upsert(t Tuple) error {
	if len(t.Values) != r.schema.Len() {
		return fmt.Errorf("%w: got %d values, schema has %d columns", ErrArity, len(t.Values), r.schema.Len())
	}
	if i, ok := r.byTID[t.TID]; ok {
		r.tuples[i] = t
		return nil
	}
	r.byTID[t.TID] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	return nil
}

// Update replaces the values of an existing tuple.
func (r *Relation) Update(tid TID, values []Value) error {
	if len(values) != r.schema.Len() {
		return fmt.Errorf("%w: got %d values, schema has %d columns", ErrArity, len(values), r.schema.Len())
	}
	i, ok := r.byTID[tid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTID, tid)
	}
	r.tuples[i].Values = values
	return nil
}

// Delete removes the tuple with the given tid (swap-remove; order is not
// preserved after a delete).
func (r *Relation) Delete(tid TID) error {
	i, ok := r.byTID[tid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTID, tid)
	}
	last := len(r.tuples) - 1
	if i != last {
		r.tuples[i] = r.tuples[last]
		r.byTID[r.tuples[i].TID] = i
	}
	r.tuples = r.tuples[:last]
	delete(r.byTID, tid)
	return nil
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		schema: r.schema,
		tuples: make([]Tuple, len(r.tuples)),
		byTID:  make(map[TID]int, len(r.byTID)),
	}
	for i, t := range r.tuples {
		out.tuples[i] = t.Clone()
		out.byTID[t.TID] = i
	}
	return out
}

// CloneShared copies the relation's tuple list and tid index but shares
// each tuple's value slice with r: a copy that stays intact while r has
// tuples inserted, deleted or replaced, for holders that never write a
// value slice in place.
func (r *Relation) CloneShared() *Relation {
	return &Relation{schema: r.schema, tuples: slices.Clone(r.tuples), byTID: maps.Clone(r.byTID)}
}

// Union returns r ∪ o by tid (set semantics on tid). Schemas must be
// type-compatible.
func (r *Relation) Union(o *Relation) (*Relation, error) {
	if !r.schema.TypesEqual(o.schema) {
		return nil, fmt.Errorf("%w: %s vs %s", ErrSchema, r.schema, o.schema)
	}
	out := r.Clone()
	for _, t := range o.tuples {
		if !out.Has(t.TID) {
			if err := out.Insert(t.Clone()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Minus returns r − o by tid.
func (r *Relation) Minus(o *Relation) (*Relation, error) {
	if !r.schema.TypesEqual(o.schema) {
		return nil, fmt.Errorf("%w: %s vs %s", ErrSchema, r.schema, o.schema)
	}
	out := New(r.schema)
	for _, t := range r.tuples {
		if !o.Has(t.TID) {
			if err := out.Insert(t.Clone()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Intersect returns r ∩ o by tid.
func (r *Relation) Intersect(o *Relation) (*Relation, error) {
	if !r.schema.TypesEqual(o.schema) {
		return nil, fmt.Errorf("%w: %s vs %s", ErrSchema, r.schema, o.schema)
	}
	out := New(r.schema)
	for _, t := range r.tuples {
		if o.Has(t.TID) {
			if err := out.Insert(t.Clone()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// EqualContents reports whether two relations hold the same tuples,
// compared by value (ignoring tids and order). It implements bag equality
// via sorted comparison.
func (r *Relation) EqualContents(o *Relation) bool {
	if r.Len() != o.Len() || !r.schema.TypesEqual(o.schema) {
		return false
	}
	a := sortedKeys(r)
	b := sortedKeys(o)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys(r *Relation) []uint64 {
	keys := make([]uint64, r.Len())
	for i, t := range r.tuples {
		keys[i] = HashValues(t.Values)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// EqualByTID reports whether two relations contain exactly the same tids
// with equal values.
func (r *Relation) EqualByTID(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	for _, t := range r.tuples {
		ot, ok := o.Lookup(t.TID)
		if !ok || len(ot.Values) != len(t.Values) {
			return false
		}
		for i := range t.Values {
			if !t.Values[i].Equal(ot.Values[i]) {
				return false
			}
		}
	}
	return true
}

// SortByTID orders tuples by tid in place; useful for deterministic output.
func (r *Relation) SortByTID() {
	sort.Slice(r.tuples, func(i, j int) bool { return r.tuples[i].TID < r.tuples[j].TID })
	for i, t := range r.tuples {
		r.byTID[t.TID] = i
	}
}

// SortBy orders tuples by the given column indexes in place.
func (r *Relation) SortBy(cols ...int) {
	sort.SliceStable(r.tuples, func(i, j int) bool {
		for _, c := range cols {
			if cmp := r.tuples[i].Values[c].Compare(r.tuples[j].Values[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return r.tuples[i].TID < r.tuples[j].TID
	})
	for i, t := range r.tuples {
		r.byTID[t.TID] = i
	}
}

// String renders a small relation as an aligned text table (for examples
// and debugging; not intended for big relations).
func (r *Relation) String() string {
	var b strings.Builder
	widths := make([]int, r.schema.Len())
	for i := 0; i < r.schema.Len(); i++ {
		widths[i] = len(r.schema.Col(i).Name)
	}
	cells := make([][]string, len(r.tuples))
	for ti, t := range r.tuples {
		row := make([]string, len(t.Values))
		for i, v := range t.Values {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells[ti] = row
	}
	for i := 0; i < r.schema.Len(); i++ {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], r.schema.Col(i).Name)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
