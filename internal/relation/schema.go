package relation

import (
	"errors"
	"fmt"
	"strings"
)

// ErrTypeMismatch reports a value that cannot be stored under its
// column's type.
var ErrTypeMismatch = errors.New("relation: type mismatch")

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Conform returns v as a value of the column's type — the one rule for
// "a stored value has its column's type": NULL becomes the column's
// typed NULL, INT and FLOAT convert where nothing is lost, anything else
// is an ErrTypeMismatch.
func (c Column) Conform(v Value) (Value, error) {
	switch {
	case v.Null:
		return TypedNull(c.Type), nil
	case v.Kind == c.Type:
		return v, nil
	case v.Kind == TInt && c.Type == TFloat:
		return Float(v.AsFloat()), nil
	case v.Kind == TFloat && c.Type == TInt:
		f := v.AsFloat()
		if f != float64(int64(f)) {
			return Value{}, fmt.Errorf("%w: column %q: non-integral value %v for INT column", ErrTypeMismatch, c.Name, f)
		}
		return Int(int64(f)), nil
	default:
		return Value{}, fmt.Errorf("%w: column %q: cannot store %s into %s column", ErrTypeMismatch, c.Name, v.Kind, c.Type)
	}
}

// Schema is an ordered list of columns. Schemas are immutable by
// convention: methods return new schemas.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-insensitive).
func NewSchema(cols ...Column) (Schema, error) {
	s := Schema{cols: make([]Column, len(cols)), index: make(map[string]int, len(cols))}
	copy(s.cols, cols)
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.index[key]; dup {
			return Schema{}, fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and static
// schemas known to be valid.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.cols) }

// Conform rewrites vals in place so that every value has its column's
// type (Column.Conform). The write boundary of the store applies it to
// its own copy of a row, so everything behind the boundary — base
// relations, differential rows, the log — fits typed columns.
func (s Schema) Conform(vals []Value) error {
	if len(vals) != len(s.cols) {
		return fmt.Errorf("%w: got %d values, schema has %d columns", ErrArity, len(vals), len(s.cols))
	}
	for i := range s.cols {
		if vals[i].Kind == s.cols[i].Type {
			continue // the common case, typed NULLs included: nothing to copy
		}
		v, err := s.cols[i].Conform(vals[i])
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return nil
}

// Col returns the i-th column.
func (s Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// ColIndex finds a column by name (case-insensitive). It supports both
// bare names ("price") and qualified names ("stocks.price"): a bare lookup
// also matches a single qualified column with that suffix.
func (s Schema) ColIndex(name string) (int, bool) {
	key := strings.ToLower(name)
	if i, ok := s.index[key]; ok {
		return i, true
	}
	// Bare name matching a unique qualified column.
	if !strings.Contains(key, ".") {
		found, idx := 0, -1
		suffix := "." + key
		for i, c := range s.cols {
			if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
				found++
				idx = i
			}
		}
		if found == 1 {
			return idx, true
		}
		return -1, false
	}
	// Qualified name whose bare form exists uniquely.
	if dot := strings.LastIndex(key, "."); dot >= 0 {
		if i, ok := s.index[key[dot+1:]]; ok {
			return i, true
		}
	}
	return -1, false
}

// Equal reports whether two schemas have identical column names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if !strings.EqualFold(s.cols[i].Name, o.cols[i].Name) || s.cols[i].Type != o.cols[i].Type {
			return false
		}
	}
	return true
}

// TypesEqual reports whether two schemas have the same column types in
// order, ignoring names. Union compatibility needs only this.
func (s Schema) TypesEqual(o Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i].Type != o.cols[i].Type {
			return false
		}
	}
	return true
}

// Concat appends another schema, qualifying nothing; callers are expected
// to pre-qualify names when joining relations that share column names.
func (s Schema) Concat(o Schema) (Schema, error) {
	cols := make([]Column, 0, len(s.cols)+len(o.cols))
	cols = append(cols, s.cols...)
	cols = append(cols, o.cols...)
	return NewSchema(cols...)
}

// Project returns the schema consisting of the given column indexes.
func (s Schema) Project(idxs []int) Schema {
	cols := make([]Column, len(idxs))
	for i, ix := range idxs {
		cols[i] = s.cols[ix]
	}
	out, err := NewSchema(cols...)
	if err != nil {
		// Duplicate projection targets get positional suffixes.
		for i := range cols {
			cols[i].Name = fmt.Sprintf("%s_%d", cols[i].Name, i)
		}
		out = MustSchema(cols...)
	}
	return out
}

// Qualify returns a schema with every bare column name prefixed by
// "prefix.". Already-qualified names are left alone.
func (s Schema) Qualify(prefix string) Schema {
	cols := make([]Column, len(s.cols))
	for i, c := range s.cols {
		if strings.Contains(c.Name, ".") {
			cols[i] = c
		} else {
			cols[i] = Column{Name: prefix + "." + c.Name, Type: c.Type}
		}
	}
	return MustSchema(cols...)
}

// String renders the schema as "(a INT, b STRING)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}
