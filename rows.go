package continual

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// Rows is a materialized query result. Values use Go native types:
// int64, float64, string, bool, or nil for SQL NULL.
type Rows struct {
	Columns []string
	Data    [][]any
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// Col returns the index of a named column, or -1.
func (r *Rows) Col(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	// Bare-name match against qualified columns.
	for i, c := range r.Columns {
		if suffixAfterDot(c) == name {
			return i
		}
	}
	return -1
}

func suffixAfterDot(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

// String renders the rows as an aligned table.
func (r *Rows) String() string {
	rel := relationOfRows(r)
	if rel == nil {
		return "(invalid rows)"
	}
	return rel.String()
}

// toAny converts an engine value to a Go native value.
func toAny(v relation.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind {
	case relation.TInt:
		return v.AsInt()
	case relation.TFloat:
		return v.AsFloat()
	case relation.TString:
		return v.AsString()
	case relation.TBool:
		return v.AsBool()
	default:
		return nil
	}
}

// toValue converts a Go native value to an engine value.
func toValue(v any) (relation.Value, error) {
	switch x := v.(type) {
	case nil:
		return relation.NullValue(), nil
	case int:
		return relation.Int(int64(x)), nil
	case int64:
		return relation.Int(x), nil
	case float64:
		return relation.Float(x), nil
	case string:
		return relation.Str(x), nil
	case bool:
		return relation.Bool(x), nil
	default:
		return relation.Value{}, fmt.Errorf("continual: unsupported value type %T", v)
	}
}

// fromRelation converts an engine relation to public rows.
func fromRelation(rel *relation.Relation) *Rows {
	out := &Rows{Columns: make([]string, rel.Schema().Len())}
	for i := 0; i < rel.Schema().Len(); i++ {
		out.Columns[i] = rel.Schema().Col(i).Name
	}
	out.Data = make([][]any, 0, rel.Len())
	for _, t := range rel.Tuples() {
		row := make([]any, len(t.Values))
		for i, v := range t.Values {
			row[i] = toAny(v)
		}
		out.Data = append(out.Data, row)
	}
	return out
}

// relationOfRows rebuilds an engine relation for rendering only.
func relationOfRows(r *Rows) *relation.Relation {
	cols := make([]relation.Column, len(r.Columns))
	for i, name := range r.Columns {
		cols[i] = relation.Column{Name: name, Type: relation.TString}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil
	}
	rel := relation.New(schema)
	for i, row := range r.Data {
		vals := make([]relation.Value, len(row))
		for j, v := range row {
			vals[j] = relation.Str(fmt.Sprint(v))
			if v == nil {
				vals[j] = relation.NullValue()
			}
		}
		_ = rel.Insert(relation.Tuple{TID: relation.TID(i + 1), Values: vals})
	}
	return rel
}

// Modification pairs the old and new values of an in-place change.
type Modification struct {
	Old []any
	New []any
}

// Change is one notification of a continual query: the Seq'th element of
// its result sequence.
type Change struct {
	CQ      string
	Seq     int
	Columns []string

	// Inserted and Deleted are the tuples that entered/left the result;
	// Modified pairs in-place changes. Complete holds the full result in
	// Complete mode.
	Inserted [][]any
	Deleted  [][]any
	Modified []Modification
	Complete [][]any

	// Terminated marks the final notification of a stopped query.
	Terminated bool

	// Dropped is the number of changes this subscriber lost since the
	// one it last received — full Updates buffer under a backpressure
	// policy, or the catch-up gap after Resume. Zero means the change
	// sequence is gap-free; consumers applying differentials should
	// re-fetch Result when Dropped > 0.
	Dropped int
}

func rowsData(rel *relation.Relation) [][]any {
	if rel == nil {
		return nil
	}
	out := make([][]any, 0, rel.Len())
	for _, t := range rel.Tuples() {
		row := make([]any, len(t.Values))
		for i, v := range t.Values {
			row[i] = toAny(v)
		}
		out = append(out, row)
	}
	return out
}

func anyValues(vs []relation.Value) []any {
	if vs == nil {
		return nil
	}
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = toAny(v)
	}
	return out
}

func modifications(rows []delta.Row) []Modification {
	out := make([]Modification, 0, len(rows))
	for _, r := range rows {
		out = append(out, Modification{Old: anyValues(r.Old), New: anyValues(r.New)})
	}
	return out
}

// queryRelation plans, optimizes and executes a SELECT internally. The
// execution runs under the store's read lock (Store.View): the executor
// scans live relations, which a concurrent commit would be mutating.
func (db *DB) queryRelation(query string) (*relation.Relation, error) {
	plan, err := algebra.PlanSQL(query, db.store.Live())
	if err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan)
	var rel *relation.Relation
	err = db.store.View(func(v storage.LiveView) (err error) {
		rel, err = algebra.NewExecutor(v).Execute(plan)
		return err
	})
	return rel, err
}
