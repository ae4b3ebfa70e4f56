package batch

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
)

// changeOf lays d out as a refresh's columnar change: an image with each
// row's -old/+new halves adjacent (values conformed, as the store keeps
// them), the change being every image row with output column j read from
// image column cols[j].
func changeOf(t *testing.T, d *delta.Delta, cols []int, schema relation.Schema) *Change {
	t.Helper()
	img := New(d.Schema(), 2*d.Len())
	for _, r := range d.Rows() {
		r.Old, r.New = conformedRow(t, d.Schema(), r.Old), conformedRow(t, d.Schema(), r.New)
		if !img.AppendChange(r) {
			t.Fatal("a conformed row has no columnar form")
		}
	}
	rows := make([]int32, img.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	c := new(Change)
	c.Init(schema, img, rows, cols, d.MaxTS(), nil)
	return c
}

func conformedRow(t *testing.T, schema relation.Schema, vals []relation.Value) []relation.Value {
	t.Helper()
	if vals == nil {
		return nil
	}
	out := append([]relation.Value(nil), vals...)
	if err := schema.Conform(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestApplyChangeMatchesApply: over random netted changes — through
// modifications, deletes of absent tids, upserts, reused tids, NULLs and
// a compaction — a result table maintained from each change's columnar
// form (FitsChange, ApplyChange: typed writes from the image's columns)
// holds what delta.ApplySigned maintains from its signed form, tid by
// tid; the change counts and renders (Counts, Len, Rows, Each) the
// netted delta it was laid out from; and a change read through a
// reversed column map maintains the table its own rendering does.
func TestApplyChangeMatchesApply(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		schema := tableSchema(rng)
		n := schema.Len()
		rev := make([]int, n)
		revCols := make([]relation.Column, n)
		for j := range rev {
			rev[j] = n - 1 - j
			revCols[j] = schema.Col(n - 1 - j)
		}
		revSchema := relation.MustSchema(revCols...)
		ref := relation.New(schema)
		tab, revTab, revRows := NewTable(schema, 0), NewTable(revSchema, 0), NewTable(revSchema, 0)
		history := map[relation.TID][]relation.Value{}
		next := relation.TID(1)
		for step := 0; step < 40; step++ {
			s := signedStep(rng, ref, history, &next, 1+rng.Intn(24))
			if step%13 == 12 {
				s = &delta.Signed{Schema: schema}
				for _, tu := range ref.Tuples() {
					if rng.Intn(8) != 0 {
						s.Rows = append(s.Rows, delta.SignedRow{TID: tu.TID, Values: tu.Values, Sign: -1})
					}
				}
			}
			d := s.ToDeltaNetted(0)
			c := changeOf(t, d, identity(n), schema)
			if c.Len() != d.Len() {
				t.Fatalf("change Len %d, delta %d", c.Len(), d.Len())
			}
			ci, cd, cm := c.Counts()
			di, dd, dm := d.Counts()
			if ci != di || cd != dd || cm != dm {
				t.Fatalf("change Counts %d/%d/%d, delta %d/%d/%d", ci, cd, cm, di, dd, dm)
			}
			k := 0
			c.Each(func(tid relation.TID, oldAt, newAt int32) {
				r := d.Rows()[k]
				if tid != r.TID || (oldAt >= 0) != (r.Old != nil) || (newAt >= 0) != (r.New != nil) {
					t.Fatalf("Each row %d: tid %d halves %d/%d, delta row %+v", k, tid, oldAt, newAt, r)
				}
				k++
			})
			if err := tab.FitsChange(c); err != nil {
				t.Fatal(err)
			}
			tab.ApplyChange(c)
			delta.ApplySigned(ref, s)
			sameByTID(t, "apply change", tab, ref)
			if got := c.Rows(); len(got) != d.Len() {
				t.Fatalf("rendered %d rows, delta has %d", len(got), d.Len())
			}

			rc := changeOf(t, d, rev, revSchema)
			if err := revTab.FitsChange(rc); err != nil {
				t.Fatal(err)
			}
			revTab.ApplyChange(rc)
			revRows.Apply(&rc.Delta)
			if !revTab.Relation().EqualByTID(revRows.Relation()) {
				t.Fatalf("step %d: a reversed column map maintains a different table than its rendering", step)
			}
		}
	}
}

func identity(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// TestApplyChangeConvertsThroughRows: a change whose column is not of
// the table's type is checked and applied through its rendered rows,
// under relation.Column.Conform — an integer written into a float column
// becomes a float, and a string into an integer column fails the check
// with relation.ErrTypeMismatch.
func TestApplyChangeConvertsThroughRows(t *testing.T) {
	ints := relation.MustSchema(relation.Column{Name: "v", Type: relation.TInt})
	d := delta.New(ints)
	if err := d.AppendInsert(1, []relation.Value{relation.Int(7)}, 1); err != nil {
		t.Fatal(err)
	}
	c := changeOf(t, d, []int{0}, ints)
	floats := NewTable(relation.MustSchema(relation.Column{Name: "v", Type: relation.TFloat}), 0)
	if err := floats.FitsChange(c); err != nil {
		t.Fatal(err)
	}
	floats.ApplyChange(c)
	if v := floats.Rows().Value(int(floats.Slot(1)), 0); v.Kind != relation.TFloat || v.AsFloat() != 7 {
		t.Fatalf("stored %v (kind %v), want float 7", v, v.Kind)
	}

	strs := relation.MustSchema(relation.Column{Name: "v", Type: relation.TString})
	sd := delta.New(strs)
	if err := sd.AppendInsert(1, []relation.Value{relation.Str("x")}, 1); err != nil {
		t.Fatal(err)
	}
	into := NewTable(ints, 0)
	if err := into.FitsChange(changeOf(t, sd, []int{0}, strs)); !errors.Is(err, relation.ErrTypeMismatch) {
		t.Fatalf("FitsChange of a string into an int column: %v, want ErrTypeMismatch", err)
	}
}
