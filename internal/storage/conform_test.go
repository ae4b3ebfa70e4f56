package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/diorama/continual/internal/relation"
)

// TestWriteBoundaryConformance drives the one place kinds are checked on
// the write path — Tx.Insert, Tx.InsertWithTID and Tx.Update — with
// values of another kind than their column: an untyped NULL and a
// lossless INT/FLOAT conversion are stored under the column's type (and
// reach the differential relation and its window's columnar image that
// way); anything else is refused with relation.ErrTypeMismatch, the
// transaction stays abortable, and the store is untouched.
func TestWriteBoundaryConformance(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "i", Type: relation.TInt},
		relation.Column{Name: "f", Type: relation.TFloat},
		relation.Column{Name: "s", Type: relation.TString},
		relation.Column{Name: "b", Type: relation.TBool},
	)
	clean := func() []relation.Value {
		return []relation.Value{relation.Int(1), relation.Float(1.5), relation.Str("x"), relation.Bool(true)}
	}
	cases := []struct {
		name string
		col  int
		in   relation.Value
		want relation.Value // stored value; ignored when reject
		fail bool
	}{
		{"untyped NULL", 2, relation.NullValue(), relation.TypedNull(relation.TString), false},
		{"INT into FLOAT", 1, relation.Int(3), relation.Float(3), false},
		{"integral FLOAT into INT", 0, relation.Float(4), relation.Int(4), false},
		{"non-integral FLOAT into INT", 0, relation.Float(4.5), relation.Value{}, true},
		{"STRING into INT", 0, relation.Str("7"), relation.Value{}, true},
		{"BOOL into STRING", 2, relation.Bool(true), relation.Value{}, true},
	}
	const seeded = relation.TID(1000)
	entries := []struct {
		name  string
		write func(tx *Tx, row []relation.Value) (relation.TID, error)
	}{
		{"Insert", func(tx *Tx, row []relation.Value) (relation.TID, error) { return tx.Insert("t", row) }},
		{"InsertWithTID", func(tx *Tx, row []relation.Value) (relation.TID, error) {
			return 2000, tx.InsertWithTID("t", 2000, row)
		}},
		{"Update", func(tx *Tx, row []relation.Value) (relation.TID, error) { return seeded, tx.Update("t", seeded, row) }},
	}
	for _, en := range entries {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", en.name, tc.name), func(t *testing.T) {
				s := NewStore()
				if err := s.CreateTable("t", schema); err != nil {
					t.Fatal(err)
				}
				tx := s.Begin()
				if err := tx.InsertWithTID("t", seeded, clean()); err != nil {
					t.Fatal(err)
				}
				before := mustCommit(t, tx)
				hooked := 0
				var last CommitEvent
				s.SetCommitHook(func(ev CommitEvent) { hooked++; last = ev })

				row := clean()
				row[tc.col] = tc.in
				tx = s.Begin()
				tid, err := en.write(tx, row)
				if tc.fail {
					if !errors.Is(err, relation.ErrTypeMismatch) {
						t.Fatalf("err = %v, want relation.ErrTypeMismatch", err)
					}
					tx.Abort()
					if _, err := tx.Commit(); !errors.Is(err, ErrTxDone) {
						t.Fatalf("commit after abort: %v", err)
					}
					rel, _ := s.Snapshot("t")
					if got, _ := rel.Lookup(seeded); rel.Len() != 1 || !slices.EqualFunc(got.Values, clean(), relation.Value.Equal) {
						t.Fatalf("store changed by a refused write:\n%s", rel)
					}
					if n, _ := s.DeltaLen("t"); n != 1 || s.Now() != before || hooked != 0 {
						t.Fatalf("refused write left traces: delta rows %d, clock %d (was %d), hook calls %d", n, s.Now(), before, hooked)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !row[tc.col].Equal(tc.in) || row[tc.col].Kind != tc.in.Kind {
					t.Fatal("the boundary rewrote the caller's slice instead of its own copy")
				}
				ts := mustCommit(t, tx)
				rel, _ := s.Snapshot("t")
				got, ok := rel.Lookup(tid)
				if !ok {
					t.Fatalf("tid %d not stored", tid)
				}
				for c, v := range got.Values {
					if v.Kind != schema.Col(c).Type {
						t.Fatalf("column %q holds a %v", schema.Col(c).Name, v.Kind)
					}
				}
				if v := got.Values[tc.col]; !v.Equal(tc.want) || v.IsNull() != tc.want.IsNull() {
					t.Fatalf("stored %v, want %v", v, tc.want)
				}
				d, _ := s.DeltaSince("t", before)
				if d.Len() != 1 || d.Rows()[0].New[tc.col].Kind != schema.Col(tc.col).Type {
					t.Fatalf("differential row not conformed: %+v", d.Rows())
				}
				if hooked != 1 || last.Changes[0].Rows != d.Len() {
					t.Fatalf("commit hook calls %d, changes %+v, want one event counting the window", hooked, last.Changes)
				}
				b, err := s.NewWindowCache().WindowBatch("t", before, ts, false)
				if err != nil || b.Len() != d.ToSigned().Len() {
					t.Fatalf("window image: %v rows (err %v), want %d", b, err, d.ToSigned().Len())
				}
			})
		}
	}

	// Arity stays checked at the same boundary.
	s := NewStore()
	if err := s.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	if _, err := tx.Insert("t", clean()[:3]); !errors.Is(err, relation.ErrArity) {
		t.Fatalf("short row: err = %v, want relation.ErrArity", err)
	}
	tx.Abort()
}
