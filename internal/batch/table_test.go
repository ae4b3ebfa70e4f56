package batch

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
)

// tableSchema is a random schema with at least one string and one float
// column, the two whose payloads a table must copy, not alias.
func tableSchema(rng *rand.Rand) relation.Schema {
	cols := randSchema(rng).Columns()
	cols = append(cols,
		relation.Column{Name: "str", Type: relation.TString},
		relation.Column{Name: "flt", Type: relation.TFloat})
	return relation.MustSchema(cols...)
}

// looseRow is randRow with values the table conforms rather than stores
// as given: untyped NULLs, and integers in float columns.
func looseRow(rng *rand.Rand, schema relation.Schema) []relation.Value {
	vals := randRow(rng, schema)
	for c := range vals {
		switch {
		case rng.Intn(20) == 0:
			vals[c] = relation.NullValue()
		case schema.Col(c).Type == relation.TFloat && rng.Intn(10) == 0:
			vals[c] = relation.Int(rng.Int63n(100))
		}
	}
	return vals
}

// signedStep draws one netted change against the reference state: each
// tid at most once, as a lone +1 (an insert, or an upsert without its
// -old half), a lone -1 (a delete, of a present or an absent tid), or a
// -old/+new pair (a modification, sometimes back to an earlier value).
// Deleted tids come back as inserts (InsertWithTID reuse).
func signedStep(rng *rand.Rand, ref *relation.Relation, history map[relation.TID][]relation.Value, next *relation.TID, size int) *delta.Signed {
	s := &delta.Signed{Schema: ref.Schema()}
	used := map[relation.TID]bool{}
	for k := 0; k < size; k++ {
		switch op := rng.Intn(10); {
		case op < 3 || ref.Len() == 0:
			tid := *next
			if rng.Intn(3) == 0 && len(history) > 0 {
				for old := range history { // a tid seen before: reuse it
					tid = old
					break
				}
			} else {
				*next++
			}
			if used[tid] || ref.Has(tid) {
				continue
			}
			used[tid] = true
			s.Rows = append(s.Rows, delta.SignedRow{TID: tid, Values: looseRow(rng, ref.Schema()), Sign: +1})
		case op < 5:
			tid := relation.TID(1_000_000 + rng.Intn(50)) // never present
			if !used[tid] {
				used[tid] = true
				s.Rows = append(s.Rows, delta.SignedRow{TID: tid, Values: randRow(rng, ref.Schema()), Sign: -1})
			}
		default:
			tu := ref.At(rng.Intn(ref.Len()))
			if used[tu.TID] {
				continue
			}
			used[tu.TID] = true
			now := looseRow(rng, ref.Schema())
			if back, ok := history[tu.TID]; ok && rng.Intn(4) == 0 {
				now = back // modify-back
			}
			switch rng.Intn(6) {
			case 0: // delete
				s.Rows = append(s.Rows, delta.SignedRow{TID: tu.TID, Values: tu.Values, Sign: -1})
			case 1: // upsert without its -old half
				s.Rows = append(s.Rows, delta.SignedRow{TID: tu.TID, Values: now, Sign: +1})
			default:
				s.Rows = append(s.Rows,
					delta.SignedRow{TID: tu.TID, Values: tu.Values, Sign: -1},
					delta.SignedRow{TID: tu.TID, Values: now, Sign: +1})
			}
			history[tu.TID] = tu.Values
		}
	}
	return s
}

// conformed is the relation with every value in its column's type, as
// the table stores it.
func conformed(t *testing.T, rel *relation.Relation) *relation.Relation {
	t.Helper()
	out := relation.New(rel.Schema())
	for _, tu := range rel.Tuples() {
		vals := append([]relation.Value(nil), tu.Values...)
		if err := rel.Schema().Conform(vals); err != nil {
			t.Fatal(err)
		}
		_ = out.Insert(relation.Tuple{TID: tu.TID, Values: vals})
	}
	return out
}

// sameByTID holds the table to the reference relation tid by tid, values
// and value kinds both (the table stores every value typed).
func sameByTID(t *testing.T, label string, tab *Table, ref *relation.Relation) {
	t.Helper()
	want := conformed(t, ref)
	got := tab.Relation()
	if tab.Len() != want.Len() || got.Len() != want.Len() {
		t.Fatalf("%s: table has %d rows (rendered %d), reference %d", label, tab.Len(), got.Len(), want.Len())
	}
	for _, tu := range want.Tuples() {
		s := tab.Slot(tu.TID)
		if s < 0 {
			t.Fatalf("%s: tid %d missing", label, tu.TID)
		}
		if !tab.RowEqual(s, tu.Values) {
			t.Fatalf("%s: tid %d differs in place", label, tu.TID)
		}
		row, _ := got.Lookup(tu.TID)
		for c, v := range row.Values {
			if v.Kind != tu.Values[c].Kind || !v.Equal(tu.Values[c]) {
				t.Fatalf("%s: tid %d column %d = %v (kind %v), want %v (kind %v)", label, tu.TID, c, v, v.Kind, tu.Values[c], tu.Values[c].Kind)
			}
		}
	}
}

// TestTableMatchesApplySignedProperty: over random netted changes the
// slot table, taking each as a refresh's differential relation
// (Table.Apply of a *delta.Delta), holds, tid by tid, what
// delta.ApplySigned maintains in a relation.Relation from the same
// change's signed form — through modifications, modifications back to
// an earlier value, deletes of absent tids, inserts of present ones,
// reused tids, typed and untyped NULLs, string and float columns and the
// compaction of a shrunken table; the replica's batch apply agrees
// wherever the stream has a columnar form; and rendering the table and
// applying the render to an empty table round-trips.
func TestTableMatchesApplySignedProperty(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		schema := tableSchema(rng)
		ref := relation.New(schema)
		tab := NewTable(schema, 0)
		rep := NewTable(schema, 0)
		history := map[relation.TID][]relation.Value{}
		next := relation.TID(1)
		for step := 0; step < 40; step++ {
			size := 1 + rng.Intn(24)
			if step%13 == 12 {
				// Empty most of the table at once: the holes outnumber the
				// live rows and the table compacts.
				s := &delta.Signed{Schema: schema}
				for _, tu := range ref.Tuples() {
					if rng.Intn(8) != 0 {
						s.Rows = append(s.Rows, delta.SignedRow{TID: tu.TID, Values: tu.Values, Sign: -1})
					}
				}
				applyBoth(t, s, ref, tab, rep)
			} else {
				applyBoth(t, signedStep(rng, ref, history, &next, size), ref, tab, rep)
			}
			sameByTID(t, "apply", tab, ref)
			sameByTID(t, "apply batch", rep, ref)
		}

		// Render, then apply the render to an empty table: the same rows.
		render := tab.Relation()
		s := &delta.Signed{Schema: schema}
		for _, tu := range render.Tuples() {
			s.Rows = append(s.Rows, delta.SignedRow{TID: tu.TID, Values: tu.Values, Sign: +1})
		}
		again := NewTable(schema, 0)
		if err := again.Fits(s.ToDeltaNetted(0)); err != nil {
			t.Fatal(err)
		}
		again.Apply(s.ToDeltaNetted(0))
		sameByTID(t, "round trip", again, ref)
		if c := tab.Clone(); c.Len() != tab.Len() {
			t.Fatalf("clone has %d rows, want %d", c.Len(), tab.Len())
		} else {
			sameByTID(t, "clone", c, ref)
		}
	}
}

// applyBoth applies s to the reference relation (delta.ApplySigned), to
// the result table in its differential-relation form (Table.Apply), and
// — conformed into a batch — to the replica table.
func applyBoth(t *testing.T, s *delta.Signed, ref *relation.Relation, tab, rep *Table) {
	t.Helper()
	d := s.ToDeltaNetted(0)
	if err := tab.Fits(d); err != nil {
		t.Fatal(err)
	}
	tab.Apply(d)
	delta.ApplySigned(ref, s)
	typed := &delta.Signed{Schema: s.Schema}
	for _, r := range s.Rows {
		vals := append([]relation.Value(nil), r.Values...)
		if err := s.Schema.Conform(vals); err != nil {
			t.Fatal(err)
		}
		typed.Rows = append(typed.Rows, delta.SignedRow{TID: r.TID, Values: vals, Sign: r.Sign})
	}
	b, ok := FromSigned(nil, typed)
	if !ok {
		t.Fatal("a conformed change has no columnar form")
	}
	rep.ApplyBatch(b, nil)
}

// TestTableRefusesUnrepresentable: a value its column cannot hold fails
// the change's check (Fits) and a Set with relation.ErrTypeMismatch, and
// leaves the table as it was.
func TestTableRefusesUnrepresentable(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "n", Type: relation.TInt},
		relation.Column{Name: "s", Type: relation.TString})
	tab := NewTable(schema, 0)
	if err := tab.Set(1, []relation.Value{relation.Int(1), relation.Str("a")}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]relation.Value{
		{relation.Str("x"), relation.Str("b")},
		{relation.Float(1.5), relation.Str("b")},
		{relation.Int(2), relation.Int(3)},
	} {
		s := &delta.Signed{Schema: schema, Rows: []delta.SignedRow{
			{TID: 1, Values: []relation.Value{relation.Int(1), relation.Str("a")}, Sign: -1},
			{TID: 2, Values: []relation.Value{relation.Int(2), relation.Str("ok")}, Sign: +1},
			{TID: 3, Values: bad, Sign: +1},
		}}
		if err := tab.Fits(s.ToDeltaNetted(0)); !errors.Is(err, relation.ErrTypeMismatch) {
			t.Fatalf("Fits(%v) = %v, want ErrTypeMismatch", bad, err)
		}
		if err := tab.Set(3, bad); !errors.Is(err, relation.ErrTypeMismatch) {
			t.Fatalf("Set(%v) = %v, want ErrTypeMismatch", bad, err)
		}
		if tab.Len() != 1 || tab.Slot(1) < 0 || tab.Slot(3) >= 0 {
			t.Fatalf("a refused row touched the table: %s", tab.Relation())
		}
	}
	// 2.0 into the INT column is the integer 2, as at the store's boundary.
	if err := tab.Set(4, []relation.Value{relation.Float(2), relation.NullValue()}); err != nil {
		t.Fatal(err)
	}
	row := make([]relation.Value, 2)
	tab.Rows().ReadRow(int(tab.Slot(4)), row)
	if row[0].Kind != relation.TInt || row[0].AsInt() != 2 || !row[1].IsNull() || row[1].Kind != relation.TString {
		t.Fatalf("conformed row = %v (kinds %v, %v)", row, row[0].Kind, row[1].Kind)
	}
}

// TestTableCompacts: a result table whose deletes leave more holes than
// live rows gives the memory back — its Bytes fall — and keeps its rows.
func TestTableCompacts(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "s", Type: relation.TString})
	tab := NewTable(schema, 0)
	ins := &delta.Signed{Schema: schema}
	for i := 1; i <= 1000; i++ {
		ins.Rows = append(ins.Rows, delta.SignedRow{TID: relation.TID(i), Values: []relation.Value{relation.Str("v")}, Sign: +1})
	}
	tab.Apply(ins.ToDeltaNetted(0))
	full := tab.Bytes()
	del := &delta.Signed{Schema: schema}
	for _, r := range ins.Rows[:900] {
		del.Rows = append(del.Rows, delta.SignedRow{TID: r.TID, Values: r.Values, Sign: -1})
	}
	tab.Apply(del.ToDeltaNetted(0))
	if tab.Len() != 100 || tab.Rows().Len() != 100 || tab.Bytes() >= full/2 {
		t.Fatalf("after deleting 900 of 1000 rows: %d live in %d slots, %d bytes (was %d)", tab.Len(), tab.Rows().Len(), tab.Bytes(), full)
	}
	for _, r := range ins.Rows[900:] {
		if tab.Slot(r.TID) < 0 {
			t.Fatalf("tid %d lost by the compaction", r.TID)
		}
	}
}

// BenchmarkTableApply applies one 64-row change — 10% inserts, 10%
// deletes, 80% modifications — to a result table the way a refresh
// maintains its result. In apply and apply100k the change is columnar
// (a Change over a signed window batch, as a selection's refresh
// produces it), checked with FitsChange and written typed into the
// table's slots with ApplyChange, at 5,000 and at 100,000 rows; in
// apply_rows it is the same change in row form (a *delta.Delta, as a
// join, a group table or a template member produces it), checked with
// Fits and written with Apply, at 5,000 rows. The modified tids are
// spread evenly over the table. Two changes alternate, each undoing the
// other's inserts and deletes, so the table keeps its size and every
// insert reuses a freed slot. Every arm is gated at 0 allocs/op
// (scripts/check-allocs.sh).
func BenchmarkTableApply(b *testing.B) {
	b.Run("apply", func(b *testing.B) { benchTableApply(b, 5000, false) })
	b.Run("apply100k", func(b *testing.B) { benchTableApply(b, 100000, false) })
	b.Run("apply_rows", func(b *testing.B) { benchTableApply(b, 5000, true) })
}

func benchTableApply(b *testing.B, n int, rowForm bool) {
	schema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "qty", Type: relation.TInt})
	row := func(i, v int) []relation.Value {
		return []relation.Value{relation.Str("S"), relation.Float(float64(v)), relation.Int(int64(i))}
	}
	tab := NewTable(schema, n)
	for i := 1; i <= n; i++ {
		if err := tab.Set(relation.TID(i), row(i, 0)); err != nil {
			b.Fatal(err)
		}
	}
	// Change k deletes tids gone[k], inserts back[k] (the other change's
	// deletes), and modifies 52 tids that both keep.
	gone := [2][]relation.TID{}
	for j := 0; j < 6; j++ {
		gone[0] = append(gone[0], relation.TID(1+j))
		gone[1] = append(gone[1], relation.TID(n+1+j))
	}
	var changes [2]*Change
	for k := range changes {
		img := New(schema, 128)
		for _, tid := range gone[k] {
			img.AppendRow(tid, -1, row(int(tid), 0))
		}
		for _, tid := range gone[1-k] {
			img.AppendRow(tid, +1, row(int(tid), 0))
		}
		for j := 0; j < 52; j++ {
			tid := relation.TID(100 + j*(n/100))
			img.AppendRow(tid, -1, row(int(tid), k))
			img.AppendRow(tid, +1, row(int(tid), 1-k))
		}
		rows := make([]int32, img.Len())
		for i := range rows {
			rows[i] = int32(i)
		}
		changes[k] = new(Change)
		changes[k].Init(schema, img, rows, []int{0, 1, 2}, 0, nil)
	}
	if rowForm {
		deltas := [2]*delta.Delta{
			delta.FromRows(schema, changes[0].Rows()),
			delta.FromRows(schema, changes[1].Rows()),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tab.Fits(deltas[i%2]); err != nil {
				b.Fatal(err)
			}
			tab.Apply(deltas[i%2])
		}
		return
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A refresh's check, then its apply.
		if err := tab.FitsChange(changes[i%2]); err != nil {
			b.Fatal(err)
		}
		tab.ApplyChange(changes[i%2])
	}
}
