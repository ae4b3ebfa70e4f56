package relation

import (
	"errors"
	"math/rand"
	"testing"
)

func stockSchema() Schema {
	return MustSchema(
		Column{Name: "tid", Type: TInt},
		Column{Name: "name", Type: TString},
		Column{Name: "price", Type: TFloat},
	)
}

func stockRel(t *testing.T) *Relation {
	t.Helper()
	r := New(stockSchema())
	rows := []struct {
		tid   TID
		name  string
		price float64
	}{
		{100000, "DEC", 150},
		{92394, "QLI", 145},
		{7, "IBM", 75},
	}
	for _, row := range rows {
		err := r.Insert(Tuple{TID: row.tid, Values: []Value{Int(int64(row.tid)), Str(row.name), Float(row.price)}})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := stockSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if i, ok := s.ColIndex("PRICE"); !ok || i != 2 {
		t.Errorf("ColIndex(PRICE) = %d,%v", i, ok)
	}
	if _, ok := s.ColIndex("missing"); ok {
		t.Error("ColIndex(missing) should fail")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TInt}, Column{Name: "A", Type: TInt}); err == nil {
		t.Error("duplicate column names should error")
	}
}

func TestSchemaQualifiedLookup(t *testing.T) {
	s := MustSchema(
		Column{Name: "stocks.name", Type: TString},
		Column{Name: "trades.volume", Type: TInt},
	)
	if i, ok := s.ColIndex("name"); !ok || i != 0 {
		t.Errorf("bare suffix lookup = %d,%v", i, ok)
	}
	if i, ok := s.ColIndex("stocks.name"); !ok || i != 0 {
		t.Errorf("qualified lookup = %d,%v", i, ok)
	}
	amb := MustSchema(
		Column{Name: "a.x", Type: TInt},
		Column{Name: "b.x", Type: TInt},
	)
	if _, ok := amb.ColIndex("x"); ok {
		t.Error("ambiguous bare lookup should fail")
	}
}

func TestSchemaQualify(t *testing.T) {
	q := stockSchema().Qualify("stocks")
	if q.Col(0).Name != "stocks.tid" {
		t.Errorf("Qualify: %s", q.Col(0).Name)
	}
	// Qualifying twice leaves qualified names alone.
	q2 := q.Qualify("again")
	if q2.Col(0).Name != "stocks.tid" {
		t.Errorf("double Qualify: %s", q2.Col(0).Name)
	}
}

func TestRelationInsertLookupDelete(t *testing.T) {
	r := stockRel(t)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	tu, ok := r.Lookup(92394)
	if !ok || tu.Values[1].AsString() != "QLI" {
		t.Fatalf("Lookup(92394) = %v, %v", tu, ok)
	}
	if err := r.Insert(Tuple{TID: 7, Values: []Value{Int(7), Str("dup"), Float(0)}}); !errors.Is(err, ErrDuplicateTID) {
		t.Errorf("duplicate insert err = %v", err)
	}
	if err := r.Insert(Tuple{TID: 8, Values: []Value{Int(8)}}); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v", err)
	}
	if err := r.Delete(100000); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if r.Has(100000) || r.Len() != 2 {
		t.Error("delete did not remove tuple")
	}
	if err := r.Delete(100000); !errors.Is(err, ErrNoSuchTID) {
		t.Errorf("double delete err = %v", err)
	}
	// Index still consistent after swap-remove.
	for _, tid := range []TID{92394, 7} {
		got, ok := r.Lookup(tid)
		if !ok || got.TID != tid {
			t.Errorf("post-delete Lookup(%d) broken", tid)
		}
	}
}

func TestRelationUpdate(t *testing.T) {
	r := stockRel(t)
	if err := r.Update(7, []Value{Int(7), Str("IBM"), Float(80)}); err != nil {
		t.Fatalf("update: %v", err)
	}
	tu, _ := r.Lookup(7)
	if tu.Values[2].AsFloat() != 80 {
		t.Error("update did not take")
	}
	if err := r.Update(999, []Value{Int(0), Str(""), Float(0)}); !errors.Is(err, ErrNoSuchTID) {
		t.Errorf("update missing tid err = %v", err)
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := stockRel(t)
	c := r.Clone()
	if err := c.Update(7, []Value{Int(7), Str("IBM"), Float(999)}); err != nil {
		t.Fatal(err)
	}
	orig, _ := r.Lookup(7)
	if orig.Values[2].AsFloat() == 999 {
		t.Error("Clone shares tuple storage with original")
	}
}

func TestSetOperations(t *testing.T) {
	a := stockRel(t)
	b := New(stockSchema())
	_ = b.Insert(Tuple{TID: 7, Values: []Value{Int(7), Str("IBM"), Float(75)}})
	_ = b.Insert(Tuple{TID: 555, Values: []Value{Int(555), Str("MAC"), Float(117)}})

	u, err := a.Union(b)
	if err != nil || u.Len() != 4 {
		t.Fatalf("Union len = %d err %v", u.Len(), err)
	}
	m, err := a.Minus(b)
	if err != nil || m.Len() != 2 || m.Has(7) {
		t.Fatalf("Minus = %v err %v", m, err)
	}
	ix, err := a.Intersect(b)
	if err != nil || ix.Len() != 1 || !ix.Has(7) {
		t.Fatalf("Intersect = %v err %v", ix, err)
	}
	other := New(MustSchema(Column{Name: "x", Type: TString}))
	if _, err := a.Union(other); !errors.Is(err, ErrSchema) {
		t.Errorf("union schema err = %v", err)
	}
}

func TestEqualContentsIgnoresTIDsAndOrder(t *testing.T) {
	s := stockSchema()
	a := New(s)
	b := New(s)
	_ = a.Insert(Tuple{TID: 1, Values: []Value{Int(1), Str("x"), Float(2)}})
	_ = a.Insert(Tuple{TID: 2, Values: []Value{Int(2), Str("y"), Float(3)}})
	_ = b.Insert(Tuple{TID: 9, Values: []Value{Int(2), Str("y"), Float(3)}})
	_ = b.Insert(Tuple{TID: 8, Values: []Value{Int(1), Str("x"), Float(2)}})
	if !a.EqualContents(b) {
		t.Error("EqualContents should ignore tids and order")
	}
	_ = b.Delete(9)
	if a.EqualContents(b) {
		t.Error("EqualContents should detect size mismatch")
	}
}

func TestEqualByTID(t *testing.T) {
	a := stockRel(t)
	b := stockRel(t)
	if !a.EqualByTID(b) {
		t.Error("identical relations should be EqualByTID")
	}
	_ = b.Update(7, []Value{Int(7), Str("IBM"), Float(80)})
	if a.EqualByTID(b) {
		t.Error("EqualByTID should detect value change")
	}
}

func TestSortByTIDAndColumn(t *testing.T) {
	r := stockRel(t)
	r.SortByTID()
	if r.At(0).TID != 7 || r.At(2).TID != 100000 {
		t.Errorf("SortByTID order: %v %v", r.At(0).TID, r.At(2).TID)
	}
	r.SortBy(2) // by price
	if r.At(0).Values[2].AsFloat() != 75 {
		t.Error("SortBy(price) order wrong")
	}
	// byTID map stays consistent after sorting.
	tu, ok := r.Lookup(92394)
	if !ok || tu.TID != 92394 {
		t.Error("Lookup broken after sort")
	}
}

func TestHashIndexProbe(t *testing.T) {
	r := stockRel(t)
	ix := BuildHashIndex(r, []int{1}) // by name
	hits := ix.Probe([]Value{Str("DEC")})
	if len(hits) != 1 || hits[0].TID != 100000 {
		t.Fatalf("Probe(DEC) = %v", hits)
	}
	if got := ix.Probe([]Value{Str("NONE")}); len(got) != 0 {
		t.Errorf("Probe(NONE) = %v", got)
	}
	if ix.Len() != 3 {
		t.Errorf("index Len = %d", ix.Len())
	}
}

func TestHashIndexMultiColumn(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: TInt}, Column{Name: "b", Type: TInt})
	r := New(s)
	for i := 0; i < 10; i++ {
		_ = r.Insert(Tuple{TID: TID(i + 1), Values: []Value{Int(int64(i % 3)), Int(int64(i % 2))}})
	}
	ix := BuildHashIndex(r, []int{0, 1})
	hits := ix.Probe([]Value{Int(0), Int(0)})
	for _, h := range hits {
		if h.Values[0].AsInt() != 0 || h.Values[1].AsInt() != 0 {
			t.Errorf("false positive: %v", h)
		}
	}
	// i in {0,6} give (0,0): exactly 2 hits.
	if len(hits) != 2 {
		t.Errorf("Probe hits = %d, want 2", len(hits))
	}
}

// Property: random insert/delete sequences keep the tid index consistent.
func TestRelationIndexConsistencyProperty(t *testing.T) {
	s := MustSchema(Column{Name: "k", Type: TInt})
	r := New(s)
	rng := rand.New(rand.NewSource(42))
	live := map[TID]bool{}
	next := TID(1)
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			tid := next
			next++
			if err := r.Insert(Tuple{TID: tid, Values: []Value{Int(int64(tid))}}); err != nil {
				t.Fatal(err)
			}
			live[tid] = true
		} else {
			var victim TID
			for tid := range live {
				victim = tid
				break
			}
			if err := r.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(live, victim)
		}
	}
	if r.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(live))
	}
	for tid := range live {
		tu, ok := r.Lookup(tid)
		if !ok || tu.TID != tid || tu.Values[0].AsInt() != int64(tid) {
			t.Fatalf("Lookup(%d) inconsistent", tid)
		}
	}
}

func TestRelationString(t *testing.T) {
	r := stockRel(t)
	out := r.String()
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	for _, want := range []string{"name", "price", "DEC", "IBM"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestUpsertAndSchemaHelpers(t *testing.T) {
	r := stockRel(t)
	// Upsert replaces an existing tid.
	if err := r.Upsert(Tuple{TID: 7, Values: []Value{Int(7), Str("IBM"), Float(99)}}); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup(7)
	if got.Values[2].AsFloat() != 99 {
		t.Error("Upsert replace failed")
	}
	// Upsert inserts a fresh tid.
	if err := r.Upsert(Tuple{TID: 42, Values: []Value{Int(42), Str("NEW"), Float(1)}}); err != nil {
		t.Fatal(err)
	}
	if !r.Has(42) {
		t.Error("Upsert insert failed")
	}
	if err := r.Upsert(Tuple{TID: 43, Values: []Value{Int(43)}}); !errors.Is(err, ErrArity) {
		t.Errorf("Upsert arity err = %v", err)
	}
	if r.Schema().Len() != 3 {
		t.Error("Schema accessor")
	}
	if HashTID([]Value{Int(1)}) != HashTID([]Value{Int(1)}) {
		t.Error("HashTID not deterministic")
	}
}

func TestSchemaEqualConcatProjectColumns(t *testing.T) {
	a := stockSchema()
	b := stockSchema()
	if !a.Equal(b) {
		t.Error("identical schemas should be Equal")
	}
	c := MustSchema(Column{Name: "x", Type: TInt})
	if a.Equal(c) {
		t.Error("different schemas Equal")
	}
	d := MustSchema(Column{Name: "tid", Type: TInt}, Column{Name: "name", Type: TInt}, Column{Name: "price", Type: TFloat})
	if a.Equal(d) {
		t.Error("type mismatch should break Equal")
	}
	cat, err := a.Concat(c)
	if err != nil || cat.Len() != 4 {
		t.Errorf("Concat = %v, %v", cat, err)
	}
	if _, err := a.Concat(a); err == nil {
		t.Error("Concat with duplicate names should error")
	}
	proj := a.Project([]int{2, 0})
	if proj.Len() != 2 || proj.Col(0).Name != "price" {
		t.Errorf("Project = %s", proj)
	}
	cols := a.Columns()
	cols[0].Name = "mutated"
	if a.Col(0).Name == "mutated" {
		t.Error("Columns should return a copy")
	}
}
