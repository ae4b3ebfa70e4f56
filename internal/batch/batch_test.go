package batch

import (
	"testing"

	"github.com/diorama/continual/internal/relation"
)

func testSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "i", Type: relation.TInt},
		relation.Column{Name: "f", Type: relation.TFloat},
		relation.Column{Name: "s", Type: relation.TString},
		relation.Column{Name: "b", Type: relation.TBool},
	)
}

func row(i int64, f float64, s string, b bool) []relation.Value {
	return []relation.Value{relation.Int(i), relation.Float(f), relation.Str(s), relation.Bool(b)}
}

func TestAppendAndRead(t *testing.T) {
	b := New(testSchema(), 4)
	if !b.AppendRow(1, +1, row(7, 2.5, "x", true)) {
		t.Fatal("append failed")
	}
	if !b.AppendRow(2, -1, []relation.Value{
		relation.TypedNull(relation.TInt), relation.Float(0), relation.TypedNull(relation.TString), relation.Bool(false),
	}) {
		t.Fatal("append with typed NULLs failed")
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
	if v := b.Value(0, 0); v.AsInt() != 7 {
		t.Fatalf("value(0,0) = %v", v)
	}
	if v := b.Value(1, 0); !v.IsNull() || v.Kind != relation.TInt {
		t.Fatalf("NULL did not round-trip typed: %v kind=%v", v, v.Kind)
	}
	if v := b.Value(1, 1); v.IsNull() || v.AsFloat() != 0 {
		t.Fatalf("value(1,1) = %v", v)
	}
	if b.Signs[0] != +1 || b.Signs[1] != -1 {
		t.Fatalf("signs = %v", b.Signs)
	}
	dst := make([]relation.Value, 4)
	b.ReadRow(0, dst)
	if dst[2].AsString() != "x" || !dst[3].AsBool() {
		t.Fatalf("readrow = %v", dst)
	}
}

func TestAppendRejectsUnrepresentable(t *testing.T) {
	b := New(testSchema(), 1)
	// Untyped NULL (Kind 0) is unrepresentable: column type is unknown.
	if b.AppendRow(1, +1, []relation.Value{relation.NullValue(), relation.Float(0), relation.Str(""), relation.Bool(false)}) {
		t.Fatal("untyped NULL must be rejected")
	}
	b = New(testSchema(), 1)
	// Kind mismatch (float in the int column).
	if b.AppendRow(1, +1, []relation.Value{relation.Float(1), relation.Float(0), relation.Str(""), relation.Bool(false)}) {
		t.Fatal("kind mismatch must be rejected")
	}
}

func TestGather(t *testing.T) {
	b := New(testSchema(), 4)
	for i := int64(0); i < 5; i++ {
		vals := row(i, float64(i), "r", i%2 == 0)
		if i == 3 {
			vals[2] = relation.TypedNull(relation.TString)
		}
		if !b.AppendRow(relation.TID(i), +1, vals) {
			t.Fatal("append")
		}
	}
	b.Gather([]int32{1, 3, 4})
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
	if got := b.Value(0, 0).AsInt(); got != 1 {
		t.Fatalf("row0 = %d", got)
	}
	if v := b.Value(1, 2); !v.IsNull() {
		t.Fatalf("NULL lost in gather: %v", v)
	}
	if v := b.Value(2, 2); v.IsNull() || v.AsString() != "r" {
		t.Fatalf("valid row corrupted in gather: %v", v)
	}
	if b.TIDs[2] != 4 {
		t.Fatalf("tids = %v", b.TIDs)
	}
}

// TestAppendSelected: selection indices plus a column map copy out in
// one call exactly the cells row-at-a-time AppendFrom plus a projection
// would, NULLs included, appending after rows already present; a nil
// selection means every row.
func TestAppendSelected(t *testing.T) {
	src := New(testSchema(), 4)
	src.AppendRow(1, -1, row(10, 1.5, "a", true))
	src.AppendRow(1, +1, []relation.Value{relation.Int(11), relation.TypedNull(relation.TFloat), relation.Str("b"), relation.Bool(false)})
	src.AppendRow(2, +1, row(12, 2.5, "c", true))
	src.AppendRow(3, -1, []relation.Value{relation.TypedNull(relation.TInt), relation.Float(3.5), relation.TypedNull(relation.TString), relation.Bool(true)})
	// Output: (s, i, s) — a reordered, duplicated subset of the columns.
	cols := []int{2, 0, 2}
	schema := relation.MustSchema(
		relation.Column{Name: "s", Type: relation.TString},
		relation.Column{Name: "i", Type: relation.TInt},
		relation.Column{Name: "s2", Type: relation.TString},
	)
	for _, sel := range [][]int32{nil, {1, 3}, {0}, {}} {
		dst := New(schema, 0)
		dst.AppendRow(9, +1, []relation.Value{relation.Str("z"), relation.Int(0), relation.Str("z")})
		dst.AppendSelected(src, sel, cols)
		rows := sel
		if sel == nil {
			rows = []int32{0, 1, 2, 3}
		}
		if dst.Len() != 1+len(rows) {
			t.Fatalf("sel %v: %d rows, want %d", sel, dst.Len(), 1+len(rows))
		}
		for k, i := range rows {
			r := 1 + k
			if dst.TIDs[r] != src.TIDs[i] || dst.Signs[r] != src.Signs[i] {
				t.Fatalf("sel %v row %d: tid/sign %d/%d, want %d/%d", sel, k, dst.TIDs[r], dst.Signs[r], src.TIDs[i], src.Signs[i])
			}
			for j, ci := range cols {
				got, want := dst.Value(r, j), src.Value(int(i), ci)
				if got.Kind != want.Kind || got.Null != want.Null || !got.Equal(want) {
					t.Fatalf("sel %v row %d col %d: %v, want %v", sel, k, j, got, want)
				}
			}
		}
		if v := dst.Value(0, 1); v.IsNull() || v.AsInt() != 0 {
			t.Fatalf("sel %v: the row already present changed: %v", sel, v)
		}
	}
}

func TestMoveCol(t *testing.T) {
	src := New(testSchema(), 2)
	src.AppendRow(9, +1, row(42, 0, "", false))
	dst := New(testSchema(), 4)
	dstBuf := cap(dst.Cols[0].I64)
	src.MoveCol(0, dst, 0)
	if c := dst.Cols[0]; len(c.I64) != 1 || c.I64[0] != 42 {
		t.Fatalf("moved col = %+v", c)
	}
	if c := src.Cols[0]; len(c.I64) != 0 || cap(c.I64) != dstBuf {
		t.Fatalf("source slot must hold dst's old empty buffer, got %+v", c)
	}
}

// TestPoolGetHonoursCapHint: a recycled batch reshaped for another
// schema gets its typed buffers sized up front, not by doubling.
func TestPoolGetHonoursCapHint(t *testing.T) {
	p := NewPool()
	ints := relation.MustSchema(relation.Column{Name: "a", Type: relation.TInt})
	strs := relation.MustSchema(relation.Column{Name: "a", Type: relation.TString})
	p.Put(p.Get(ints, 64))
	b := p.Get(strs, 64)
	if cap(b.Cols[0].Str) < 64 || cap(b.TIDs) < 64 || cap(b.Signs) < 64 {
		t.Fatalf("capacity hint ignored: str=%d tids=%d signs=%d", cap(b.Cols[0].Str), cap(b.TIDs), cap(b.Signs))
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool()
	b := p.Get(testSchema(), 8)
	for i := int64(0); i < 8; i++ {
		b.AppendRow(relation.TID(i), +1, row(i, 0, "v", false))
	}
	p.Put(b)
	b2 := p.Get(testSchema(), 8)
	if b2.Len() != 0 {
		t.Fatalf("recycled batch not empty: %d", b2.Len())
	}
	if !b2.AppendRow(1, +1, row(5, 0, "w", true)) || b2.Value(0, 0).AsInt() != 5 {
		t.Fatal("recycled batch unusable")
	}
}

func TestPoisonedGeneration(t *testing.T) {
	if !poisonEnabled {
		t.Skip("poison assertions compiled out (build without -race/batchpoison)")
	}
	p := NewPool()
	b := p.Get(testSchema(), 1)
	b.AppendRow(1, +1, row(1, 0, "", false))
	gen := b.Gen()
	p.Put(b)
	if b.Gen() != gen+1 {
		t.Fatalf("generation not bumped: %d -> %d", gen, b.Gen())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("use after Put did not panic in poison build")
		}
	}()
	_ = b.Len()
}

func TestIdxAndTIDPools(t *testing.T) {
	p := NewPool()
	s := p.GetIdx(4)
	s = append(s, 1, 2, 3)
	p.PutIdx(s)
	s2 := p.GetIdx(4)
	if len(s2) != 0 {
		t.Fatalf("recycled idx not empty: %v", s2)
	}
	ts := p.GetTIDs(4)
	ts = append(ts, 1)
	p.PutTIDs(ts)
	if got := p.GetTIDs(4); len(got) != 0 {
		t.Fatalf("recycled tid buf not empty: %v", got)
	}
}

func TestRowsEqual(t *testing.T) {
	b := New(testSchema(), 3)
	b.AppendRow(1, +1, row(1, 2, "a", true))
	b.AppendRow(2, -1, row(1, 2, "a", true))
	b.AppendRow(3, +1, row(1, 2, "b", true))
	vals := []relation.Value{relation.Int(1), relation.Float(2), relation.TypedNull(relation.TString), relation.Bool(true)}
	b.AppendRow(4, +1, vals)
	b.AppendRow(5, +1, vals)
	if !b.RowsEqual(0, 1) {
		t.Fatal("identical rows unequal")
	}
	if b.RowsEqual(0, 2) {
		t.Fatal("different rows equal")
	}
	if !b.RowsEqual(3, 4) {
		t.Fatal("NULL rows must compare equal")
	}
	if b.RowsEqual(0, 3) {
		t.Fatal("NULL vs value must compare unequal")
	}
}

// TestSlotStableRows exercises the batch as slot-addressed storage:
// overwrite in place (including a first NULL into an all-valid column),
// free a slot into a hole, and refill it, with every other row keeping
// its index and content.
func TestSlotStableRows(t *testing.T) {
	store := New(testSchema(), 4)
	for i := int64(0); i < 4; i++ {
		store.AppendRow(relation.TID(10+i), +1, row(i, float64(i), "s", true))
	}
	src := New(testSchema(), 2)
	src.AppendRow(77, +1, []relation.Value{
		relation.Int(70), relation.TypedNull(relation.TFloat), relation.Str("new"), relation.Bool(false),
	})
	src.AppendRow(78, +1, row(80, 8, "again", true))

	store.SetRowFrom(1, src, 0)
	if store.TIDs[1] != 77 || store.Signs[1] != 1 || store.Value(1, 0).AsInt() != 70 ||
		!store.Value(1, 1).IsNull() || store.Value(1, 2).AsString() != "new" {
		t.Fatalf("overwritten row = tid %d %v %v %v", store.TIDs[1], store.Value(1, 0), store.Value(1, 1), store.Value(1, 2))
	}
	for _, r := range []int{0, 2, 3} {
		if store.Value(r, 1).IsNull() || store.Value(r, 0).AsInt() != int64(r) {
			t.Fatalf("row %d disturbed by overwriting row 1", r)
		}
	}

	store.ClearRow(1)
	if store.TIDs[1] != 0 || store.Signs[1] != 0 || store.Value(1, 2).AsString() != "" || store.Len() != 4 {
		t.Fatalf("cleared slot: tid %d sign %d str %q len %d", store.TIDs[1], store.Signs[1], store.Value(1, 2).AsString(), store.Len())
	}
	store.SetRowFrom(1, src, 1)
	if store.TIDs[1] != 78 || store.Value(1, 1).AsFloat() != 8 {
		t.Fatalf("refilled slot = tid %d %v", store.TIDs[1], store.Value(1, 1))
	}
}

// TestHashKeyAndKeyEqual: column-wise key hashing equals HashValues of
// the same cells (NULLs included), and KeyEqual compares keys in place
// across batches and column positions.
func TestHashKeyAndKeyEqual(t *testing.T) {
	a := New(testSchema(), 2)
	a.AppendRow(1, +1, row(5, 1.5, "k", true))
	a.AppendRow(2, +1, []relation.Value{
		relation.TypedNull(relation.TInt), relation.Float(1.5), relation.Str("k"), relation.Bool(true),
	})
	cols := []int{2, 0, 3}
	for r := 0; r < 2; r++ {
		want := relation.HashValues([]relation.Value{a.Value(r, 2), a.Value(r, 0), a.Value(r, 3)})
		if got := a.HashKey(r, cols); got != want {
			t.Fatalf("row %d: HashKey %x != HashValues %x", r, got, want)
		}
	}
	swapped := relation.MustSchema(
		relation.Column{Name: "s", Type: relation.TString},
		relation.Column{Name: "i", Type: relation.TInt},
	)
	b := New(swapped, 2)
	b.AppendRow(9, +1, []relation.Value{relation.Str("k"), relation.Int(5)})
	b.AppendRow(9, +1, []relation.Value{relation.Str("k"), relation.TypedNull(relation.TInt)})
	if !a.KeyEqual(0, []int{2, 0}, b, 0, []int{0, 1}) {
		t.Fatal("equal keys across batches must compare equal")
	}
	if a.KeyEqual(0, []int{2, 0}, b, 1, []int{0, 1}) {
		t.Fatal("5 must not equal NULL")
	}
	if !a.KeyEqual(1, []int{2, 0}, b, 1, []int{0, 1}) {
		t.Fatal("NULL keys compare equal under Value.Equal semantics")
	}
}
