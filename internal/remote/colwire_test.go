package remote

import (
	"bytes"
	"testing"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
)

func colSchema(t testing.TB) relation.Schema {
	t.Helper()
	sc, err := relation.NewSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "lot", Type: relation.TInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestColDeltaRoundTrip: a window with inserts, deletes, modifications
// and typed NULLs survives the columnar wire form exactly.
func TestColDeltaRoundTrip(t *testing.T) {
	sc := colSchema(t)
	d := delta.New(sc)
	mustAppend := func(r delta.Row) {
		t.Helper()
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	row := func(name string, price float64, lot int64) []relation.Value {
		return []relation.Value{relation.Str(name), relation.Float(price), relation.Int(lot)}
	}
	nullRow := []relation.Value{
		relation.Str("N"), relation.TypedNull(relation.TFloat), relation.TypedNull(relation.TInt),
	}
	mustAppend(delta.Row{TID: 1, New: row("DEC", 150, 10), TS: 1})
	mustAppend(delta.Row{TID: 2, New: nullRow, TS: 1})
	mustAppend(delta.Row{TID: 1, Old: row("DEC", 150, 10), New: row("DEC", 160, 10), TS: 2})
	mustAppend(delta.Row{TID: 2, Old: nullRow, TS: 3})

	w, ok := toWireColDelta(d)
	if !ok {
		t.Fatal("representable window reported unrepresentable")
	}
	// The wire form must survive the gob codec, not just the in-memory
	// struct.
	frames := encodeFrames(t, Response{ColDelta: w, Now: 3})
	recv := newCodec(&rwBuf{in: *bytes.NewBuffer(frames)})
	var resp Response
	if err := recv.recv(&resp); err != nil {
		t.Fatal(err)
	}
	got, err := fromWireColDelta(resp.ColDelta, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), d.Len())
	}
	for i, want := range d.Rows() {
		g := got.Rows()[i]
		if g.TID != want.TID || g.TS != want.TS || g.Kind() != want.Kind() {
			t.Fatalf("row %d: got %+v want %+v", i, g, want)
		}
		for c := range want.New {
			if !g.New[c].Equal(want.New[c]) {
				t.Fatalf("row %d new col %d: got %v want %v", i, c, g.New[c], want.New[c])
			}
		}
		for c := range want.Old {
			if !g.Old[c].Equal(want.Old[c]) {
				t.Fatalf("row %d old col %d: got %v want %v", i, c, g.Old[c], want.Old[c])
			}
		}
	}
}

// TestColDeltaUnrepresentable: a kind-drifted window does not fit the
// columnar form; the server answers such a window with a type error.
func TestColDeltaUnrepresentable(t *testing.T) {
	sc := colSchema(t)
	d := delta.New(sc)
	if err := d.Append(delta.Row{TID: 1, TS: 1, New: []relation.Value{
		relation.Str("DEC"), relation.Str("oops"), relation.Int(1),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := toWireColDelta(d); ok {
		t.Fatal("kind-drifted window must be unrepresentable")
	}
}

// TestColDeltaRejectsMalformedFrames: shape defects must error, never
// panic or misdecode.
func TestColDeltaRejectsMalformedFrames(t *testing.T) {
	sc := colSchema(t)
	base := func() *WireColDelta {
		return &WireColDelta{
			TIDs:  []uint64{1},
			Signs: []int8{1},
			TS:    []uint64{1},
			Cols: []WireCol{
				{Type: int(relation.TString), Str: []string{"DEC"}},
				{Type: int(relation.TFloat), F64: []float64{150}},
				{Type: int(relation.TInt), I64: []int64{10}},
			},
		}
	}
	cases := map[string]func(*WireColDelta){
		"sign length":    func(w *WireColDelta) { w.Signs = nil },
		"ts length":      func(w *WireColDelta) { w.TS = []uint64{1, 2} },
		"column count":   func(w *WireColDelta) { w.Cols = w.Cols[:2] },
		"column type":    func(w *WireColDelta) { w.Cols[1].Type = int(relation.TInt) },
		"payload length": func(w *WireColDelta) { w.Cols[0].Str = nil },
		"bad sign":       func(w *WireColDelta) { w.Signs[0] = 0 },
		"short bitmap":   func(w *WireColDelta) { w.Cols[0].Valid = []uint64{} },
		"unknown type": func(w *WireColDelta) {
			w.Cols[0].Type = 99
			w.Cols[0].Str = nil
		},
	}
	for name, breakIt := range cases {
		w := base()
		breakIt(w)
		if name == "short bitmap" {
			// An empty-but-non-nil bitmap means all-valid; use a 65-row
			// frame with a one-word bitmap instead.
			w = base()
			n := 65
			w.TIDs = make([]uint64, n)
			w.Signs = make([]int8, n)
			w.TS = make([]uint64, n)
			for i := range w.TIDs {
				w.TIDs[i] = uint64(i + 1)
				w.Signs[i] = 1
				w.TS[i] = uint64(i + 1)
			}
			w.Cols[0].Str = make([]string, n)
			w.Cols[1].F64 = make([]float64, n)
			w.Cols[2].I64 = make([]int64, n)
			w.Cols[0].Valid = []uint64{^uint64(0)} // needs 2 words for 65 rows
		}
		if _, err := fromWireColDelta(w, sc); err == nil {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
}

// FuzzColDelta throws arbitrary columnar frames at the decoder through
// the real codec: like FuzzCodecRecv it must error or decode cleanly,
// never panic. Well-formed frames additionally round-trip.
func FuzzColDelta(f *testing.F) {
	var seedT testing.T
	sc := colSchema(&seedT)
	d := delta.New(sc)
	_ = d.Append(delta.Row{TID: 1, TS: 1, New: []relation.Value{
		relation.Str("DEC"), relation.Float(150), relation.Int(10),
	}})
	if w, ok := toWireColDelta(d); ok {
		f.Add(encodeFrames(&seedT, Response{ColDelta: w}))
	}
	f.Add(encodeFrames(&seedT, Response{ColDelta: &WireColDelta{
		TIDs: []uint64{1}, Signs: []int8{2}, TS: []uint64{0},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newCodec(&rwBuf{in: *bytes.NewBuffer(data)})
		var resp Response
		if err := c.recv(&resp); err != nil {
			return
		}
		if resp.ColDelta == nil {
			return
		}
		got, err := fromWireColDelta(resp.ColDelta, sc)
		if err != nil {
			return
		}
		// Anything the decoder accepts must re-encode and decode to the
		// same window.
		w2, ok := toWireColDelta(got)
		if !ok {
			t.Fatal("accepted frame no longer representable")
		}
		got2, err := fromWireColDelta(w2, sc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got2.Len() != got.Len() {
			t.Fatalf("round trip changed row count: %d vs %d", got2.Len(), got.Len())
		}
	})
}

// TestClientDecodesColumnarWindow: end to end over a real connection,
// the client's DeltaSince must arrive through the columnar form and
// match what the server committed.
func TestClientDecodesColumnarWindow(t *testing.T) {
	store, _, c := startServer(t)

	t0 := store.Now()
	insertStock(t, store, "DEC", 150)

	d, _, err := c.DeltaSince("stocks", t0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Rows()[0].Kind() != delta.Insert {
		t.Fatalf("window = %v, want one insert", d.Rows())
	}
	if !d.Rows()[0].New[1].Equal(relation.Float(150)) {
		t.Fatalf("price = %v, want 150", d.Rows()[0].New[1])
	}
}
