package remote

import (
	"errors"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
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

	b, ok := batch.FromDelta(nil, d)
	if !ok {
		t.Fatal("representable window reported unrepresentable")
	}
	// The wire form must survive the codec, not just the in-memory
	// struct.
	resp, err := recvResponse(encodeFrames(t, &Response{Image: b, Now: 3}), OpDeltaSince)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp.Image.ToDeltaOrdered()
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
	if _, ok := batch.FromDelta(nil, d); ok {
		t.Fatal("kind-drifted window must be unrepresentable")
	}
}

// TestColDeltaRejectsMalformedFrames: shape defects of a window frame
// must error, never panic or misdecode.
func TestColDeltaRejectsMalformedFrames(t *testing.T) {
	base := func() frameParts {
		return frameParts{
			schema: colSchema(t),
			rows:   1,
			tids:   []relation.TID{1},
			signs:  []int8{1},
			ts:     []vclock.Timestamp{1},
			cols: []batch.Col{
				{Type: relation.TString, Str: []string{"DEC"}},
				{Type: relation.TFloat, F64: []float64{150}},
				{Type: relation.TInt, I64: []int64{10}},
			},
		}
	}
	cases := map[string]func(*frameParts){
		"sign length":    func(f *frameParts) { f.signs = nil },
		"ts length":      func(f *frameParts) { f.ts = []vclock.Timestamp{1, 2} },
		"column count":   func(f *frameParts) { f.cols = f.cols[:2] },
		"column type":    func(f *frameParts) { f.cols[1] = batch.Col{Type: relation.TInt, I64: []int64{150}} },
		"payload length": func(f *frameParts) { f.cols[0].Str = nil },
		"bad sign":       func(f *frameParts) { f.signs[0] = 0 },
		"short bitmap":   func(f *frameParts) { f.cols[0].Valid = []uint64{} },
		"unknown type": func(f *frameParts) {
			f.schema = relation.MustSchema(relation.Column{Name: "x", Type: 99})
			f.cols = f.cols[:1]
		},
	}
	if _, err := recvResponse(encodeRaw(imageReply(t, base().bytes())), OpDeltaSince); err != nil {
		t.Fatalf("the base frame: %v", err)
	}
	for name, breakIt := range cases {
		f := base()
		breakIt(&f)
		if _, err := recvResponse(encodeRaw(imageReply(t, f.bytes())), OpDeltaSince); !errors.Is(err, errColDelta) {
			t.Errorf("%s: malformed frame decoded with %v", name, err)
		}
	}
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

// FuzzColDelta throws arbitrary window replies at the client's decoding
// (what DeltaSince reads): like FuzzCodecRecv it must error or decode
// cleanly, never panic. A window it accepts in row form round-trips
// through the columnar form to the same rows.
func FuzzColDelta(f *testing.F) {
	var seedT testing.T
	sc := colSchema(&seedT)
	d := delta.New(sc)
	_ = d.Append(delta.Row{TID: 1, TS: 1, New: []relation.Value{
		relation.Str("DEC"), relation.Float(150), relation.Int(10),
	}})
	if b, ok := batch.FromDelta(nil, d); ok {
		f.Add(encodeFrames(&seedT, &Response{Image: b, Now: 1}))
	}
	f.Add(encodeRaw(imageReply(f, frameParts{
		schema: sc, rows: 1, tids: []relation.TID{1}, signs: []int8{2}, ts: []vclock.Timestamp{0},
		cols: []batch.Col{
			{Type: relation.TString, Str: []string{"DEC"}},
			{Type: relation.TFloat, F64: []float64{150}},
			{Type: relation.TInt, I64: []int64{10}},
		},
	}.bytes())))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := recvResponse(data, OpDeltaSince)
		if err != nil || resp.Image == nil {
			return
		}
		got, err := resp.Image.ToDeltaOrdered()
		if err != nil {
			return
		}
		// Anything the decoder accepts must re-encode and decode to the
		// same window.
		b, ok := batch.FromDelta(nil, got)
		if !ok {
			t.Fatal("accepted window no longer representable")
		}
		again, err := recvResponse(encodeFrames(t, &Response{Image: b}), OpDeltaSince)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		got2, err := again.Image.ToDeltaOrdered()
		if err != nil {
			t.Fatalf("re-decoded window has no row form: %v", err)
		}
		if got2.Len() != got.Len() {
			t.Fatalf("round trip changed row count: %d vs %d", got2.Len(), got.Len())
		}
	})
}
