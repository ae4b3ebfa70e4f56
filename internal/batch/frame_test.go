package batch

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// randFrameBatch builds a random batch of fewer than rows rows: signed
// rows with timestamps (a window), or an image — +1 rows, distinct
// tids, no timestamps.
func randFrameBatch(rng *rand.Rand, rows int, image bool) *Batch {
	schema := randSchema(rng)
	b := New(schema, 0)
	if !image {
		b.EnableTS()
	}
	base := relation.TID(rng.Uint64() >> uint(1+rng.Intn(63))) // of any width
	for i, n := 0, rng.Intn(rows); i < n; i++ {
		tid, sign := base+relation.TID(i), int8(1)
		if !image {
			tid, sign = relation.TID(rng.Intn(20)), int8(1-2*rng.Intn(2))
		}
		if !b.AppendRow(tid, sign, randRow(rng, schema)) {
			panic("a random row does not fit its schema")
		}
		if !image {
			b.TS[i] = vclock.Timestamp(rng.Uint64() >> uint(rng.Intn(64)))
		}
	}
	return b
}

func frameOf(b *Batch) []byte {
	e := &Enc{}
	e.Frame(b)
	return e.B
}

// decodeFrame decodes p as exactly one frame.
func decodeFrame(p []byte, image bool) (*Batch, error) {
	d := &Dec{B: p}
	b := d.Frame(image)
	if d.Err == nil && len(d.B) != 0 {
		d.failf("%d trailing bytes", len(d.B))
	}
	return b, d.Err
}

// sameRows compares two batches row by row: tid, sign, timestamp and
// every value, NULLs typed.
func sameRows(t *testing.T, got, want *Batch) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) || got.Len() != want.Len() || (got.TS == nil) != (want.TS == nil) {
		t.Fatalf("got %d rows of %v, want %d of %v", got.Len(), got.Schema, want.Len(), want.Schema)
	}
	gv, wv := make([]relation.Value, len(got.Cols)), make([]relation.Value, len(want.Cols))
	for i := 0; i < want.Len(); i++ {
		got.ReadRow(i, gv)
		want.ReadRow(i, wv)
		if got.TIDs[i] != want.TIDs[i] || got.Signs[i] != want.Signs[i] || (want.TS != nil && got.TS[i] != want.TS[i]) {
			t.Fatalf("row %d: tid/sign/ts %d/%d differ from %d/%d", i, got.TIDs[i], got.Signs[i], want.TIDs[i], want.Signs[i])
		}
		for c := range wv {
			if gv[c].Kind != wv[c].Kind || gv[c].Null != wv[c].Null || !gv[c].Null && !gv[c].Equal(wv[c]) {
				t.Fatalf("row %d col %d: got %v want %v", i, c, gv[c], wv[c])
			}
		}
	}
}

// Any batch decodes from its frame to the same rows, an image in image
// mode too; and every cut of the frame is refused.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		image := iter%2 == 0
		want := randFrameBatch(rng, 150, image)
		p := frameOf(want)
		got, err := decodeFrame(p, image)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		sameRows(t, got, want)
		if iter%25 == 0 {
			for cut := 0; cut < len(p); cut++ {
				if _, err := decodeFrame(p[:cut], false); !errors.Is(err, ErrMalformed) {
					t.Fatalf("iter %d: the frame cut at %d/%d decodes: %v", iter, cut, len(p), err)
				}
			}
		}
	}
}

// Image mode refuses what is not an image — a -1 row, timestamps, a
// repeated tid — which window mode reads.
func TestFrameRefusesImageDefects(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "a", Type: relation.TInt})
	row := []relation.Value{relation.Int(1)}
	defects := map[string]func(b *Batch){
		"deleted row": func(b *Batch) { b.AppendRow(1, -1, row) },
		"timestamps":  func(b *Batch) { b.EnableTS(); b.AppendRow(1, 1, row) },
		"repeated tid": func(b *Batch) {
			b.AppendRow(1, 1, row)
			b.AppendRow(2, 1, row)
			b.AppendRow(1, 1, row)
		},
	}
	for name, build := range defects {
		b := New(schema, 0)
		build(b)
		if _, err := decodeFrame(frameOf(b), true); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: image mode reads it (%v)", name, err)
		}
		if _, err := decodeFrame(frameOf(b), false); err != nil {
			t.Errorf("%s: window mode refuses it: %v", name, err)
		}
	}
	b := New(schema, 0)
	b.AppendRow(1, 0, row)
	if _, err := decodeFrame(frameOf(b), false); !errors.Is(err, ErrMalformed) {
		t.Errorf("a sign of 0 reads as %v", err)
	}
}

// FuzzFrame throws arbitrary bytes at the frame decoder: it must error
// or decode cleanly, never panic; what it reads encodes back to the
// same bytes; and image mode reads exactly the frames that are images.
func FuzzFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		f.Add(frameOf(randFrameBatch(rng, 6, i%2 == 0)))
	}
	schema := relation.MustSchema(relation.Column{Name: "s", Type: relation.TString}, relation.Column{Name: "b", Type: relation.TBool})
	dup := New(schema, 0)
	dup.AppendRow(3, 1, []relation.Value{relation.Str("x"), relation.TypedNull(relation.TBool)})
	dup.AppendRow(3, 1, []relation.Value{relation.Str("yy"), relation.Bool(true)})
	f.Add(frameOf(dup))
	f.Add(frameOf(New(schema, 0)))
	f.Add([]byte{})
	f.Add([]byte{1, 1, 'a', 99, 1, 0, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeFrame(data, false)
		img, ierr := decodeFrame(data, true)
		if err != nil {
			if ierr == nil {
				t.Fatal("image mode reads a frame window mode refuses")
			}
			return
		}
		image := b.TS == nil && !repeats(b.TIDs)
		for _, s := range b.Signs {
			image = image && s == 1
		}
		if image != (ierr == nil) {
			t.Fatalf("image mode: %v, for a frame that is an image: %v", ierr, image)
		}
		once := frameOf(b)
		again, err := decodeFrame(once, false)
		if err != nil {
			t.Fatalf("a decoded frame does not decode again: %v", err)
		}
		if !bytes.Equal(frameOf(again), once) {
			t.Fatal("a decoded frame decodes again different")
		}
		if img != nil && !bytes.Equal(frameOf(img), once) {
			t.Fatal("image mode decodes different rows")
		}
	})
}

// A frame's bytes depend on the rows alone, not on how the batch holds
// them: a bitmap with every row valid is not written, and the bits of
// a written one past the last row are clear. A checkpoint written twice
// from the same rows, through recycled batches or fresh ones, is the
// same file.
func TestFrameIsCanonical(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "a", Type: relation.TInt})
	build := func(valid []uint64, v relation.Value) []byte {
		b := New(schema, 0)
		b.Cols[0].Valid = valid
		b.AppendRow(1, 1, []relation.Value{v})
		return frameOf(b)
	}
	if a, b := build(nil, relation.Int(5)), build([]uint64{}, relation.Int(5)); !bytes.Equal(a, b) {
		t.Fatalf("an all-valid bitmap changes the frame: %x vs %x", a, b)
	}
	null := relation.TypedNull(relation.TInt)
	if a, b := build(nil, null), build([]uint64{^uint64(0)}, null); !bytes.Equal(a, b) {
		t.Fatalf("bits past the last row change the frame: %x vs %x", a, b)
	}
}
