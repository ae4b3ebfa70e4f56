package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// frameParts is a row-set frame taken apart, so that a test can break
// one part: bytes writes it in the frame's layout (batch.Enc.Frame)
// whatever the parts' lengths, each column's payload in full.
type frameParts struct {
	schema relation.Schema
	rows   int
	tids   []relation.TID
	signs  []int8
	ts     []vclock.Timestamp // nil: no timestamps
	cols   []batch.Col
}

func (f frameParts) bytes() []byte {
	e := &batch.Enc{}
	e.Schema(f.schema)
	e.Uvarint(uint64(f.rows))
	e.Bool(f.ts != nil)
	for _, tid := range f.tids {
		e.Uvarint(uint64(tid))
	}
	for _, s := range f.signs {
		e.Byte(byte(s))
	}
	for _, ts := range f.ts {
		e.Uvarint(uint64(ts))
	}
	for _, c := range f.cols {
		e.Bool(c.Valid != nil)
		for _, w := range c.Valid {
			e.B = binary.LittleEndian.AppendUint64(e.B, w)
		}
		for _, v := range c.I64 {
			e.B = binary.AppendVarint(e.B, v)
		}
		for _, v := range c.F64 {
			e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(v))
		}
		for _, s := range c.Str {
			e.Uvarint(uint64(len(s)))
		}
		for _, s := range c.Str {
			e.B = append(e.B, s...)
		}
		for _, v := range c.B {
			e.Bool(v)
		}
	}
	return e.B
}

// goodImage is a well-formed one-row image of stockSchema.
func goodImage() frameParts {
	return frameParts{
		schema: stockSchema(),
		rows:   1,
		tids:   []relation.TID{7},
		signs:  []int8{1},
		cols: []batch.Col{
			{Type: relation.TString, Str: []string{"DEC"}},
			{Type: relation.TFloat, F64: []float64{150}},
		},
	}
}

// goodBatch is goodImage as the batch it decodes to.
func goodBatch(t testing.TB) *batch.Batch {
	b := batch.New(stockSchema(), 1)
	if !b.AppendRow(7, 1, []relation.Value{relation.Str("DEC"), relation.Float(150)}) {
		t.Fatal("the good image does not fit its schema")
	}
	return b
}

// imageReply is the payload of a reply carrying the frame; a nil frame
// is a reply with no row set.
func imageReply(t testing.TB, frame []byte) []byte {
	e := &batch.Enc{}
	if err := (&Response{Now: 1}).appendTo(e); err != nil {
		t.Fatal(err)
	}
	if frame == nil {
		return e.B
	}
	e.B[len(e.B)-1] = 1 // the last byte flags the row set that follows
	return append(e.B, frame...)
}

// malformedRelations are snapshot and query images a faulty or hostile
// server can send, as frames (nil: no frame at all): each must be
// refused before any row is read.
func malformedRelations() map[string][]byte {
	broken := func(breakIt func(f *frameParts)) []byte {
		f := goodImage()
		breakIt(&f)
		return f.bytes()
	}
	return map[string][]byte{
		"nil relation": nil,
		"more tids":    broken(func(f *frameParts) { f.tids = append(f.tids, 8) }),
		"more rows":    broken(func(f *frameParts) { f.cols[1].F64 = append(f.cols[1].F64, 160) }),
		"short row":    broken(func(f *frameParts) { f.cols = f.cols[:1] }),
		"long row": broken(func(f *frameParts) {
			f.cols = append(f.cols, batch.Col{Type: relation.TInt, I64: []int64{1}})
		}),
		"nil row":           broken(func(f *frameParts) { f.cols[0].Str = nil }),
		"rows without tids": broken(func(f *frameParts) { f.rows, f.tids, f.signs = 0, nil, nil }),
		"deleted row":       broken(func(f *frameParts) { f.signs[0] = -1 }),
		"repeated tid": broken(func(f *frameParts) {
			f.rows, f.tids, f.signs = 2, append(f.tids, 7), append(f.signs, 1)
			f.cols[0].Str = append(f.cols[0].Str, "IBM")
			f.cols[1].F64 = append(f.cols[1].F64, 75)
		}),
	}
}

// TestMalformedRelationRejected: the image decoder refuses a missing
// frame, a row count its tids, signs and columns do not hold, columns
// the schema does not have, a row that is not an insertion and a tid
// that repeats, with an error wrapping errColDelta, and never panics.
func TestMalformedRelationRejected(t *testing.T) {
	for name, frame := range malformedRelations() {
		t.Run(name, func(t *testing.T) {
			resp, err := recvResponse(encodeRaw(imageReply(t, frame)), OpSnapshot)
			if err == nil {
				_, err = resp.rows()
			}
			if !errors.Is(err, errColDelta) {
				t.Fatalf("err = %v (image %v), want errColDelta", err, resp.Image)
			}
		})
	}
	resp, err := recvResponse(encodeRaw(imageReply(t, goodImage().bytes())), OpSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	tab := batch.TableOf(resp.Image)
	if tab.Len() != 1 || tab.Slot(7) < 0 {
		t.Fatalf("well-formed image: %v", tab)
	}
}

// encodeRaw frames a payload as the codec does.
func encodeRaw(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// scriptedServer answers every request on every connection with the
// reply payload.
func scriptedServer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				c := newCodec(conn)
				for {
					var req Request
					if c.recv(req.decode) != nil {
						return
					}
					if _, err := conn.Write(encodeRaw(reply)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientRejectsMalformedRelationReplies: Snapshot, Query and
// NewMirrorCQ against a server whose images are malformed return an
// error and keep the client process alive.
func TestClientRejectsMalformedRelationReplies(t *testing.T) {
	for name, frame := range malformedRelations() {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, imageReply(t, frame))
			client, err := DialPolicy(addr, testPolicy())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, _, err := client.Snapshot("stocks", Latest); !errors.Is(err, errColDelta) {
				t.Errorf("Snapshot: err = %v, want errColDelta", err)
			}
			if _, _, err := client.Query("SELECT * FROM stocks"); !errors.Is(err, errColDelta) {
				t.Errorf("Query: err = %v, want errColDelta", err)
			}
			if _, err := NewMirrorCQ(client, "SELECT * FROM stocks WHERE price > 1"); !errors.Is(err, errColDelta) {
				t.Errorf("NewMirrorCQ: err = %v, want errColDelta", err)
			}
		})
	}
}

// The frame layout frameParts writes is the encoder's.
func TestFramePartsMatchEncoder(t *testing.T) {
	e := &batch.Enc{}
	e.Frame(goodBatch(t))
	if got := goodImage().bytes(); !bytes.Equal(got, e.B) {
		t.Fatalf("frameParts writes %x, the encoder %x", got, e.B)
	}
}

// FuzzRelationReply throws arbitrary replies at the client's snapshot
// and query decoding (an image read into a slot table): it must error
// or decode cleanly, never panic, and what it accepts is a table of the
// image's schema holding every tid of the frame once, live.
func FuzzRelationReply(f *testing.F) {
	for _, frame := range malformedRelations() {
		f.Add(encodeRaw(imageReply(f, frame)))
	}
	f.Add(encodeRaw(imageReply(f, goodImage().bytes())))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := recvResponse(data, OpSnapshot)
		if err != nil {
			return
		}
		b, err := resp.rows()
		if err != nil {
			return
		}
		tids := append([]relation.TID(nil), b.TIDs...)
		tab := batch.TableOf(b)
		if tab.Len() != len(tids) || tab.Schema().Len() != b.Schema.Len() {
			t.Fatalf("accepted %d tids under %d columns as %d rows under %d", len(tids), b.Schema.Len(), tab.Len(), tab.Schema().Len())
		}
		for s, tid := range tids {
			if tab.Slot(tid) != int32(s) {
				t.Fatalf("tid %d of row %d is at slot %d", tid, s, tab.Slot(tid))
			}
		}
		_ = tab.Relation() // every accepted row renders
	})
}
