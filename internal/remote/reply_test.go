package remote

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"github.com/diorama/continual/internal/relation"
)

// goodImage is a well-formed one-row image of stockSchema.
func goodImage() *WireColDelta {
	return &WireColDelta{
		TIDs:  []relation.TID{7},
		Signs: []int8{1},
		Cols: []WireCol{
			{Type: int(relation.TString), Str: []string{"DEC"}},
			{Type: int(relation.TFloat), F64: []float64{150}},
		},
	}
}

// malformedRelations are snapshot and query images a faulty or hostile
// server can send: each must be refused before any row is read.
func malformedRelations() map[string]*WireColDelta {
	broken := func(breakIt func(w *WireColDelta)) *WireColDelta {
		w := goodImage()
		breakIt(w)
		return w
	}
	return map[string]*WireColDelta{
		"nil relation": nil,
		"more tids":    broken(func(w *WireColDelta) { w.TIDs = append(w.TIDs, 8) }),
		"more rows":    broken(func(w *WireColDelta) { w.Cols[1].F64 = append(w.Cols[1].F64, 160) }),
		"short row":    broken(func(w *WireColDelta) { w.Cols = w.Cols[:1] }),
		"long row": broken(func(w *WireColDelta) {
			w.Cols = append(w.Cols, WireCol{Type: int(relation.TInt), I64: []int64{1}})
		}),
		"nil row":           broken(func(w *WireColDelta) { w.Cols[0].Str = nil }),
		"rows without tids": broken(func(w *WireColDelta) { w.TIDs, w.Signs = nil, nil }),
		"deleted row":       broken(func(w *WireColDelta) { w.Signs[0] = -1 }),
		"repeated tid": broken(func(w *WireColDelta) {
			w.TIDs, w.Signs = append(w.TIDs, 7), append(w.Signs, 1)
			w.Cols[0].Str = append(w.Cols[0].Str, "IBM")
			w.Cols[1].F64 = append(w.Cols[1].F64, 75)
		}),
	}
}

// TestMalformedRelationRejected: the image decoder refuses a missing
// payload, tids, signs and columns of mismatched lengths, columns the
// schema does not have, a row that is not an insertion and a tid that
// repeats, with an error wrapping errColDelta, and never panics.
func TestMalformedRelationRejected(t *testing.T) {
	cols := toWireSchema(stockSchema())
	for name, w := range malformedRelations() {
		t.Run(name, func(t *testing.T) {
			tab, err := tableFromWire(w, cols)
			if !errors.Is(err, errColDelta) {
				t.Fatalf("err = %v (table %v), want errColDelta", err, tab)
			}
		})
	}
	tab, err := tableFromWire(goodImage(), cols)
	if err != nil || tab.Len() != 1 || tab.Slot(7) < 0 {
		t.Fatalf("well-formed image: %v, %v", tab, err)
	}
}

// scriptedServer answers every request on every connection with reply.
func scriptedServer(t *testing.T, reply Response) string {
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
					if c.recv(&req) != nil || c.send(reply) != nil {
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
	for name, w := range malformedRelations() {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, Response{Columns: toWireSchema(stockSchema()), Image: w, Now: 1})
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

// FuzzRelationReply throws arbitrary reply frames at the client's
// snapshot and query decoding (tableFromWire): it must error or decode
// cleanly, never panic, and what it accepts is a table of the reply's
// schema holding every tid of the frame once, live.
func FuzzRelationReply(f *testing.F) {
	var seedT testing.T
	cols := toWireSchema(stockSchema())
	for _, w := range malformedRelations() {
		f.Add(encodeFrames(&seedT, Response{Columns: cols, Image: w}))
	}
	f.Add(encodeFrames(&seedT, Response{Columns: cols, Image: goodImage()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newCodec(&rwBuf{in: *bytes.NewBuffer(data)})
		var resp Response
		if err := c.recv(&resp); err != nil {
			return
		}
		tab, err := tableFromWire(resp.Image, resp.Columns)
		if err != nil {
			return
		}
		if tab.Len() != len(resp.Image.TIDs) || tab.Schema().Len() != len(resp.Columns) {
			t.Fatalf("accepted %d tids under %d columns as %d rows under %d", len(resp.Image.TIDs), len(resp.Columns), tab.Len(), tab.Schema().Len())
		}
		for s, tid := range resp.Image.TIDs {
			if tab.Slot(tid) != int32(s) {
				t.Fatalf("tid %d of row %d is at slot %d", tid, s, tab.Slot(tid))
			}
		}
		_ = tab.Relation() // every accepted row renders
	})
}
