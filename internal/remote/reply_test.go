package remote

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"github.com/diorama/continual/internal/relation"
)

// malformedRelations are snapshot and query payloads a faulty or hostile
// server can send: each must be refused before any row is built.
func malformedRelations() map[string]*WireRelation {
	cols := toWireSchema(stockSchema())
	row := []relation.Value{relation.Str("DEC"), relation.Float(150)}
	return map[string]*WireRelation{
		"nil relation":      nil,
		"more tids":         {Columns: cols, TIDs: []uint64{1, 2}, Rows: [][]relation.Value{row}},
		"more rows":         {Columns: cols, TIDs: []uint64{1}, Rows: [][]relation.Value{row, row}},
		"short row":         {Columns: cols, TIDs: []uint64{1}, Rows: [][]relation.Value{row[:1]}},
		"long row":          {Columns: cols, TIDs: []uint64{1}, Rows: [][]relation.Value{append(row, relation.Int(1))}},
		"nil row":           {Columns: cols, TIDs: []uint64{1}, Rows: [][]relation.Value{nil}},
		"rows without tids": {Columns: cols, Rows: [][]relation.Value{row}},
	}
}

// TestMalformedRelationRejected: the decoder refuses a missing payload,
// a TIDs/Rows length mismatch and rows of the wrong width with an error
// wrapping errRelation, and never panics.
func TestMalformedRelationRejected(t *testing.T) {
	for name, w := range malformedRelations() {
		t.Run(name, func(t *testing.T) {
			rel, err := fromWireRelation(w)
			if !errors.Is(err, errRelation) {
				t.Fatalf("err = %v (relation %v), want errRelation", err, rel)
			}
		})
	}
	ok := &WireRelation{
		Columns: toWireSchema(stockSchema()),
		TIDs:    []uint64{7},
		Rows:    [][]relation.Value{{relation.Str("DEC"), relation.Float(150)}},
	}
	rel, err := fromWireRelation(ok)
	if err != nil || rel.Len() != 1 {
		t.Fatalf("well-formed relation: %v, %v", rel, err)
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
// NewMirrorCQ against a server whose relation payloads are malformed
// return an error and keep the client process alive.
func TestClientRejectsMalformedRelationReplies(t *testing.T) {
	for name, w := range malformedRelations() {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, Response{Columns: toWireSchema(stockSchema()), Rel: w, Now: 1})
			client, err := DialPolicy(addr, testPolicy())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, _, err := client.Snapshot("stocks"); !errors.Is(err, errRelation) {
				t.Errorf("Snapshot: err = %v, want errRelation", err)
			}
			if _, _, err := client.Query("SELECT * FROM stocks"); !errors.Is(err, errRelation) {
				t.Errorf("Query: err = %v, want errRelation", err)
			}
			if _, err := NewMirrorCQ(client, "SELECT * FROM stocks WHERE price > 1"); !errors.Is(err, errRelation) {
				t.Errorf("NewMirrorCQ: err = %v, want errRelation", err)
			}
		})
	}
}

// FuzzRelationReply throws arbitrary reply frames at the client's
// snapshot and query decoding: it must error or decode cleanly, never
// panic, and what it accepts holds one row per tid, each as wide as the
// schema.
func FuzzRelationReply(f *testing.F) {
	var seedT testing.T
	for _, w := range malformedRelations() {
		f.Add(encodeFrames(&seedT, Response{Rel: w}))
	}
	f.Add(encodeFrames(&seedT, Response{Rel: &WireRelation{
		Columns: toWireSchema(stockSchema()),
		TIDs:    []uint64{1},
		Rows:    [][]relation.Value{{relation.Str("DEC"), relation.Float(150)}},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newCodec(&rwBuf{in: *bytes.NewBuffer(data)})
		var resp Response
		if err := c.recv(&resp); err != nil {
			return
		}
		rel, err := fromWireRelation(resp.Rel)
		if err != nil {
			return
		}
		if rel.Len() != len(resp.Rel.TIDs) {
			t.Fatalf("accepted %d tids as %d rows", len(resp.Rel.TIDs), rel.Len())
		}
		for _, tu := range rel.Tuples() {
			if len(tu.Values) != rel.Schema().Len() {
				t.Fatalf("accepted a row of %d values under %d columns", len(tu.Values), rel.Schema().Len())
			}
		}
	})
}
