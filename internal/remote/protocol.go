// Package remote implements the client/server split of the system: a TCP
// server exposing information sources (snapshots, delta windows and
// server-side query execution) and a client that evaluates continual
// queries locally against shipped deltas.
//
// The split realizes the strawman performance arguments of Section 5.1:
// "caching the results on the client side makes the servers more scalable
// with respect to the number of clients" and "if the volume of relevant
// updates is smaller than the results ... we are further reducing the
// network traffic". Both sides count bytes on the wire so the benchmark
// harness can report delta shipping vs full-result shipping.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Op identifies a request type.
type Op int

// Request operations.
const (
	OpListTables Op = iota + 1
	OpSchema
	// OpSnapshot fetches a table's image as of Until (Store.TableImage).
	OpSnapshot
	// OpDeltaSince fetches a table's window (Since, Until]
	// (Store.WindowImage), compacted when Compact is set.
	OpDeltaSince
	// OpQuery executes a SELECT on the server and ships its result.
	OpQuery
	OpNow
	// OpStats fetches the server's metrics snapshot (the same view cqd
	// serves over HTTP at /stats); `cqctl stats` renders it.
	OpStats
	// OpCheckpoint asks a durably-backed server to take a checkpoint
	// now (snapshot base relations + CQ registry and truncate the WAL
	// replay horizon). Idempotent, so safe to retry; servers without a
	// durable store refuse it.
	OpCheckpoint
	// OpDeps fetches the cascade dependency DAG — every registered CQ
	// with its source tables, INTO target and topological refresh stage
	// (`cqctl deps` renders it).
	OpDeps
)

// Latest is the Until of a request for the server's current state:
// every bound is clamped to the server's clock.
const Latest = vclock.Timestamp(math.MaxUint64)

// Request is one client request. Every op only reads, so any request
// may be re-sent after a connection failure.
type Request struct {
	Op    Op
	Table string
	// Since and Until bound a window (Since, Until]; Until alone is a
	// snapshot's timestamp. The server clamps Until to its clock and
	// answers with the bound it used (Response.Now).
	Since, Until vclock.Timestamp
	// Compact asks for a window folded to its net per-tid effect.
	Compact bool
	Query   string
}

// Response is one server reply. Exactly one payload field is set on
// success — Columns and Image together for a row set — and Err is the
// error text otherwise.
type Response struct {
	Err     string
	Tables  []string
	Columns []WireColumn
	// Image is every row set the server sends: a window, a snapshot or a
	// query result, with Columns its schema.
	Image *WireColDelta
	Now   vclock.Timestamp
	Stats *obs.Snapshot
	Deps  []WireDep
}

// WireDep is one cascade DAG node on the wire (OpDeps).
type WireDep struct {
	CQ      string
	Sources []string
	Target  string
	Stage   int
}

// WireColumn mirrors relation.Column for the wire.
type WireColumn struct {
	Name string
	Type int
}

// WireColDelta is a row set in ordered signed columnar form: one typed
// flat slice per column plus parallel TID, sign and (for a window)
// commit-timestamp slices. Gob encodes a []float64 as raw numbers where
// []relation.Value ships a type tag and field per cell, so the columnar
// frame is both smaller on the wire and cheaper to encode — the same
// structure-of-arrays economics the in-process batch layout buys the
// refresh path. A window pairs positionally, exactly as in the delta
// log: a -1 row immediately followed by a +1 row with the same TID is a
// modification; a lone +1 inserts, a lone -1 deletes. A snapshot or a
// query result is all +1 rows, each tid once, and carries no TS.
type WireColDelta struct {
	TIDs  []relation.TID
	Signs []int8
	TS    []vclock.Timestamp
	Cols  []WireCol
}

// WireCol is one typed column of a WireColDelta. Exactly one payload
// slice is in use, selected by Type, with one element per row. Valid is
// the validity bitmap (bit i set means row i is non-NULL); empty means
// every row is valid, and NULL rows hold zero-value placeholders.
type WireCol struct {
	Type  int
	I64   []int64
	F64   []float64
	Str   []string
	B     []bool
	Valid []uint64
}

// toWire flattens a batch into the columnar wire form, sharing its
// slices.
func toWire(b *batch.Batch) *WireColDelta {
	n := b.Len()
	out := &WireColDelta{TIDs: b.TIDs[:n], Signs: b.Signs[:n], Cols: make([]WireCol, len(b.Cols))}
	if b.TS != nil {
		out.TS = b.TS[:n]
	}
	for c := range b.Cols {
		col := &b.Cols[c]
		out.Cols[c] = WireCol{Type: int(col.Type), I64: col.I64, F64: col.F64, Str: col.Str, B: col.B, Valid: col.Valid}
	}
	return out
}

// errColDelta reports a malformed columnar frame. Every shape defect is
// detected before any row is read, so a hostile or corrupted frame
// surfaces as an error, never a panic or misdecoded rows.
var errColDelta = errors.New("remote: malformed columnar frame")

// fromWire adopts a frame's columns as a batch on the schema its reply
// carries, validating the frame's shape strictly first: one sign (and,
// when present, one timestamp) per tid, every sign ±1, and every column
// of the schema's type with one value per row.
func fromWire(w *WireColDelta, cols []WireColumn) (*batch.Batch, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: reply carries no rows", errColDelta)
	}
	schema, err := fromWireSchema(cols)
	if err != nil {
		return nil, err
	}
	n := len(w.TIDs)
	if len(w.Signs) != n || (len(w.TS) != n && len(w.TS) != 0) {
		return nil, fmt.Errorf("%w: %d tids, %d signs, %d ts", errColDelta, n, len(w.Signs), len(w.TS))
	}
	if len(w.Cols) != schema.Len() {
		return nil, fmt.Errorf("%w: %d columns, schema has %d", errColDelta, len(w.Cols), schema.Len())
	}
	for i, sign := range w.Signs {
		if sign != 1 && sign != -1 {
			return nil, fmt.Errorf("%w: sign[%d] = %d", errColDelta, i, sign)
		}
	}
	out := make([]batch.Col, len(w.Cols))
	for c := range w.Cols {
		wc := &w.Cols[c]
		want := schema.Col(c).Type
		if wc.Type != int(want) {
			return nil, fmt.Errorf("%w: column %d type %d, schema says %d", errColDelta, c, wc.Type, want)
		}
		var have int
		switch want {
		case relation.TInt:
			have = len(wc.I64)
		case relation.TFloat:
			have = len(wc.F64)
		case relation.TString:
			have = len(wc.Str)
		case relation.TBool:
			have = len(wc.B)
		default:
			return nil, fmt.Errorf("%w: column %d has unknown type %d", errColDelta, c, wc.Type)
		}
		if have != n {
			return nil, fmt.Errorf("%w: column %d has %d rows, want %d", errColDelta, c, have, n)
		}
		out[c] = batch.Col{Type: want, I64: wc.I64, F64: wc.F64, Str: wc.Str, B: wc.B}
		if len(wc.Valid) != 0 {
			words := (n + 63) / 64
			if len(wc.Valid) < words {
				return nil, fmt.Errorf("%w: column %d bitmap too short", errColDelta, c)
			}
			out[c].Valid = wc.Valid[:words]
		}
	}
	var ts []vclock.Timestamp
	if len(w.TS) != 0 {
		ts = w.TS
	}
	return batch.Adopt(schema, w.TIDs, w.Signs, ts, out), nil
}

// tableFromWire adopts a snapshot or query frame as a slot table. Its
// rows must be what batch.TableOf takes — every sign +1, each tid once —
// and a frame that is not is refused before the table adopts it.
func tableFromWire(w *WireColDelta, cols []WireColumn) (*batch.Table, error) {
	b, err := fromWire(w, cols)
	if err != nil {
		return nil, err
	}
	seen := make(map[relation.TID]struct{}, b.Len())
	for i, tid := range b.TIDs {
		if b.Signs[i] != 1 {
			return nil, fmt.Errorf("%w: row %d of an image has sign %d", errColDelta, i, b.Signs[i])
		}
		if _, dup := seen[tid]; dup {
			return nil, fmt.Errorf("%w: tid %d repeats in an image", errColDelta, tid)
		}
		seen[tid] = struct{}{}
	}
	b.TS = nil
	return batch.TableOf(b), nil
}

// toWireSchema converts a schema.
func toWireSchema(s relation.Schema) []WireColumn {
	out := make([]WireColumn, s.Len())
	for i := 0; i < s.Len(); i++ {
		c := s.Col(i)
		out[i] = WireColumn{Name: c.Name, Type: int(c.Type)}
	}
	return out
}

// fromWireSchema converts back.
func fromWireSchema(cols []WireColumn) (relation.Schema, error) {
	rc := make([]relation.Column, len(cols))
	for i, c := range cols {
		if c.Type < 0 || c.Type > math.MaxUint8 {
			return relation.Schema{}, fmt.Errorf("remote: column %q has type %d out of range", c.Name, c.Type)
		}
		rc[i] = relation.Column{Name: c.Name, Type: relation.Type(c.Type)}
	}
	return relation.NewSchema(rc...)
}

// countingConn wraps a stream with transfer counters.
type countingConn struct {
	rw    io.ReadWriter
	read  atomic.Int64
	wrote atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

// maxFrame bounds a single protocol message. The length prefix is
// validated against it before any allocation, so a peer sending a
// garbage or hostile prefix cannot make the other side allocate
// gigabytes or stall reading a frame that never ends.
const maxFrame = 64 << 20 // 64 MiB

// errFrameTooLarge reports a length prefix beyond maxFrame.
var errFrameTooLarge = errors.New("remote: frame exceeds size limit")

// codec is the framed wire format: each message is a 4-byte big-endian
// length prefix followed by that many bytes of gob payload. The gob
// encoder/decoder pair persists for the life of the connection (type
// descriptors ship once), but framing means a receive error leaves the
// stream at a known boundary and is detectable: truncated frames,
// trailing garbage inside a frame, and oversized prefixes all surface
// as errors instead of silently desyncing later messages. After any
// codec error the connection must be discarded — the owner marks it
// broken and reconnects with a fresh codec.
type codec struct {
	conn   *countingConn
	enc    *gob.Encoder
	encBuf bytes.Buffer // staging area: gob payload of the frame being sent
	dec    *gob.Decoder
	decBuf bytes.Buffer // staging area: gob payload of the frame being decoded
	hdr    [4]byte
}

func newCodec(rw io.ReadWriter) *codec {
	c := &codec{conn: &countingConn{rw: rw}}
	c.enc = gob.NewEncoder(&c.encBuf)
	c.dec = gob.NewDecoder(&c.decBuf)
	return c
}

func (c *codec) send(v any) error {
	c.encBuf.Reset()
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	n := c.encBuf.Len()
	if n > maxFrame {
		return fmt.Errorf("%w: encoding %d bytes", errFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(c.hdr[:], uint32(n))
	if _, err := c.conn.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.conn.Write(c.encBuf.Bytes())
	return err
}

func (c *codec) recv(v any) error {
	if _, err := io.ReadFull(c.conn, c.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > maxFrame {
		return fmt.Errorf("%w: prefix claims %d bytes", errFrameTooLarge, n)
	}
	c.decBuf.Reset()
	if _, err := io.CopyN(&c.decBuf, c.conn, int64(n)); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if err := c.dec.Decode(v); err != nil {
		return fmt.Errorf("remote: decode frame: %w", err)
	}
	// One Encode call produced exactly this frame; a non-empty remainder
	// means the stream is desynced or the frame was corrupted.
	if left := c.decBuf.Len(); left != 0 {
		return fmt.Errorf("remote: frame desync: %d trailing bytes", left)
	}
	return nil
}

func (c *codec) bytesRead() int64    { return c.conn.read.Load() }
func (c *codec) bytesWritten() int64 { return c.conn.wrote.Load() }

// errResponse builds an error reply.
func errResponse(err error) Response { return Response{Err: err.Error()} }

// asError converts a reply's Err field.
func (r Response) asError() error {
	if r.Err == "" {
		return nil
	}
	return fmt.Errorf("remote: server: %s", r.Err)
}
