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
	"github.com/diorama/continual/internal/delta"
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
	OpSnapshot
	OpDeltaSince
	OpQuery
	OpNow
	OpApplyUpdates
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

// Request is one client request.
type Request struct {
	Op    Op
	Table string
	Since vclock.Timestamp
	Query string
	// Updates carries OpApplyUpdates rows (benchmark drivers push load
	// through the same connection).
	Updates []WireDeltaRow
}

// Response is one server reply. Exactly one payload field is set on
// success; Err is the error text otherwise.
type Response struct {
	Err string
	// TypeErr marks Err as the store's write-boundary refusal
	// (relation.ErrTypeMismatch), so the client's error keeps that
	// identity across the wire.
	TypeErr  bool
	Tables   []string
	Columns  []WireColumn
	Rel      *WireRelation
	ColDelta *WireColDelta // OpDeltaSince's window, the one wire form
	Now      vclock.Timestamp
	Stats    *obs.Snapshot
	Deps     []WireDep
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

// WireRelation is a materialized relation on the wire.
type WireRelation struct {
	Columns []WireColumn
	TIDs    []uint64
	Rows    [][]relation.Value
}

// WireDeltaRow mirrors delta.Row for the wire: the rows OpApplyUpdates
// carries.
type WireDeltaRow struct {
	TID uint64
	Old []relation.Value
	New []relation.Value
	TS  vclock.Timestamp
}

// WireColDelta is a differential window in ordered signed columnar
// form: one typed flat slice per column plus parallel TID, sign and
// commit-timestamp slices. Gob encodes a []float64 as raw numbers where
// []relation.Value ships a type tag and field per cell, so the columnar
// frame is both smaller on the wire and cheaper to encode — the same
// structure-of-arrays economics the in-process batch layout buys the
// refresh path. Pairing is positional, exactly as in the delta log: a
// -1 row immediately followed by a +1 row with the same TID and TS is a
// modification; a lone +1 inserts, a lone -1 deletes.
type WireColDelta struct {
	TIDs  []uint64
	Signs []int8
	TS    []uint64
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

// toWireColBatch flattens a window's ordered signed image (TS column
// set) into the columnar wire form, sharing its column payloads.
func toWireColBatch(b *batch.Batch) *WireColDelta {
	n := b.Len()
	out := &WireColDelta{
		TIDs:  make([]uint64, n),
		Signs: make([]int8, n),
		TS:    make([]uint64, n),
		Cols:  make([]WireCol, len(b.Cols)),
	}
	for i := 0; i < n; i++ {
		out.TIDs[i] = uint64(b.TIDs[i])
		out.Signs[i] = b.Signs[i]
		out.TS[i] = uint64(b.TS[i])
	}
	for c := range b.Cols {
		col := &b.Cols[c]
		wc := &out.Cols[c]
		wc.Type = int(col.Type)
		wc.Valid = col.Valid
		switch col.Type {
		case relation.TInt:
			wc.I64 = col.I64
		case relation.TFloat:
			wc.F64 = col.F64
		case relation.TString:
			wc.Str = col.Str
		case relation.TBool:
			wc.B = col.B
		}
	}
	return out
}

// errColDelta reports a malformed columnar frame. Every shape defect is
// detected before any row is materialized, so a hostile or corrupted
// frame surfaces as an error, never a panic or misdecoded delta.
var errColDelta = errors.New("remote: malformed columnar delta")

// fromWireColDelta reconstructs the differential window on a schema,
// validating the frame's shape strictly, then adopts its columns into a
// batch and reads the rows off it (batch.Batch.ToDeltaOrdered).
func fromWireColDelta(w *WireColDelta, schema relation.Schema) (*delta.Delta, error) {
	n := len(w.TIDs)
	if len(w.Signs) != n || len(w.TS) != n {
		return nil, fmt.Errorf("%w: %d tids, %d signs, %d ts", errColDelta, n, len(w.Signs), len(w.TS))
	}
	if len(w.Cols) != schema.Len() {
		return nil, fmt.Errorf("%w: %d columns, schema has %d", errColDelta, len(w.Cols), schema.Len())
	}
	cols := make([]batch.Col, len(w.Cols))
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
		if len(wc.Valid) != 0 && len(wc.Valid) < (n+63)/64 {
			return nil, fmt.Errorf("%w: column %d bitmap too short", errColDelta, c)
		}
		cols[c] = batch.Col{Type: want, I64: wc.I64, F64: wc.F64, Str: wc.Str, B: wc.B}
		if len(wc.Valid) != 0 {
			cols[c].Valid = wc.Valid
		}
	}
	tids, ts := make([]relation.TID, n), make([]vclock.Timestamp, n)
	for i := 0; i < n; i++ {
		if w.Signs[i] != 1 && w.Signs[i] != -1 {
			return nil, fmt.Errorf("%w: sign[%d] = %d", errColDelta, i, w.Signs[i])
		}
		tids[i], ts[i] = relation.TID(w.TIDs[i]), vclock.Timestamp(w.TS[i])
	}
	d, err := batch.Adopt(schema, tids, w.Signs, ts, cols).ToDeltaOrdered()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errColDelta, err)
	}
	return d, nil
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

// toWireRelation converts a relation.
func toWireRelation(r *relation.Relation) *WireRelation {
	out := &WireRelation{
		Columns: toWireSchema(r.Schema()),
		TIDs:    make([]uint64, 0, r.Len()),
		Rows:    make([][]relation.Value, 0, r.Len()),
	}
	for _, t := range r.Tuples() {
		out.TIDs = append(out.TIDs, uint64(t.TID))
		out.Rows = append(out.Rows, t.Values)
	}
	return out
}

// errRelation reports a malformed snapshot or query reply. As for a
// columnar frame, every shape defect is detected before any row is
// built.
var errRelation = errors.New("remote: malformed relation")

// fromWireRelation converts back, validating the payload's shape first:
// present, one row per tid, each row as wide as the schema.
func fromWireRelation(w *WireRelation) (*relation.Relation, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: reply carries no relation", errRelation)
	}
	schema, err := fromWireSchema(w.Columns)
	if err != nil {
		return nil, err
	}
	if len(w.Rows) != len(w.TIDs) {
		return nil, fmt.Errorf("%w: %d tids, %d rows", errRelation, len(w.TIDs), len(w.Rows))
	}
	for i, row := range w.Rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("%w: row %d has %d values, schema has %d columns", errRelation, i, len(row), schema.Len())
		}
	}
	out := relation.NewSized(schema, len(w.TIDs))
	for i, tid := range w.TIDs {
		if err := out.Insert(relation.Tuple{TID: relation.TID(tid), Values: w.Rows[i]}); err != nil {
			return nil, err
		}
	}
	return out, nil
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
func errResponse(err error) Response {
	return Response{Err: err.Error(), TypeErr: errors.Is(err, relation.ErrTypeMismatch)}
}

// typeError is a server-side relation.ErrTypeMismatch as the client sees
// it: the server's text, the sentinel's identity.
type typeError string

func (e typeError) Error() string        { return string(e) }
func (e typeError) Is(target error) bool { return target == relation.ErrTypeMismatch }

// asError converts a reply's Err field.
func (r Response) asError() error {
	switch {
	case r.Err == "":
		return nil
	case r.TypeErr:
		return fmt.Errorf("remote: server: %w", typeError(r.Err))
	}
	return fmt.Errorf("remote: server: %s", r.Err)
}
