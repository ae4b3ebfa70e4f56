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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/obs"
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

func (r *Request) appendTo(e *batch.Enc) error {
	e.Uvarint(uint64(r.Op))
	e.Str(r.Table)
	e.Uvarint(uint64(r.Since))
	e.Uvarint(uint64(r.Until))
	e.Bool(r.Compact)
	e.Str(r.Query)
	return nil
}

func (r *Request) decode(d *batch.Dec) {
	r.Op = Op(d.Uvarint())
	r.Table = d.Str()
	r.Since = vclock.Timestamp(d.Uvarint())
	r.Until = vclock.Timestamp(d.Uvarint())
	r.Compact = d.Bool()
	r.Query = d.Str()
}

// Response is one server reply. Exactly one payload field is set on
// success, and Err is the error text otherwise.
type Response struct {
	Err    string
	Tables []string
	// Image is every row set the server sends, as one frame
	// (batch.Enc.Frame) that carries its schema: a window, a snapshot, a
	// query result, or — with no rows — a table's schema.
	Image *batch.Batch
	Now   vclock.Timestamp
	// Stats travels as the JSON /stats serves.
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

// meta is the small, rare part of a reply as one JSON document: table
// names, the metrics snapshot (the JSON /stats serves) and the cascade
// DAG. A reply holding none of them carries none.
type meta struct {
	Tables []string      `json:"tables,omitempty"`
	Stats  *obs.Snapshot `json:"stats,omitempty"`
	Deps   []WireDep     `json:"deps,omitempty"`
}

func (r *Response) appendTo(e *batch.Enc) error {
	e.Str(r.Err)
	e.Uvarint(uint64(r.Now))
	var js []byte
	if len(r.Tables) != 0 || r.Stats != nil || len(r.Deps) != 0 {
		var err error
		if js, err = json.Marshal(meta{r.Tables, r.Stats, r.Deps}); err != nil {
			return err
		}
	}
	e.Bytes(js)
	e.Bool(r.Image != nil)
	if r.Image != nil {
		e.Frame(r.Image)
	}
	return nil
}

// decode reads a reply whose row set, if any, must be an image
// (batch.Dec.Frame) unless it answers OpDeltaSince.
func (r *Response) decode(d *batch.Dec, op Op) {
	r.Err = d.Str()
	r.Now = vclock.Timestamp(d.Uvarint())
	if js := d.Bytes(); len(js) != 0 {
		var m meta
		if err := json.Unmarshal(js, &m); err != nil {
			d.Fail(fmt.Errorf("remote: reply: %w", err))
		}
		r.Tables, r.Stats, r.Deps = m.Tables, m.Stats, m.Deps
	}
	if d.Bool() {
		// The frame ends the reply: bytes after it are the frame's.
		if r.Image = d.Frame(op != OpDeltaSince); d.Err == nil && len(d.B) != 0 {
			d.Fail(fmt.Errorf("%w: %d bytes past the frame", batch.ErrMalformed, len(d.B)))
		}
		if d.Err != nil {
			d.Err = fmt.Errorf("%w: %w", errColDelta, d.Err)
		}
	}
}

// errColDelta reports a malformed row-set frame, or a reply that lacks
// the one its request asks for: a hostile or corrupted frame surfaces
// as an error, never a panic or misdecoded rows.
var errColDelta = errors.New("remote: malformed columnar frame")

// rows is the reply's row set.
func (r *Response) rows() (*batch.Batch, error) {
	if r.Image == nil {
		return nil, fmt.Errorf("%w: reply carries no rows", errColDelta)
	}
	return r.Image, nil
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
// length prefix followed by that many bytes of a hand-encoded Request
// or Response (batch.Enc). Framing means a receive error leaves the
// stream at a known boundary and is detectable: truncated frames,
// trailing garbage inside a frame, and oversized prefixes all surface
// as errors instead of silently desyncing later messages. After any
// codec error the connection must be discarded — the owner marks it
// broken and reconnects with a fresh codec.
type codec struct {
	conn *countingConn
	out  batch.Enc // the frame being sent, length prefix first
	in   []byte    // the payload of the frame being decoded
	hdr  [4]byte
}

func newCodec(rw io.ReadWriter) *codec { return &codec{conn: &countingConn{rw: rw}} }

// message is a Request or a Response.
type message interface{ appendTo(*batch.Enc) error }

func (c *codec) send(m message) error {
	c.out.B = append(c.out.B[:0], 0, 0, 0, 0)
	if err := m.appendTo(&c.out); err != nil {
		return err
	}
	n := len(c.out.B) - 4
	if n > maxFrame {
		return fmt.Errorf("%w: encoding %d bytes", errFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(c.out.B, uint32(n))
	_, err := c.conn.Write(c.out.B)
	return err
}

// recv reads one frame and decodes its payload with decode, which must
// consume all of it.
func (c *codec) recv(decode func(*batch.Dec)) error {
	if _, err := io.ReadFull(c.conn, c.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > maxFrame {
		return fmt.Errorf("%w: prefix claims %d bytes", errFrameTooLarge, n)
	}
	var err error
	if c.in, err = batch.ReadN(c.conn, c.in, int(n)); err != nil {
		return err
	}
	d := batch.Dec{B: c.in}
	decode(&d)
	if d.Err != nil {
		return fmt.Errorf("remote: decode frame: %w", d.Err)
	}
	// One message is exactly this frame; a non-empty remainder means
	// the stream is desynced or the frame was corrupted.
	if len(d.B) != 0 {
		return fmt.Errorf("remote: frame desync: %d trailing bytes", len(d.B))
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
