// Package wal implements the durability layer of the engine: a
// write-ahead log of committed transaction deltas plus periodic
// checkpoints of the full engine state (base relations, retained
// differential relations, the logical clock, per-table change counters,
// and the CQ registry).
//
// The differential relations the engine already maintains per table are
// exactly the right thing to persist: a committed transaction's WAL
// record IS its differential-relation rows, so recovery replays the log
// tail into the tables and the delta logs at once, and every continual
// query's first post-restart refresh runs differentially from its last
// delivered timestamp — the DRA applied to the crash itself.
//
// Wire format: every record is a frame
//
//	[4-byte big-endian payload length][4-byte CRC-32C of payload][payload]
//
// with the length validated against a cap before any allocation and the
// checksum validated before any decoding — the size-cap/desync lessons
// of the remote codec (internal/remote). A torn final frame (the crash
// landed mid-write) is detected and dropped cleanly; a frame that fails
// its checksum is never partially applied.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Errors of the record codec.
var (
	// ErrTorn reports an incomplete final frame: the header or payload
	// was cut short. Recovery treats it as the clean end of the segment.
	ErrTorn = errors.New("wal: torn record")
	// ErrCorrupt reports a frame whose checksum or structure is invalid.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrRecordTooLarge reports a frame beyond the size cap, either on
	// encode (the transaction is absurdly large) or on decode (the
	// length prefix is garbage).
	ErrRecordTooLarge = errors.New("wal: record exceeds size limit")
)

// maxRecord bounds one frame. Validated before allocation on the read
// path so a corrupt length prefix cannot OOM recovery.
const maxRecord = 64 << 20 // 64 MiB

// castagnoli is the CRC-32C table (the checksum used by ext4, iSCSI...).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags a WAL record.
type Kind byte

// Record kinds.
const (
	// KindTx is one committed transaction: commit timestamp plus its
	// per-table differential rows.
	KindTx Kind = iota + 1
	// KindCreateTable / KindDropTable are DDL.
	KindCreateTable
	KindDropTable
	// KindCQRegister installs a continual query: its definition and
	// result-sequence bookkeeping, never its result. Recovery re-derives
	// the result by one initial execution at LastExec (paper §4.2), and a
	// seed committed into its INTO target from the commit's TS.
	KindCQRegister
	// KindCQExec is one refresh of a CQ: seq, exec timestamp, whether it
	// terminated the sequence, and the TS of its commit into its INTO
	// target, which recovery re-derives from it. The result delta is not
	// logged: it is a function of the logged transactions. Its slot in
	// the layout stays (a zero row count); rows in records written
	// before are parsed and dropped.
	KindCQExec
	// KindCQDrop removes a continual query.
	KindCQDrop
)

// TxRow couples a table name with one differential row — the unit a
// committed transaction contributes to the log.
type TxRow struct {
	Table string
	Row   delta.Row
}

// Record is one decoded WAL record. Exactly the fields for its Kind are
// populated.
type Record struct {
	Kind Kind

	// KindTx; and for KindCQRegister/KindCQExec the derived commit the
	// record stands for, if any.
	TS   vclock.Timestamp
	Rows []TxRow

	// KindCreateTable / KindDropTable
	Table  string
	Schema relation.Schema

	// KindCQRegister
	CQ *CQEntry

	// KindCQExec / KindCQDrop
	Name       string
	Seq        int
	ExecTS     vclock.Timestamp
	Terminated bool

	// Legacy marks a record of a segment written before derived commits
	// rode their CQ records (legacySegMagic): their rows are KindTx rows.
	Legacy bool
}

// CQEntry is the durable form of one registered continual query: the
// paper's triple (Q, Tcq, Stop) rendered to primitives, plus the
// bookkeeping needed to resume the result sequence where it stopped
// (Seq, LastExec). The result as of LastExec is not part of it: a
// recovered CQ re-derives it from the store at LastExec, and a seed
// committed into its INTO target from the registration record's TS.
type CQEntry struct {
	Name           string
	Query          string // SELECT text; re-parsed at recovery
	TriggerKind    int
	TriggerEvery   int64
	TriggerBound   float64
	TriggerOn      string // epsilon expression text ("" = none)
	TriggerUpdates int64
	Mode           int
	StopAfterN     int64
	EpsilonMeasure int
	NotifyEmpty    bool
	Seq            int
	LastExec       vclock.Timestamp
	Terminated     bool
	// Health is the CQ's guard state at checkpoint time ("healthy",
	// "probation", "quarantined"; "" reads as healthy). A recovered CQ
	// that was not healthy resumes in probation — it must prove itself
	// with a probe refresh rather than rejoin at full cadence.
	Health string
}

// ---------------------------------------------------------------------
// primitive encoder / decoder

// enc builds a record payload by appending to a byte slice.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) byte(v byte)  { e.b = append(e.b, v) }
func (e *enc) str(s string) { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.byte(b)
}

// val writes a value as its MarshalBinary bytes behind their uvarint
// length, encoded in place: the payload is appended behind a one-byte
// length slot, which holds the length of any payload under 128 bytes; a
// longer one (a long string) moves up to make room for its wider prefix.
func (e *enc) val(v relation.Value) error {
	at := len(e.b)
	b, err := v.AppendBinary(append(e.b, 0))
	if err != nil {
		return err
	}
	n := len(b) - at - 1
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	if k > 1 {
		b = append(b, pre[1:k]...)
		copy(b[at+k:], b[at+1:at+1+n])
	}
	copy(b[at:], pre[:k])
	e.b = b
	return nil
}

// vals encodes a value slice, distinguishing nil (length tag 0) from
// empty (length tag 1): the nil-ness of the Old/New halves is what makes
// a delta row an insert, delete or modify.
func (e *enc) vals(vs []relation.Value) error {
	if vs == nil {
		e.u64(0)
		return nil
	}
	e.u64(uint64(len(vs)) + 1)
	for _, v := range vs {
		if err := e.val(v); err != nil {
			return err
		}
	}
	return nil
}

func (e *enc) schema(s relation.Schema) {
	e.u64(uint64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		c := s.Col(i)
		e.str(c.Name)
		e.u64(uint64(c.Type))
	}
}

func (e *enc) deltaRow(r delta.Row) error {
	e.u64(uint64(r.TID))
	e.u64(uint64(r.TS))
	if err := e.vals(r.Old); err != nil {
		return err
	}
	return e.vals(r.New)
}

// dec reads a record payload with strict bounds checking: every length
// is validated against the remaining buffer before slicing, so a
// corrupted or adversarial payload produces ErrCorrupt, never a panic
// or a huge allocation.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.byte() == 1 }

func (d *dec) raw() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) str() string { return string(d.raw()) }

// count reads a collection length and sanity-bounds it: a collection of
// n elements needs at least n bytes of payload, so anything larger is a
// corrupt length, rejected before allocation.
func (d *dec) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) val() relation.Value {
	p := d.raw()
	if d.err != nil {
		return relation.Value{}
	}
	var v relation.Value
	if err := v.UnmarshalBinary(p); err != nil {
		d.fail()
		return relation.Value{}
	}
	return v
}

func (d *dec) vals() []relation.Value {
	tag := d.u64()
	if d.err != nil || tag == 0 {
		return nil
	}
	n := tag - 1
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := make([]relation.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.val())
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *dec) schema() relation.Schema {
	n := d.count()
	cols := make([]relation.Column, 0, n)
	for i := 0; i < n; i++ {
		name := d.str()
		typ := d.u64()
		if typ > math.MaxUint8 {
			d.fail() // relation.Type is one byte; a wider tag is not one of ours
		}
		cols = append(cols, relation.Column{Name: name, Type: relation.Type(typ)})
	}
	if d.err != nil {
		return relation.Schema{}
	}
	s, err := relation.NewSchema(cols...)
	if err != nil {
		d.fail()
		return relation.Schema{}
	}
	return s
}

// skipRelation parses and drops a relation: the result slot of a CQ
// entry written before results were re-derived at recovery.
func (d *dec) skipRelation() {
	d.schema()
	for n := d.count(); n > 0 && d.err == nil; n-- {
		d.u64()
		d.vals()
	}
}

// commitTS reads the Record.TS that ends a CQ record; one written before
// it had one reads 0.
func (d *dec) commitTS() vclock.Timestamp {
	if d.err != nil || len(d.b) == 0 {
		return 0
	}
	return vclock.Timestamp(d.u64())
}

func (d *dec) deltaRow() delta.Row {
	var r delta.Row
	r.TID = relation.TID(d.u64())
	r.TS = vclock.Timestamp(d.u64())
	r.Old = d.vals()
	r.New = d.vals()
	return r
}

// ---------------------------------------------------------------------
// record payload encode / decode

// encodeRecord serializes a record to its payload bytes (no frame).
func encodeRecord(rec *Record) ([]byte, error) {
	return appendRecord(make([]byte, 0, 128), rec)
}

// appendRecord appends rec's payload to dst.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	e := &enc{b: dst}
	e.byte(byte(rec.Kind))
	switch rec.Kind {
	case KindTx:
		e.u64(uint64(rec.TS))
		e.u64(uint64(len(rec.Rows)))
		for _, tr := range rec.Rows {
			e.str(tr.Table)
			if err := e.deltaRow(tr.Row); err != nil {
				return nil, err
			}
		}
	case KindCreateTable:
		e.str(rec.Table)
		e.schema(rec.Schema)
	case KindDropTable:
		e.str(rec.Table)
	case KindCQRegister:
		if err := encodeCQEntry(e, rec.CQ); err != nil {
			return nil, err
		}
		e.u64(uint64(rec.TS))
	case KindCQExec:
		e.str(rec.Name)
		e.u64(uint64(rec.Seq))
		e.u64(uint64(rec.ExecTS))
		e.bool(rec.Terminated)
		e.u64(0) // the retired result-delta row count
		e.u64(uint64(rec.TS))
	case KindCQDrop:
		e.str(rec.Name)
	default:
		return nil, fmt.Errorf("wal: cannot encode record kind %d", rec.Kind)
	}
	if n := len(e.b) - len(dst); n > maxRecord {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n)
	}
	return e.b, nil
}

// decodeRecord parses a payload produced by encodeRecord. It never
// panics on malformed input: any structural violation yields ErrCorrupt.
func decodeRecord(payload []byte) (*Record, error) {
	d := &dec{b: payload}
	rec := &Record{Kind: Kind(d.byte())}
	switch rec.Kind {
	case KindTx:
		rec.TS = vclock.Timestamp(d.u64())
		n := d.count()
		if n > 0 {
			rec.Rows = make([]TxRow, 0, n)
		}
		for i := 0; i < n; i++ {
			table := d.str()
			row := d.deltaRow()
			if d.err != nil {
				return nil, d.err
			}
			if row.Old == nil && row.New == nil {
				return nil, fmt.Errorf("%w: tx row with no halves", ErrCorrupt)
			}
			rec.Rows = append(rec.Rows, TxRow{Table: table, Row: row})
		}
	case KindCreateTable:
		rec.Table = d.str()
		rec.Schema = d.schema()
	case KindDropTable:
		rec.Table = d.str()
	case KindCQRegister:
		rec.CQ = decodeCQEntry(d)
		rec.TS = d.commitTS()
	case KindCQExec:
		rec.Name = d.str()
		rec.Seq = int(d.u64())
		rec.ExecTS = vclock.Timestamp(d.u64())
		rec.Terminated = d.bool()
		for n := d.count(); n > 0 && d.err == nil; n-- {
			d.deltaRow() // a legacy result-delta row: dropped
		}
		rec.TS = d.commitTS()
	case KindCQDrop:
		rec.Name = d.str()
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, rec.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return rec, nil
}

// encodeCQEntry writes a CQ entry. The retired strategy and result
// slots keep their place in the layout, written empty.
func encodeCQEntry(e *enc, cq *CQEntry) error {
	if cq == nil {
		return fmt.Errorf("wal: nil CQ entry")
	}
	e.str(cq.Name)
	e.str(cq.Query)
	e.u64(uint64(cq.TriggerKind))
	e.u64(uint64(cq.TriggerEvery))
	e.u64(floatBits(cq.TriggerBound))
	e.str(cq.TriggerOn)
	e.u64(uint64(cq.TriggerUpdates))
	e.u64(uint64(cq.Mode))
	e.u64(uint64(cq.StopAfterN))
	e.u64(uint64(cq.EpsilonMeasure))
	e.bool(cq.NotifyEmpty)
	e.str("") // retired strategy name
	e.u64(uint64(cq.Seq))
	e.u64(uint64(cq.LastExec))
	e.bool(cq.Terminated)
	e.str(cq.Health)
	e.bool(false) // no result
	return nil
}

func decodeCQEntry(d *dec) *CQEntry {
	cq := &CQEntry{}
	cq.Name = d.str()
	cq.Query = d.str()
	cq.TriggerKind = int(d.u64())
	cq.TriggerEvery = int64(d.u64())
	cq.TriggerBound = floatFromBits(d.u64())
	cq.TriggerOn = d.str()
	cq.TriggerUpdates = int64(d.u64())
	cq.Mode = int(d.u64())
	cq.StopAfterN = int64(d.u64())
	cq.EpsilonMeasure = int(d.u64())
	cq.NotifyEmpty = d.bool()
	d.str() // retired strategy name, dropped
	cq.Seq = int(d.u64())
	cq.LastExec = vclock.Timestamp(d.u64())
	cq.Terminated = d.bool()
	cq.Health = d.str()
	if d.bool() {
		d.skipRelation() // a legacy result, re-derived at recovery instead
	}
	if d.err != nil {
		return nil
	}
	return cq
}

// ---------------------------------------------------------------------
// framing

// appendRecordFrame appends rec as one frame, its payload encoded in
// place behind the header rather than built apart and copied in.
func appendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	var hdr [8]byte
	out, err := appendRecord(append(dst, hdr[:]...), rec)
	if err != nil {
		return dst, err
	}
	putFrameHeader(out[len(dst):])
	return out, nil
}

// putFrameHeader writes a frame's length+CRC header from the payload
// that follows it.
func putFrameHeader(frame []byte) {
	payload := frame[8:]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// frameReader reads frames off a stream, distinguishing the three ways
// a stream can end: clean EOF at a frame boundary (io.EOF), a torn
// final frame (ErrTorn), and a checksum/structure failure (ErrCorrupt).
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next returns the payload of the next frame. The returned slice is
// only valid until the following call.
func (fr *frameReader) next() ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean boundary
		}
		return nil, err
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTorn // header cut short
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	want := binary.BigEndian.Uint32(hdr[4:])
	if n > maxRecord {
		// A garbage length prefix is indistinguishable from corruption;
		// reject before allocating.
		return nil, fmt.Errorf("%w: prefix claims %d bytes", ErrCorrupt, n)
	}
	// The buffer grows with the bytes read, doubling from 64 KiB, so a
	// length prefix claiming more than the stream holds allocates at
	// most twice what is there, plus 64 KiB.
	buf := fr.buf[:0]
	for len(buf) < int(n) {
		step := min(int(n)-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(fr.r, buf[len(buf):len(buf)+step]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, ErrTorn // payload cut short
			}
			return nil, err
		}
		buf = buf[:len(buf)+step]
	}
	fr.buf = buf
	if got := crc32.Checksum(buf, castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum %08x want %08x", ErrCorrupt, got, want)
	}
	return buf, nil
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
