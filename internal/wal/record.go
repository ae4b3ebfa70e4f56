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

	"github.com/diorama/continual/internal/batch"
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

// enc builds a record payload: the module's byte primitives
// (batch.Enc) plus the row-form values a record holds.
type enc struct{ batch.Enc }

// val writes a value as its AppendBinary bytes behind their uvarint
// length, encoded in place: the payload is appended behind a one-byte
// length slot, which holds the length of any payload under 128 bytes; a
// longer one (a long string) moves up to make room for its wider prefix.
func (e *enc) val(v relation.Value) error {
	at := len(e.B)
	b, err := v.AppendBinary(append(e.B, 0))
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
	e.B = b
	return nil
}

// vals encodes a value slice, distinguishing nil (length tag 0) from
// empty (length tag 1): the nil-ness of the Old/New halves is what makes
// a delta row an insert, delete or modify.
func (e *enc) vals(vs []relation.Value) error {
	if vs == nil {
		e.Uvarint(0)
		return nil
	}
	e.Uvarint(uint64(len(vs)) + 1)
	for _, v := range vs {
		if err := e.val(v); err != nil {
			return err
		}
	}
	return nil
}

func (e *enc) deltaRow(r delta.Row) error {
	e.Uvarint(uint64(r.TID))
	e.Uvarint(uint64(r.TS))
	if err := e.vals(r.Old); err != nil {
		return err
	}
	return e.vals(r.New)
}

// dec reads a record payload with the module's bounds-checked
// primitives (batch.Dec): a corrupted or adversarial payload produces
// ErrCorrupt, never a panic or a huge allocation.
type dec struct{ batch.Dec }

// corrupt returns the decoder's failure, if any, as an ErrCorrupt.
func (d *dec) corrupt() error {
	if d.Err == nil || errors.Is(d.Err, ErrCorrupt) {
		return d.Err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, d.Err)
}

func (d *dec) val() relation.Value {
	p := d.Bytes()
	if d.Err != nil {
		return relation.Value{}
	}
	var v relation.Value
	if err := v.UnmarshalBinary(p); err != nil {
		d.Fail(ErrCorrupt)
		return relation.Value{}
	}
	return v
}

func (d *dec) vals() []relation.Value {
	tag := d.Uvarint()
	if d.Err != nil || tag == 0 {
		return nil
	}
	n := tag - 1
	if n > uint64(len(d.B)) {
		d.Fail(ErrCorrupt)
		return nil
	}
	out := make([]relation.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.val())
		if d.Err != nil {
			return nil
		}
	}
	return out
}

// skipRelation parses and drops a relation: the result slot of a CQ
// entry written before results were re-derived at recovery.
func (d *dec) skipRelation() {
	d.Schema()
	for n := d.Count(); n > 0 && d.Err == nil; n-- {
		d.Uvarint()
		d.vals()
	}
}

// commitTS reads the Record.TS that ends a CQ record; one written before
// it had one reads 0.
func (d *dec) commitTS() vclock.Timestamp {
	if d.Err != nil || len(d.B) == 0 {
		return 0
	}
	return vclock.Timestamp(d.Uvarint())
}

func (d *dec) deltaRow() delta.Row {
	var r delta.Row
	r.TID = relation.TID(d.Uvarint())
	r.TS = vclock.Timestamp(d.Uvarint())
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
	e := &enc{batch.Enc{B: dst}}
	e.Byte(byte(rec.Kind))
	switch rec.Kind {
	case KindTx:
		e.Uvarint(uint64(rec.TS))
		e.Uvarint(uint64(len(rec.Rows)))
		for _, tr := range rec.Rows {
			e.Str(tr.Table)
			if err := e.deltaRow(tr.Row); err != nil {
				return nil, err
			}
		}
	case KindCreateTable:
		e.Str(rec.Table)
		e.Schema(rec.Schema)
	case KindDropTable:
		e.Str(rec.Table)
	case KindCQRegister:
		if err := encodeCQEntry(e, rec.CQ); err != nil {
			return nil, err
		}
		e.Uvarint(uint64(rec.TS))
	case KindCQExec:
		e.Str(rec.Name)
		e.Uvarint(uint64(rec.Seq))
		e.Uvarint(uint64(rec.ExecTS))
		e.Bool(rec.Terminated)
		e.Uvarint(0) // the retired result-delta row count
		e.Uvarint(uint64(rec.TS))
	case KindCQDrop:
		e.Str(rec.Name)
	default:
		return nil, fmt.Errorf("wal: cannot encode record kind %d", rec.Kind)
	}
	if n := len(e.B) - len(dst); n > maxRecord {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n)
	}
	return e.B, nil
}

// decodeRecord parses a payload produced by encodeRecord. It never
// panics on malformed input: any structural violation yields ErrCorrupt.
func decodeRecord(payload []byte) (*Record, error) {
	d := &dec{batch.Dec{B: payload}}
	rec := &Record{Kind: Kind(d.Byte())}
	switch rec.Kind {
	case KindTx:
		rec.TS = vclock.Timestamp(d.Uvarint())
		n := d.Count()
		if n > 0 {
			rec.Rows = make([]TxRow, 0, n)
		}
		for i := 0; i < n; i++ {
			table := d.Str()
			row := d.deltaRow()
			if d.Err != nil {
				return nil, d.corrupt()
			}
			if row.Old == nil && row.New == nil {
				return nil, fmt.Errorf("%w: tx row with no halves", ErrCorrupt)
			}
			rec.Rows = append(rec.Rows, TxRow{Table: table, Row: row})
		}
	case KindCreateTable:
		rec.Table = d.Str()
		rec.Schema = d.Schema()
	case KindDropTable:
		rec.Table = d.Str()
	case KindCQRegister:
		rec.CQ = decodeCQEntry(d)
		rec.TS = d.commitTS()
	case KindCQExec:
		rec.Name = d.Str()
		rec.Seq = int(d.Uvarint())
		rec.ExecTS = vclock.Timestamp(d.Uvarint())
		rec.Terminated = d.Bool()
		for n := d.Count(); n > 0 && d.Err == nil; n-- {
			d.deltaRow() // a legacy result-delta row: dropped
		}
		rec.TS = d.commitTS()
	case KindCQDrop:
		rec.Name = d.Str()
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, rec.Kind)
	}
	if d.Err != nil {
		return nil, d.corrupt()
	}
	if len(d.B) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.B))
	}
	return rec, nil
}

// encodeCQEntry writes a CQ entry. The retired strategy and result
// slots keep their place in the layout, written empty.
func encodeCQEntry(e *enc, cq *CQEntry) error {
	if cq == nil {
		return fmt.Errorf("wal: nil CQ entry")
	}
	e.Str(cq.Name)
	e.Str(cq.Query)
	e.Uvarint(uint64(cq.TriggerKind))
	e.Uvarint(uint64(cq.TriggerEvery))
	e.Uvarint(floatBits(cq.TriggerBound))
	e.Str(cq.TriggerOn)
	e.Uvarint(uint64(cq.TriggerUpdates))
	e.Uvarint(uint64(cq.Mode))
	e.Uvarint(uint64(cq.StopAfterN))
	e.Uvarint(uint64(cq.EpsilonMeasure))
	e.Bool(cq.NotifyEmpty)
	e.Str("") // retired strategy name
	e.Uvarint(uint64(cq.Seq))
	e.Uvarint(uint64(cq.LastExec))
	e.Bool(cq.Terminated)
	e.Str(cq.Health)
	e.Bool(false) // no result
	return nil
}

func decodeCQEntry(d *dec) *CQEntry {
	cq := &CQEntry{}
	cq.Name = d.Str()
	cq.Query = d.Str()
	cq.TriggerKind = int(d.Uvarint())
	cq.TriggerEvery = int64(d.Uvarint())
	cq.TriggerBound = floatFromBits(d.Uvarint())
	cq.TriggerOn = d.Str()
	cq.TriggerUpdates = int64(d.Uvarint())
	cq.Mode = int(d.Uvarint())
	cq.StopAfterN = int64(d.Uvarint())
	cq.EpsilonMeasure = int(d.Uvarint())
	cq.NotifyEmpty = d.Bool()
	d.Str() // retired strategy name, dropped
	cq.Seq = int(d.Uvarint())
	cq.LastExec = vclock.Timestamp(d.Uvarint())
	cq.Terminated = d.Bool()
	cq.Health = d.Str()
	if d.Bool() {
		d.skipRelation() // a legacy result, re-derived at recovery instead
	}
	if d.Err != nil {
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
	buf, err := batch.ReadN(fr.r, fr.buf, int(n))
	fr.buf = buf
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, ErrTorn // payload cut short
	}
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(buf, castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum %08x want %08x", ErrCorrupt, got, want)
	}
	return buf, nil
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
