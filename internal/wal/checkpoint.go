package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// ckptMagic opens every checkpoint file written now: each table is a
// header frame followed by chunk frames of rows. ckptMagicV1 opens the
// files of the format before it, one frame per table, which still load:
// a data directory's only checkpoints may be in it, and the segments
// before them are gone.
const (
	ckptMagic   = "CQCKPT02"
	ckptMagicV1 = "CQCKPT01"
)

// chunkSize bounds a chunk frame: the writer closes the frame once its
// payload reaches chunkSize, so a frame holds at most chunkSize plus
// one row, and the writer's buffer about as much.
const chunkSize = 64 << 10

// Checkpoint record kinds (internal to the checkpoint file format).
const (
	ckKindHeader byte = iota + 1
	ckKindTable
	ckKindCQ
	ckKindEnd
	ckKindChunk
)

// TableState is one table's snapshot inside a checkpoint: the base
// relation, the retained differential relation (the paper's ΔR — the
// system active delta zone as of the cut), the GC low-water mark, and
// the change counter (storage.Store.ChangeCount), kept in the format for
// its readers outside the engine; no evaluator reads it.
type TableState struct {
	Name      string
	Schema    relation.Schema
	Tuples    []relation.Tuple
	DeltaRows []delta.Row
	LowWater  vclock.Timestamp
	Version   uint64
}

// Checkpoint is the durable snapshot of the whole engine at a cut
// point. Seg is the segment the log rotated to at the cut: replaying
// segments >= Seg on top of this state reproduces the live engine.
type Checkpoint struct {
	Seg     uint64
	TS      vclock.Timestamp
	NextTID uint64
	Tables  []TableState
	CQs     []CQEntry
}

// WriteCheckpoint atomically persists a checkpoint: it is written to a
// temporary file, synced, renamed into place, and the directory entry
// synced — only then is it eligible to be found by Scan. Afterwards the
// log garbage-collects: the newest two checkpoints are kept (the older
// one covers a crash in the middle of this very sequence) and segments
// older than both are removed.
//
// Nothing of it runs under the log lock, so appends, staging and syncs
// go on while it is written; ckMu serializes checkpoint writers, so
// each one's garbage collection sees the files of the checkpoints
// before it. A checkpoint that cannot be written is removed and its
// error returned; the log stays usable, since garbage collection runs
// only after a success and so every segment recovery needs is kept.
func (l *Log) WriteCheckpoint(ck *Checkpoint) error {
	l.ckMu.Lock()
	defer l.ckMu.Unlock()
	l.mu.Lock()
	err := l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := l.writeCheckpointFile(ck); err != nil {
		return fmt.Errorf("wal: checkpoint %d: %w", ck.Seg, err)
	}
	l.met.observeCheckpoint(time.Since(start))
	l.gc(ck.Seg)
	return nil
}

func (l *Log) writeCheckpointFile(ck *Checkpoint) error {
	tmp := filepath.Join(l.dir, ckptName(ck.Seg)+".tmp")
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	werr := writeCheckpointTo(f, ck)
	if werr == nil && l.opts.Fsync != FsyncNever {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = l.fs.Rename(tmp, filepath.Join(l.dir, ckptName(ck.Seg)))
	}
	if werr != nil {
		l.fs.Remove(tmp)
		return werr
	}
	if l.opts.Fsync != FsyncNever {
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// gc removes checkpoints older than the previous one and segments the
// surviving checkpoints no longer need. Removal failures are ignored:
// leftovers only cost disk, and the next checkpoint retries. Caller
// holds ckMu; every segment it removes is older than the log's own.
func (l *Log) gc(newest uint64) {
	names, err := l.fs.List(l.dir)
	if err != nil {
		return
	}
	// Find the second-newest checkpoint: segments at or after ITS cut
	// must stay so recovery can still fall back to it.
	prev := uint64(0)
	hasPrev := false
	for _, name := range names {
		if seq, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok && seq < newest {
			if !hasPrev || seq > prev {
				prev, hasPrev = seq, true
			}
		}
	}
	keepFrom := newest
	if hasPrev {
		keepFrom = prev
	}
	for _, name := range names {
		if seq, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok && hasPrev && seq < prev {
			l.fs.Remove(filepath.Join(l.dir, name))
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok && seq < keepFrom {
			l.fs.Remove(filepath.Join(l.dir, name))
		}
	}
}

// ckptWriter writes framed records through one reused buffer: each
// frame is encoded in place behind its 8-byte header and written
// straight to the file.
type ckptWriter struct {
	w     io.Writer
	e     enc  // the open frame, header slot first
	chunk bool // the open frame is a chunk of rows
}

// open starts a frame of the given kind.
func (cw *ckptWriter) open(kind byte) {
	cw.e.b = append(cw.e.b[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// close seals the open frame and writes it.
func (cw *ckptWriter) close() error {
	cw.chunk = false
	if n := len(cw.e.b) - 8; n > maxRecord {
		return fmt.Errorf("%w: checkpoint record %d bytes", ErrRecordTooLarge, n)
	}
	putFrameHeader(cw.e.b)
	_, err := cw.w.Write(cw.e.b)
	return err
}

// row makes the open frame a chunk ready for one more row.
func (cw *ckptWriter) row() {
	if !cw.chunk {
		cw.open(ckKindChunk)
		cw.chunk = true
	}
}

// rowDone closes the chunk once its payload has reached chunkSize. Rows
// never span chunks.
func (cw *ckptWriter) rowDone() error {
	if len(cw.e.b)-8 < chunkSize {
		return nil
	}
	return cw.close()
}

// writeCheckpointTo streams the checkpoint as framed records: header;
// per table a header frame, then its tuples and delta rows in chunk
// frames; one record per CQ; then an end trailer. A reader that does
// not reach the trailer knows the file is incomplete. The encoder holds
// one buffer of about chunkSize, whatever the size of a table.
func writeCheckpointTo(w io.Writer, ck *Checkpoint) error {
	if _, err := w.Write([]byte(ckptMagic)); err != nil {
		return err
	}
	cw := &ckptWriter{w: w, e: enc{b: make([]byte, 0, chunkSize+chunkSize/2)}}
	e := &cw.e
	cw.open(ckKindHeader)
	e.u64(ck.Seg)
	e.u64(uint64(ck.TS))
	e.u64(ck.NextTID)
	e.u64(uint64(len(ck.Tables)))
	e.u64(uint64(len(ck.CQs)))
	if err := cw.close(); err != nil {
		return err
	}

	for i := range ck.Tables {
		t := &ck.Tables[i]
		cw.open(ckKindTable)
		e.str(t.Name)
		e.schema(t.Schema)
		e.u64(uint64(t.LowWater))
		e.u64(t.Version)
		e.u64(uint64(len(t.Tuples)))
		e.u64(uint64(len(t.DeltaRows)))
		if err := cw.close(); err != nil {
			return err
		}
		for _, tu := range t.Tuples {
			cw.row()
			e.u64(uint64(tu.TID))
			if err := e.vals(tu.Values); err != nil {
				return err
			}
			if err := cw.rowDone(); err != nil {
				return err
			}
		}
		for _, r := range t.DeltaRows {
			cw.row()
			if err := e.deltaRow(r); err != nil {
				return err
			}
			if err := cw.rowDone(); err != nil {
				return err
			}
		}
		if cw.chunk {
			if err := cw.close(); err != nil {
				return err
			}
		}
	}

	for i := range ck.CQs {
		cw.open(ckKindCQ)
		if err := encodeCQEntry(e, &ck.CQs[i]); err != nil {
			return err
		}
		if err := cw.close(); err != nil {
			return err
		}
	}

	cw.open(ckKindEnd)
	return cw.close()
}

// readCheckpoint loads and validates a checkpoint file. Any truncation
// (missing trailer), checksum failure, or structural error makes the
// whole checkpoint unusable — checkpoints are atomic via rename, so a
// broken one is a crash artifact and the caller falls back.
func readCheckpoint(fs FS, path string) (*Checkpoint, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeCheckpoint(f)
}

// ckptReader reads the frames of one checkpoint file.
type ckptReader struct {
	fr frameReader
}

// next returns the next frame's payload past its kind byte, and the
// kind. The payload is valid until the following call.
func (cr *ckptReader) next() (*dec, byte, error) {
	payload, err := cr.fr.next()
	if err != nil {
		return nil, 0, err
	}
	d := &dec{b: payload}
	return d, d.byte(), nil
}

// decodeCheckpoint reads a checkpoint in either format off r. Every
// allocation it makes is bounded by the frame it is reading.
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic [len(ckptMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short checkpoint", ErrTorn)
	}
	readTable := (*ckptReader).table
	switch string(magic[:]) {
	case ckptMagic:
	case ckptMagicV1:
		readTable = (*ckptReader).tableV1
	default:
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	cr := &ckptReader{fr: frameReader{r: r}}

	d, kind, err := cr.next()
	if err != nil || kind != ckKindHeader {
		return nil, fmt.Errorf("%w: missing checkpoint header", ErrCorrupt)
	}
	// The table/CQ counts refer to SUBSEQUENT frames, so they are read
	// as plain varints — dec.count's same-record sanity bound does not
	// apply. They are bounded instead by the frames actually present.
	ck := &Checkpoint{Seg: d.u64(), TS: vclock.Timestamp(d.u64()), NextTID: d.u64()}
	nTables := d.u64()
	nCQs := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if nTables > 1<<20 || nCQs > 1<<20 {
		return nil, fmt.Errorf("%w: absurd checkpoint counts", ErrCorrupt)
	}

	for i := uint64(0); i < nTables; i++ {
		t, err := readTable(cr)
		if err != nil {
			return nil, err
		}
		ck.Tables = append(ck.Tables, t)
	}

	for i := uint64(0); i < nCQs; i++ {
		d, kind, err := cr.next()
		if err != nil || kind != ckKindCQ {
			return nil, fmt.Errorf("%w: expected cq record", ErrCorrupt)
		}
		e := decodeCQEntry(d)
		if e == nil {
			return nil, d.err
		}
		if len(d.b) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes in cq record", ErrCorrupt)
		}
		ck.CQs = append(ck.CQs, *e)
	}

	if _, kind, err := cr.next(); err != nil || kind != ckKindEnd {
		return nil, fmt.Errorf("%w: checkpoint missing trailer", errOr(err, ErrTorn))
	}
	return ck, nil
}

// tableHead reads what a table's first frame holds in both formats, up
// to its rows.
func tableHead(d *dec) TableState {
	t := TableState{Name: d.str(), Schema: d.schema()}
	t.LowWater = vclock.Timestamp(d.u64())
	t.Version = d.u64()
	return t
}

// table reads one table of the chunked format: the header frame, then
// chunk frames until its row counts are met.
func (cr *ckptReader) table() (TableState, error) {
	d, kind, err := cr.next()
	if err != nil || kind != ckKindTable {
		return TableState{}, fmt.Errorf("%w: expected table record", ErrCorrupt)
	}
	t := tableHead(d)
	// The row counts describe the chunk frames that follow, so they are
	// plain varints, like the file header's counts: each chunk reserves
	// room for no more rows than its payload can hold.
	nTuples, nRows := d.u64(), d.u64()
	if d.err != nil {
		return TableState{}, d.err
	}
	if len(d.b) != 0 {
		return TableState{}, fmt.Errorf("%w: trailing bytes in table record", ErrCorrupt)
	}
	c := &dec{}
	// load makes c the next chunk once the last one is used up, and
	// reports the bytes left in c.
	load := func() (int, error) {
		if len(c.b) != 0 {
			return len(c.b), nil
		}
		d, kind, err := cr.next()
		if err != nil || kind != ckKindChunk || len(d.b) == 0 {
			return 0, fmt.Errorf("%w: expected chunk of table %q", errOr(err, ErrCorrupt), t.Name)
		}
		c = d
		return len(c.b), nil
	}
	for i := uint64(0); i < nTuples; i++ {
		n, err := load()
		if err != nil {
			return TableState{}, err
		}
		if t.Tuples == nil {
			// A tuple takes at least 2 bytes, its tid and its values'
			// tag; append grows the slice past this chunk.
			t.Tuples = make([]relation.Tuple, 0, min(nTuples, uint64(n/2)))
		}
		tid := relation.TID(c.u64())
		vs := c.vals()
		if c.err != nil {
			return TableState{}, c.err
		}
		t.Tuples = append(t.Tuples, relation.Tuple{TID: tid, Values: vs})
	}
	for i := uint64(0); i < nRows; i++ {
		n, err := load()
		if err != nil {
			return TableState{}, err
		}
		if t.DeltaRows == nil {
			// A delta row takes at least 4: tid, ts and two tags.
			t.DeltaRows = make([]delta.Row, 0, min(nRows, uint64(n/4)))
		}
		r := c.deltaRow()
		if c.err != nil {
			return TableState{}, c.err
		}
		t.DeltaRows = append(t.DeltaRows, r)
	}
	if len(c.b) != 0 {
		return TableState{}, fmt.Errorf("%w: trailing bytes in chunk of table %q", ErrCorrupt, t.Name)
	}
	return t, nil
}

// tableV1 reads one table of the CQCKPT01 format: a single frame holds
// the header and every row.
func (cr *ckptReader) tableV1() (TableState, error) {
	d, kind, err := cr.next()
	if err != nil || kind != ckKindTable {
		return TableState{}, fmt.Errorf("%w: expected table record", ErrCorrupt)
	}
	t := tableHead(d)
	n := d.count()
	t.Tuples = make([]relation.Tuple, 0, n)
	for j := 0; j < n; j++ {
		tid := relation.TID(d.u64())
		vs := d.vals()
		if d.err != nil {
			return TableState{}, d.err
		}
		t.Tuples = append(t.Tuples, relation.Tuple{TID: tid, Values: vs})
	}
	n = d.count()
	t.DeltaRows = make([]delta.Row, 0, n)
	for j := 0; j < n; j++ {
		r := d.deltaRow()
		if d.err != nil {
			return TableState{}, d.err
		}
		t.DeltaRows = append(t.DeltaRows, r)
	}
	if d.err != nil {
		return TableState{}, d.err
	}
	return t, nil
}

func errOr(err, fallback error) error {
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return fallback
}
