package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// ckptMagic opens every checkpoint file written now: each table is a
// header frame followed by chunk frames, each one row-set frame
// (batch.Enc.Frame). ckptMagicV2 opens the files of the format before
// it, whose chunks hold row-form values; they still load, since a data
// directory's only checkpoints may be in it and the segments before
// them are gone. The format before that, ckptMagicV1, is refused with
// ErrCheckpointV1.
const (
	ckptMagic   = "CQCKPT03"
	ckptMagicV2 = "CQCKPT02"
	ckptMagicV1 = "CQCKPT01"
)

// ErrCheckpointV1 reports a checkpoint in the CQCKPT01 format, which
// this build no longer reads. Recovery refuses it rather than fall back
// past it: the segments it stands for are gone.
var ErrCheckpointV1 = errors.New("wal: checkpoint in the retired CQCKPT01 format; " +
	"open the data directory once with a build that writes CQCKPT02 checkpoints " +
	"and take a checkpoint (cqctl checkpoint, or a clean shutdown), which rewrites it as CQCKPT02")

// chunkSize and chunkRows bound a chunk frame: the writer closes a
// chunk once its rows reach chunkSize bytes or chunkRows rows, so a
// frame holds at most chunkSize plus one row (or one modification's
// pair), and the writer's buffer and batch about as much.
const (
	chunkSize = 64 << 10
	chunkRows = 1024
)

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
	w io.Writer
	e enc // the open frame, header slot first
}

// open starts a frame of the given kind.
func (cw *ckptWriter) open(kind byte) {
	cw.e.B = append(cw.e.B[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// close seals the open frame and writes it.
func (cw *ckptWriter) close() error {
	if n := len(cw.e.B) - 8; n > maxRecord {
		return fmt.Errorf("%w: checkpoint record %d bytes", ErrRecordTooLarge, n)
	}
	putFrameHeader(cw.e.B)
	_, err := cw.w.Write(cw.e.B)
	return err
}

// chunk writes the rows gathered in b, if any, as one chunk frame and
// empties b, keeping its timestamp column's storage.
func (cw *ckptWriter) chunk(b *batch.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	cw.open(ckKindChunk)
	cw.e.Frame(b)
	ts := b.TS
	b.Reset()
	if ts != nil {
		b.TS = ts[:0]
	}
	return cw.close()
}

// writeCheckpointTo streams the checkpoint as framed records: header;
// per table a header frame, then its tuples and then its delta rows in
// chunk frames; one record per CQ; then an end trailer. A reader that
// does not reach the trailer knows the file is incomplete. The encoder
// holds one buffer of about chunkSize and one batch of a chunk's rows,
// whatever the size of a table.
func writeCheckpointTo(w io.Writer, ck *Checkpoint) error {
	if _, err := w.Write([]byte(ckptMagic)); err != nil {
		return err
	}
	cw := &ckptWriter{w: w, e: enc{batch.Enc{B: make([]byte, 0, chunkSize+chunkSize/2)}}}
	e := &cw.e
	cw.open(ckKindHeader)
	e.Uvarint(ck.Seg)
	e.Uvarint(uint64(ck.TS))
	e.Uvarint(ck.NextTID)
	e.Uvarint(uint64(len(ck.Tables)))
	e.Uvarint(uint64(len(ck.CQs)))
	if err := cw.close(); err != nil {
		return err
	}
	for i := range ck.Tables {
		if err := cw.table(&ck.Tables[i]); err != nil {
			return err
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

// table writes one table: its header frame, then chunk frames of its
// tuples — an image: +1 rows, no timestamps — and then of its delta
// rows, ordered signed rows with timestamps, each modification an
// adjacent -old/+new pair. A chunk closes once it is full, so no row
// and no pair spans two chunks.
func (cw *ckptWriter) table(t *TableState) error {
	e := &cw.e
	cw.open(ckKindTable)
	e.Str(t.Name)
	e.Schema(t.Schema)
	e.Uvarint(uint64(t.LowWater))
	e.Uvarint(t.Version)
	e.Uvarint(uint64(len(t.Tuples)))
	e.Uvarint(uint64(len(t.DeltaRows)))
	if err := cw.close(); err != nil {
		return err
	}
	b := batch.New(t.Schema, chunkRows)
	size := 0
	for _, tu := range t.Tuples {
		if err := put(b, t, tu.TID, 1, tu.Values); err != nil {
			return err
		}
		if size += batch.FrameRowBytes(tu.Values); size >= chunkSize || b.Len() >= chunkRows {
			if err := cw.chunk(b); err != nil {
				return err
			}
			size = 0
		}
	}
	if err := cw.chunk(b); err != nil {
		return err
	}
	b.EnableTS()
	size = 0
	for _, r := range t.DeltaRows {
		if r.Old == nil && r.New == nil {
			return fmt.Errorf("wal: table %q delta row %d has no halves", t.Name, r.TID)
		}
		if r.Old != nil {
			if err := put(b, t, r.TID, -1, r.Old); err != nil {
				return err
			}
			b.TS[b.Len()-1] = r.TS
		}
		if r.New != nil {
			if err := put(b, t, r.TID, 1, r.New); err != nil {
				return err
			}
			b.TS[b.Len()-1] = r.TS
		}
		size += batch.FrameRowBytes(r.Old) + batch.FrameRowBytes(r.New)
		if size >= chunkSize || b.Len() >= chunkRows-1 {
			if err := cw.chunk(b); err != nil {
				return err
			}
			size = 0
		}
	}
	return cw.chunk(b)
}

// put appends one row of table t to b, conforming a copy of a row that
// does not fit the typed columns (relation.Schema.Conform), as
// Store.Restore does.
func put(b *batch.Batch, t *TableState, tid relation.TID, sign int8, vals []relation.Value) error {
	if len(vals) == len(b.Cols) && b.AppendRow(tid, sign, vals) {
		return nil
	}
	vals = slices.Clone(vals)
	if err := t.Schema.Conform(vals); err != nil || !b.AppendRow(tid, sign, vals) {
		return fmt.Errorf("wal: table %q row %d does not fit its schema: %v", t.Name, tid, err)
	}
	return nil
}

// readCheckpoint loads and validates a checkpoint file. Any truncation
// (missing trailer), checksum failure, or structural error makes the
// whole checkpoint unusable — checkpoints are atomic via rename, so a
// broken one is a crash artifact and the caller falls back. A file in
// the retired CQCKPT01 format is ErrCheckpointV1.
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
	d := &dec{batch.Dec{B: payload}}
	return d, d.Byte(), nil
}

// decodeCheckpoint reads a checkpoint in the current format or the one
// before it off r. Every allocation it makes is bounded by the frame it
// is reading.
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic [len(ckptMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short checkpoint", ErrTorn)
	}
	readTable := (*ckptReader).table
	switch string(magic[:]) {
	case ckptMagic:
	case ckptMagicV2:
		readTable = (*ckptReader).tableV2
	case ckptMagicV1:
		return nil, ErrCheckpointV1
	default:
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	cr := &ckptReader{fr: frameReader{r: r}}

	d, kind, err := cr.next()
	if err != nil || kind != ckKindHeader {
		return nil, fmt.Errorf("%w: missing checkpoint header", ErrCorrupt)
	}
	// The table/CQ counts refer to SUBSEQUENT frames, so they are read
	// as plain varints — Count's same-record sanity bound does not
	// apply. They are bounded instead by the frames actually present.
	ck := &Checkpoint{Seg: d.Uvarint(), TS: vclock.Timestamp(d.Uvarint()), NextTID: d.Uvarint()}
	nTables := d.Uvarint()
	nCQs := d.Uvarint()
	if d.Err != nil {
		return nil, d.corrupt()
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
			return nil, d.corrupt()
		}
		if len(d.B) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes in cq record", ErrCorrupt)
		}
		ck.CQs = append(ck.CQs, *e)
	}

	if _, kind, err := cr.next(); err != nil || kind != ckKindEnd {
		return nil, fmt.Errorf("%w: checkpoint missing trailer", errOr(err, ErrTorn))
	}
	return ck, nil
}

// tableHead reads a table's header frame up to its two row counts. The
// counts describe the chunk frames that follow, so they are plain
// varints, like the file header's counts.
func (cr *ckptReader) tableHead() (TableState, uint64, uint64, error) {
	d, kind, err := cr.next()
	if err != nil || kind != ckKindTable {
		return TableState{}, 0, 0, fmt.Errorf("%w: expected table record", ErrCorrupt)
	}
	t := TableState{Name: d.Str(), Schema: d.Schema()}
	t.LowWater = vclock.Timestamp(d.Uvarint())
	t.Version = d.Uvarint()
	nTuples, nRows := d.Uvarint(), d.Uvarint()
	if d.Err != nil {
		return TableState{}, 0, 0, d.corrupt()
	}
	if len(d.B) != 0 {
		return TableState{}, 0, 0, fmt.Errorf("%w: trailing bytes in table record", ErrCorrupt)
	}
	return t, nTuples, nRows, nil
}

// table reads one table of the current format: the header frame, then
// chunk frames — images of its tuples, then windows of its delta rows —
// until its row counts are met.
func (cr *ckptReader) table() (TableState, error) {
	t, nTuples, nRows, err := cr.tableHead()
	if err != nil {
		return TableState{}, err
	}
	for uint64(len(t.Tuples)) < nTuples {
		b, err := cr.chunk(&t)
		if err != nil {
			return TableState{}, err
		}
		if b.TS != nil || slices.ContainsFunc(b.Signs, func(s int8) bool { return s != 1 }) {
			return TableState{}, fmt.Errorf("%w: chunk of table %q holds no tuples", ErrCorrupt, t.Name)
		}
		for i := 0; i < b.Len(); i++ {
			vals := make([]relation.Value, len(b.Cols))
			b.ReadRow(i, vals)
			t.Tuples = append(t.Tuples, relation.Tuple{TID: b.TIDs[i], Values: vals})
		}
	}
	for uint64(len(t.DeltaRows)) < nRows {
		b, err := cr.chunk(&t)
		if err != nil {
			return TableState{}, err
		}
		rows, err := b.ToDeltaOrdered()
		if err != nil || b.TS == nil {
			return TableState{}, fmt.Errorf("%w: chunk of table %q holds no delta rows", ErrCorrupt, t.Name)
		}
		t.DeltaRows = append(t.DeltaRows, rows.Rows()...)
	}
	if uint64(len(t.Tuples)) != nTuples || uint64(len(t.DeltaRows)) != nRows {
		return TableState{}, fmt.Errorf("%w: table %q overruns its row counts", ErrCorrupt, t.Name)
	}
	return t, nil
}

// chunk reads the next chunk frame of table t: a non-empty frame of
// t's schema. A tid that repeats among a table's tuples, or delta rows
// out of timestamp order, are the store's to refuse (Store.Restore).
func (cr *ckptReader) chunk(t *TableState) (*batch.Batch, error) {
	d, kind, err := cr.next()
	if err != nil || kind != ckKindChunk {
		return nil, fmt.Errorf("%w: expected chunk of table %q", errOr(err, ErrCorrupt), t.Name)
	}
	b := d.Frame(false)
	if d.Err != nil {
		return nil, d.corrupt()
	}
	if len(d.B) != 0 || b.Len() == 0 || !b.Schema.Equal(t.Schema) {
		return nil, fmt.Errorf("%w: malformed chunk of table %q", ErrCorrupt, t.Name)
	}
	return b, nil
}

// tableV2 reads one table of the CQCKPT02 format, whose chunks hold
// row-form values, each tagged with its kind. Every row is conformed to
// the table's schema (relation.Schema.Conform), as Store.Restore does,
// so that whatever it reads can be written back in the current format.
func (cr *ckptReader) tableV2() (TableState, error) {
	t, nTuples, nRows, err := cr.tableHead()
	if err != nil {
		return TableState{}, err
	}
	c := &dec{}
	// load makes c the next chunk once the last one is used up, and
	// reports the bytes left in c.
	load := func() (int, error) {
		if len(c.B) != 0 {
			return len(c.B), nil
		}
		d, kind, err := cr.next()
		if err != nil || kind != ckKindChunk || len(d.B) == 0 {
			return 0, fmt.Errorf("%w: expected chunk of table %q", errOr(err, ErrCorrupt), t.Name)
		}
		c = d
		return len(c.B), nil
	}
	conform := func(vals []relation.Value) error {
		if vals == nil {
			return nil
		}
		return t.Schema.Conform(vals)
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
		tid := relation.TID(c.Uvarint())
		vs := c.vals()
		if c.Err != nil {
			return TableState{}, c.corrupt()
		}
		if err := t.Schema.Conform(vs); err != nil {
			return TableState{}, fmt.Errorf("%w: table %q tuple %d: %w", ErrCorrupt, t.Name, tid, err)
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
		if c.Err != nil {
			return TableState{}, c.corrupt()
		}
		if err := errors.Join(conform(r.Old), conform(r.New)); err != nil {
			return TableState{}, fmt.Errorf("%w: table %q delta row %d: %w", ErrCorrupt, t.Name, r.TID, err)
		}
		t.DeltaRows = append(t.DeltaRows, r)
	}
	if len(c.B) != 0 {
		return TableState{}, fmt.Errorf("%w: trailing bytes in chunk of table %q", ErrCorrupt, t.Name)
	}
	return t, nil
}

func errOr(err, fallback error) error {
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return fallback
}
