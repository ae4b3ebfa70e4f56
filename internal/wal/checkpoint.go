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

// ckptMagic opens every checkpoint file.
const ckptMagic = "CQCKPT01"

// Checkpoint record kinds (internal to the checkpoint file format).
const (
	ckKindHeader byte = iota + 1
	ckKindTable
	ckKindCQ
	ckKindEnd
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
// The file is encoded and written outside the log lock, so appends,
// staging and syncs go on while it is written; ckMu serializes
// checkpoint writers, so each one's garbage collection sees the files
// of the checkpoints before it.
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
	werr := l.writeCheckpointFile(ck)
	l.mu.Lock()
	defer l.mu.Unlock()
	if werr != nil {
		return l.fail(werr)
	}
	l.met.observeCheckpoint(time.Since(start))
	l.gcLocked(ck.Seg)
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
	if werr != nil {
		l.fs.Remove(tmp)
		return werr
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, ckptName(ck.Seg))); err != nil {
		return err
	}
	if l.opts.Fsync != FsyncNever {
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// gcLocked removes checkpoints older than the previous one and segments
// the surviving checkpoints no longer need. Removal failures are
// ignored: leftovers only cost disk, and the next checkpoint retries.
func (l *Log) gcLocked(newest uint64) {
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

// writeCheckpointTo streams the checkpoint as framed records: header,
// one record per table, one per CQ, then an end trailer. A reader that
// does not reach the trailer knows the file is incomplete.
func writeCheckpointTo(w io.Writer, ck *Checkpoint) error {
	if _, err := w.Write([]byte(ckptMagic)); err != nil {
		return err
	}
	var buf []byte
	emit := func(payload []byte) error {
		if len(payload) > maxRecord {
			return fmt.Errorf("%w: checkpoint record %d bytes", ErrRecordTooLarge, len(payload))
		}
		buf = appendFrame(buf[:0], payload)
		_, err := w.Write(buf)
		return err
	}

	h := &enc{}
	h.byte(ckKindHeader)
	h.u64(ck.Seg)
	h.u64(uint64(ck.TS))
	h.u64(ck.NextTID)
	h.u64(uint64(len(ck.Tables)))
	h.u64(uint64(len(ck.CQs)))
	if err := emit(h.b); err != nil {
		return err
	}

	for _, t := range ck.Tables {
		e := &enc{}
		e.byte(ckKindTable)
		e.str(t.Name)
		e.schema(t.Schema)
		e.u64(uint64(t.LowWater))
		e.u64(t.Version)
		e.u64(uint64(len(t.Tuples)))
		for _, tu := range t.Tuples {
			e.u64(uint64(tu.TID))
			if err := e.vals(tu.Values); err != nil {
				return err
			}
		}
		e.u64(uint64(len(t.DeltaRows)))
		for _, r := range t.DeltaRows {
			if err := e.deltaRow(r); err != nil {
				return err
			}
		}
		if err := emit(e.b); err != nil {
			return err
		}
	}

	for i := range ck.CQs {
		e := &enc{}
		e.byte(ckKindCQ)
		if err := encodeCQEntry(e, &ck.CQs[i]); err != nil {
			return err
		}
		if err := emit(e.b); err != nil {
			return err
		}
	}

	return emit([]byte{ckKindEnd})
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
	var magic [len(ckptMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short checkpoint", ErrTorn)
	}
	if string(magic[:]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}

	fr := &frameReader{r: f}
	next := func() (*dec, byte, error) {
		payload, err := fr.next()
		if err != nil {
			return nil, 0, err
		}
		d := &dec{b: payload}
		return d, d.byte(), nil
	}

	d, kind, err := next()
	if err != nil || kind != ckKindHeader {
		return nil, fmt.Errorf("%w: missing checkpoint header", ErrCorrupt)
	}
	// The table/CQ counts refer to SUBSEQUENT frames, so they are read
	// as plain varints — dec.count's same-record sanity bound does not
	// apply. They are bounded instead by the frames actually present.
	ck := &Checkpoint{Seg: d.u64(), TS: vclock.Timestamp(d.u64()), NextTID: d.u64()}
	nTables := int(d.u64())
	nCQs := int(d.u64())
	if d.err != nil {
		return nil, d.err
	}
	if nTables < 0 || nCQs < 0 || nTables > 1<<20 || nCQs > 1<<20 {
		return nil, fmt.Errorf("%w: absurd checkpoint counts", ErrCorrupt)
	}

	for i := 0; i < nTables; i++ {
		d, kind, err := next()
		if err != nil || kind != ckKindTable {
			return nil, fmt.Errorf("%w: expected table record", ErrCorrupt)
		}
		t := TableState{Name: d.str(), Schema: d.schema()}
		t.LowWater = vclock.Timestamp(d.u64())
		t.Version = d.u64()
		n := d.count()
		t.Tuples = make([]relation.Tuple, 0, n)
		for j := 0; j < n; j++ {
			tid := relation.TID(d.u64())
			vs := d.vals()
			if d.err != nil {
				return nil, d.err
			}
			t.Tuples = append(t.Tuples, relation.Tuple{TID: tid, Values: vs})
		}
		n = d.count()
		t.DeltaRows = make([]delta.Row, 0, n)
		for j := 0; j < n; j++ {
			r := d.deltaRow()
			if d.err != nil {
				return nil, d.err
			}
			t.DeltaRows = append(t.DeltaRows, r)
		}
		if d.err != nil {
			return nil, d.err
		}
		ck.Tables = append(ck.Tables, t)
	}

	for i := 0; i < nCQs; i++ {
		d, kind, err := next()
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

	if _, kind, err := next(); err != nil || kind != ckKindEnd {
		return nil, fmt.Errorf("%w: checkpoint missing trailer", errOr(err, ErrTorn))
	}
	return ck, nil
}

func errOr(err, fallback error) error {
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return fallback
}
