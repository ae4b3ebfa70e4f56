package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// segMagic opens every segment file; a file without it is not a
// segment (or its very first write was torn, which recovery treats as
// an empty segment).
const segMagic = "CQWAL001"

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// FsyncPolicy selects when appended records become durable.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged commit is
	// on stable storage before Commit returns. The paper's standing
	// queries assume the source never forgets a reported change; this
	// is the policy that guarantees it.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker (Options.SyncEvery).
	// A crash can lose the last interval's acknowledged commits, but
	// never produces a torn or reordered state.
	FsyncInterval
	// FsyncNever leaves syncing to the OS. For tests and benchmarks.
	FsyncNever
)

// ParseFsyncPolicy maps the user-facing names to policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// String renders the policy name.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem; nil means the real one (OSFS).
	FS FS
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SyncEvery is the FsyncInterval period (default 50ms).
	SyncEvery time.Duration
	// Metrics receives wal.* instruments when non-nil.
	Metrics *obs.Registry
}

// Log is a segmented write-ahead log. A log instance owns exactly one
// open segment and only ever appends to segments it created in this
// process lifetime: Open always starts a fresh segment after the
// highest existing one, so a torn tail from a previous crash is never
// appended after (which would bury the tear mid-segment where it would
// read as corruption instead of a clean stop).
//
// The log fails stop: the first append or sync error marks it broken
// and every later operation returns that error. A half-written log that
// keeps accepting commits would acknowledge transactions it cannot
// recover.
//
// Log order is call order. A frame may be staged (StageCQExec) instead
// of written at once: it waits in the log's buffer, and the next write
// of any kind — Flush, an append, Sync, Rotate, Close — carries every
// staged frame ahead of its own in the same Write call. A crash can
// therefore lose only a suffix of the calls: frames staged and never
// written, and at most a torn final write.
type Log struct {
	fs   FS
	dir  string
	opts Options
	met  *metrics

	mu     sync.Mutex
	seg    uint64 // current segment number
	f      File
	dirty  bool  // appended since last sync
	broken error // sticky first failure
	closed bool
	// buf holds the frames staged for the next write, in call order;
	// an append encodes its own frame after them and writes the lot in
	// one Write. Reused across writes.
	buf    []byte
	frames int // frames in buf

	tickStop chan struct{}
	tickDone chan struct{}
}

func segName(seg uint64) string  { return fmt.Sprintf("wal-%08d.log", seg) }
func ckptName(seg uint64) string { return fmt.Sprintf("checkpoint-%08d.ckpt", seg) }

// parseSeq extracts the sequence number from a segment or checkpoint
// file name, returning ok=false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	var n uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// Open creates a log in dir, starting a new segment numbered one past
// the highest segment already present (0 if none).
func Open(dir string, opts Options) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 50 * time.Millisecond
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	names, err := opts.FS.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	next := uint64(0)
	for _, name := range names {
		if seq, ok := parseSeq(name, "wal-", ".log"); ok && seq+1 > next {
			next = seq + 1
		}
	}
	l := &Log{fs: opts.FS, dir: dir, opts: opts, met: newMetrics(opts.Metrics), seg: next}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		l.tickStop = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// openSegment creates the segment file, writes its magic, and makes the
// directory entry durable. Caller holds no lock (Open) or l.mu (Rotate).
func (l *Log) openSegment(seg uint64) error {
	f, err := l.fs.Create(filepath.Join(l.dir, segName(seg)))
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", seg, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %d magic: %w", seg, err)
	}
	if l.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: segment %d sync: %w", seg, err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			f.Close()
			return fmt.Errorf("wal: sync dir: %w", err)
		}
	}
	l.f = f
	l.seg = seg
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.tickDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.tickStop:
			return
		case <-t.C:
			// Best-effort: a failure marks the log broken; the loop
			// keeps running so Close still joins it.
			l.Sync()
		}
	}
}

// fail records the first error and makes the log fail-stop.
func (l *Log) fail(err error) error {
	if l.broken == nil {
		l.broken = fmt.Errorf("wal: log broken: %w", err)
	}
	return l.broken
}

// append encodes rec framed after the staged frames and writes them
// all in a single Write call (so a crash tears only the final write:
// replay keeps its frames up to the tear), applying the fsync policy.
func (l *Log) append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stageLocked(rec); err != nil {
		return err
	}
	return l.writeLocked()
}

// stageLocked encodes rec framed onto the staged frames. Caller holds
// l.mu.
func (l *Log) stageLocked(rec *Record) error {
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	buf, err := appendRecordFrame(l.buf, rec)
	if err != nil {
		return err // encoding errors are caller bugs, not log failures
	}
	l.buf = buf
	l.frames++
	return nil
}

// writeLocked writes every staged frame in one Write call and applies
// the fsync policy. Nothing staged, nothing written. Caller holds l.mu.
func (l *Log) writeLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	start := time.Now()
	if _, err := l.f.Write(l.buf); err != nil {
		return l.fail(err)
	}
	l.dirty = true
	l.met.observeAppend(time.Since(start), len(l.buf), l.frames)
	l.buf, l.frames = l.buf[:0], 0
	if l.opts.Fsync == FsyncAlways {
		return l.syncLocked()
	}
	return nil
}

// Flush writes every staged frame in one Write call (and, under
// FsyncAlways, syncs it). A flush with nothing staged writes nothing.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	return l.writeLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.dirty = false
	l.met.observeFsync(time.Since(start))
	return nil
}

// Sync writes the staged frames and flushes everything written to
// stable storage, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	if err := l.writeLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

// AppendTx logs one committed transaction. With FsyncAlways the record
// is durable when this returns.
func (l *Log) AppendTx(ts vclock.Timestamp, rows []TxRow) error {
	return l.append(&Record{Kind: KindTx, TS: ts, Rows: rows})
}

// AppendCreateTable logs table creation.
func (l *Log) AppendCreateTable(name string, schema relation.Schema) error {
	return l.append(&Record{Kind: KindCreateTable, Table: name, Schema: schema})
}

// AppendDropTable logs table removal.
func (l *Log) AppendDropTable(name string) error {
	return l.append(&Record{Kind: KindDropTable, Table: name})
}

// AppendCQRegister logs a CQ installation.
func (l *Log) AppendCQRegister(e *CQEntry) error {
	return l.append(&Record{Kind: KindCQRegister, CQ: e})
}

// AppendCQExec logs one execution of a CQ: the record, and every frame
// staged ahead of it, is written when it returns (durable too, under
// FsyncAlways).
func (l *Log) AppendCQExec(name string, seq int, execTS vclock.Timestamp, terminated bool) error {
	return l.append(&Record{Kind: KindCQExec, Name: name, Seq: seq, ExecTS: execTS, Terminated: terminated})
}

// StageCQExec logs one execution of a CQ without writing it: the frame
// joins the staged frames, and the next write of any kind (Flush
// first of all) carries it. Nothing covered by a staged record may be
// delivered before a flush that started after it was staged.
func (l *Log) StageCQExec(name string, seq int, execTS vclock.Timestamp, terminated bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stageLocked(&Record{Kind: KindCQExec, Name: name, Seq: seq, ExecTS: execTS, Terminated: terminated})
}

// AppendCQDrop logs a CQ removal.
func (l *Log) AppendCQDrop(name string) error {
	return l.append(&Record{Kind: KindCQDrop, Name: name})
}

// Rotate writes the staged frames, syncs and closes the current
// segment and starts the next one, returning the new segment's number.
// Records appended after Rotate land in the new segment; a checkpoint
// cut at the rotation point therefore covers everything before it.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	if err := l.writeLocked(); err != nil {
		return 0, err
	}
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		return 0, l.fail(err)
	}
	if err := l.openSegment(l.seg + 1); err != nil {
		return 0, l.fail(err)
	}
	return l.seg, nil
}

// Close writes the staged frames, syncs and closes the log. Safe to
// call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.broken != nil {
		err = l.broken
		l.f.Close()
	} else {
		if werr := l.writeLocked(); werr != nil {
			err = werr
		} else if serr := l.syncLocked(); serr != nil {
			err = serr
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	tickStop := l.tickStop
	l.mu.Unlock()
	if tickStop != nil {
		close(tickStop)
		<-l.tickDone
	}
	return err
}

// ---------------------------------------------------------------------
// read path

// ScanResult is what recovery finds in a log directory.
type ScanResult struct {
	// Checkpoint is the newest complete checkpoint, or nil.
	Checkpoint *Checkpoint
	// Records is the count of WAL records replayed (passed to handle).
	Records int
	// Torn is the count of segments that ended in a torn record.
	Torn int
}

// Scan recovers a log directory: it locates the newest valid
// checkpoint (calling onCheckpoint, when non-nil, so the caller can
// restore it first), then replays every record in segments numbered at
// or after the checkpoint's cut (all segments when there is none), in
// segment order, calling handle for each.
//
// A torn or corrupt record ends its segment's replay cleanly —
// everything before it is used, everything after is unreachable anyway
// because appends past a tear never happened (Open starts fresh
// segments). Errors from onCheckpoint/handle abort the scan; they
// indicate the records are inconsistent with the state being rebuilt,
// which is real corruption, not a crash artifact.
func Scan(fs FS, dir string, onCheckpoint func(*Checkpoint) error, handle func(*Record) error) (*ScanResult, error) {
	if fs == nil {
		fs = OSFS{}
	}
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}

	// Newest checkpoint that loads completely wins; earlier ones are
	// fallbacks for a crash during checkpoint GC.
	var ckptSeqs []uint64
	segs := make([]uint64, 0, len(names))
	for _, name := range names {
		if seq, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok {
			ckptSeqs = append(ckptSeqs, seq)
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] > ckptSeqs[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	res := &ScanResult{}
	from := uint64(0)
	for _, seq := range ckptSeqs {
		ck, err := readCheckpoint(fs, filepath.Join(dir, ckptName(seq)))
		if err != nil {
			// Unreadable checkpoint (torn rename window, partial GC):
			// fall back to the next-newest.
			continue
		}
		res.Checkpoint = ck
		from = ck.Seg
		break
	}
	if res.Checkpoint != nil && onCheckpoint != nil {
		if err := onCheckpoint(res.Checkpoint); err != nil {
			return nil, err
		}
	}

	for _, seq := range segs {
		if seq < from {
			continue
		}
		torn, err := scanSegment(fs, filepath.Join(dir, segName(seq)), func(rec *Record) error {
			res.Records++
			return handle(rec)
		})
		if err != nil {
			return nil, fmt.Errorf("wal: segment %d: %w", seq, err)
		}
		if torn {
			res.Torn++
		}
	}
	return res, nil
}

// scanSegment replays one segment, reporting whether it ended torn.
func scanSegment(fs FS, path string, handle func(*Record) error) (torn bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		// Shorter than the magic: the crash hit the very first write.
		return true, nil
	}
	if string(magic[:]) != segMagic {
		return false, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	fr := &frameReader{r: f}
	for {
		payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt) {
			// The tail of this segment was being written when the
			// process died; everything after the tear was never
			// acknowledged as durable.
			return true, nil
		}
		if err != nil {
			return false, err
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// The frame checksum passed but the structure is invalid:
			// that is not a crash artifact (a tear fails the checksum),
			// it is real corruption or version skew. Surface it.
			return false, derr
		}
		if err := handle(rec); err != nil {
			return false, err
		}
	}
}
