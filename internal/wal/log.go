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
// an empty segment). legacySegMagic opens segments written before
// derived commits rode their CQ records (Record.Legacy).
const (
	segMagic       = "CQWAL002"
	legacySegMagic = "CQWAL001"
)

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
// of any kind — Flush, an append, Sync, a rotation's cut, Close —
// carries every staged frame ahead of its own in the same Write call. A
// crash can therefore lose only a suffix of the calls: frames staged
// and never written, and at most a torn final write.
//
// No fsync runs under mu, the lock every append takes: syncs run under
// syncMu alone, so an append waits out only a sync it asked for (under
// FsyncAlways, the one that covers its own frame). Two invariants hold
// in every policy: under FsyncAlways an acknowledged write is synced,
// whichever segment holds it; and no record reaches segment N before
// every byte written to segment N-1 is synced — while a rotation's old
// segment awaits its sync, writes wait in the buffer.
type Log struct {
	fs   FS
	dir  string
	opts Options
	met  *metrics

	// Lock order: ckMu, syncMu, mu.
	ckMu   sync.Mutex // serializes WriteCheckpoint calls
	syncMu sync.Mutex // serializes syncs and the closing of segments
	mu     sync.Mutex
	seg    uint64 // current segment number
	f      File
	// prev is the segment a rotation's cut left, until a sync (the
	// rotation's Finish, or any sync before it) has synced and closed
	// it. While it is set, writes wait in buf.
	prev     File
	rotating bool  // a Rotation is between BeginRotate and Finish
	dirty    bool  // f written since the last sync of it began
	broken   error // sticky first failure
	closed   bool
	// buf holds the frames staged for the next write, in call order;
	// an append encodes its own frame after them and writes the lot in
	// one Write. Reused across writes.
	buf []byte
	// staged counts the frames ever staged; written, those of them
	// handed to a file; synced, those known to be on stable storage.
	staged, written, synced uint64
	// reg is the registry fold of every record staged, in log order.
	reg Registry

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
	if l.f, err = l.createSegment(next); err != nil {
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		l.tickStop = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// createSegment creates the segment file, writes its magic, and makes
// both durable (unless FsyncNever). It takes no lock.
func (l *Log) createSegment(seg uint64) (File, error) {
	f, err := l.fs.Create(filepath.Join(l.dir, segName(seg)))
	if err != nil {
		return nil, fmt.Errorf("wal: create segment %d: %w", seg, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: segment %d magic: %w", seg, err)
	}
	if l.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: segment %d sync: %w", seg, err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync dir: %w", err)
		}
	}
	return f, nil
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

// usableLocked reports why the log takes no more operations: ErrClosed,
// or its sticky failure. Caller holds l.mu.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.broken
}

// append encodes rec (if any) framed after the staged frames and writes
// them all in a single Write call (so a crash tears only the final
// write: replay keeps its frames up to the tear). Under FsyncAlways it
// returns once every frame staged so far is synced.
func (l *Log) append(rec *Record) error {
	l.mu.Lock()
	err := l.usableLocked()
	if err == nil && rec != nil {
		err = l.stageLocked(rec)
	}
	if err == nil {
		err = l.writeLocked()
	}
	target, synced := l.staged, l.synced
	l.mu.Unlock()
	if err != nil || l.opts.Fsync != FsyncAlways || synced >= target {
		return err
	}
	return l.syncTo(target)
}

// stageLocked encodes rec framed onto the staged frames and folds it
// into the registry. A record that does not encode or fold is a caller
// bug, not a log failure: it is not staged. Caller holds l.mu.
func (l *Log) stageLocked(rec *Record) error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	buf, err := appendRecordFrame(l.buf, rec)
	if err == nil {
		err = l.reg.Apply(rec)
	}
	if err != nil {
		return err
	}
	l.buf = buf
	l.staged++
	return nil
}

// writeLocked writes every staged frame in one Write call. Nothing
// staged, nothing written; while a rotation's old segment awaits its
// sync, the frames wait too. Caller holds l.mu.
func (l *Log) writeLocked() error {
	if len(l.buf) == 0 || l.prev != nil {
		return nil
	}
	start := time.Now()
	if _, err := l.f.Write(l.buf); err != nil {
		return l.fail(err)
	}
	l.dirty = true
	l.met.observeAppend(time.Since(start), len(l.buf), int(l.staged-l.written))
	l.written = l.staged
	l.buf = l.buf[:0]
	return nil
}

// Flush writes every staged frame in one Write call. Under FsyncAlways
// it returns once they are synced — and so are the frames another write
// carried for it, the cut of a rotation included. A flush with nothing
// staged writes nothing.
func (l *Log) Flush() error { return l.append(nil) }

// syncTo returns once the first target staged frames are on stable
// storage: at once if a finished sync covered them, else after a sync
// of its own.
func (l *Log) syncTo(target uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.synced >= target {
		return nil
	}
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.syncHeld()
}

// syncHeld writes the staged frames and syncs everything written: the
// old segment of a rotation first, then the current one. Caller holds
// syncMu and mu; mu is released across each fsync.
func (l *Log) syncHeld() error {
	if err := l.syncPrevHeld(); err != nil {
		return err
	}
	if err := l.writeLocked(); err != nil {
		return err
	}
	if !l.dirty {
		// No sync is running (this one holds syncMu), so the last one
		// covered every write.
		l.synced = l.written
		return nil
	}
	f, w := l.f, l.written
	l.dirty = false
	l.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	l.mu.Lock()
	if err != nil {
		return l.fail(err)
	}
	l.synced = w
	l.met.observeFsync(time.Since(start))
	return nil
}

// syncPrevHeld syncs and closes the segment a rotation's cut left, if
// it is still open, then writes the frames that waited for it. A
// failure breaks the log. Caller holds syncMu and mu; mu is released
// across the fsync.
func (l *Log) syncPrevHeld() error {
	prev := l.prev
	if prev == nil {
		return nil
	}
	l.mu.Unlock()
	start := time.Now()
	err := prev.Sync()
	if err == nil {
		err = prev.Close()
	}
	l.mu.Lock()
	if err != nil {
		return l.fail(err)
	}
	l.met.observeFsync(time.Since(start))
	l.prev = nil
	return l.writeLocked()
}

// Sync writes the staged frames and flushes everything written to
// stable storage, regardless of policy. Appends go on while it syncs.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.syncHeld()
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

// AppendCQ logs a CQ record: a registration, a drop, or an execution
// written at once — one whose change commits into the CQ's INTO target,
// written as that commit's write-ahead step (rec.TS).
func (l *Log) AppendCQ(rec *Record) error {
	return l.append(rec)
}

// StageCQExec logs one execution of a CQ without writing it: the frame
// joins the staged frames, and the next write of any kind (Flush
// first of all) carries it. Nothing covered by a staged record may be
// delivered before a flush that started after it was staged. An
// execution of a CQ the log does not hold registered is refused.
func (l *Log) StageCQExec(name string, seq int, execTS vclock.Timestamp, terminated bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stageLocked(&Record{Kind: KindCQExec, Name: name, Seq: seq, ExecTS: execTS, Terminated: terminated})
}

// SeedRegistry starts the registry fold at the records already in the
// log's directory (ScanResult.CQs), before any CQ record is logged.
func (l *Log) SeedRegistry(entries []CQEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reg.seed(entries)
}

// Rotation moves the log to its next segment in three steps, so that
// the caller can cut where its own state is consistent while the disk
// work happens outside its locks: BeginRotate creates, stamps and syncs
// the next segment; Cut writes the staged frames and switches appends
// over, without an fsync; Finish syncs and closes the old segment.
type Rotation struct {
	l   *Log
	f   File
	seg uint64
	cut bool
}

// BeginRotate prepares the next segment; appends go on to the current
// one meanwhile. One rotation runs at a time, and every one must end in
// Finish.
func (l *Log) BeginRotate() (*Rotation, error) {
	l.mu.Lock()
	err := l.usableLocked()
	if err == nil && l.rotating {
		err = errors.New("wal: a rotation is already in progress")
	}
	seg := l.seg + 1
	l.rotating = err == nil
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	f, err := l.createSegment(seg)
	if err != nil {
		l.mu.Lock()
		l.rotating = false
		l.mu.Unlock()
		return nil, err
	}
	return &Rotation{l: l, f: f, seg: seg}, nil
}

// Cut writes the staged frames to the current segment and makes the
// prepared one current, returning its number and the registry fold of
// every record before it: records appended after Cut land in the new
// segment, so a checkpoint cut here covers everything before. It does
// no fsync; the old segment is synced by Finish, and until then appends
// wait in the log's buffer.
func (r *Rotation) Cut() (uint64, []CQEntry, error) {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, nil, err
	}
	if err := l.writeLocked(); err != nil {
		return 0, nil, err
	}
	l.prev, l.f, l.seg, l.dirty = l.f, r.f, r.seg, false
	r.cut = true
	return r.seg, l.reg.Entries(), nil
}

// Finish ends the rotation. After a cut it syncs and closes the old
// segment (a failure breaks the log) and writes the frames that waited
// for it; without one it removes the prepared segment.
func (r *Rotation) Finish() error {
	l := r.l
	if !r.cut {
		r.f.Close()
		l.fs.Remove(filepath.Join(l.dir, segName(r.seg)))
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rotating = false
	if !r.cut || l.broken != nil {
		return l.broken
	}
	return l.syncPrevHeld()
}

// Rotate runs a whole rotation: it writes the staged frames, syncs and
// closes the current segment and starts the next one, returning the new
// segment's number.
func (l *Log) Rotate() (uint64, error) {
	r, err := l.BeginRotate()
	if err != nil {
		return 0, err
	}
	seg, _, err := r.Cut()
	if ferr := r.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	return seg, nil
}

// Close writes the staged frames, syncs and closes the log. Safe to
// call twice.
func (l *Log) Close() error {
	l.syncMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return nil
	}
	l.closed = true
	err := l.broken
	if err == nil {
		err = l.syncHeld()
	}
	if l.prev != nil {
		l.prev.Close()
		l.prev = nil
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	tickStop := l.tickStop
	l.mu.Unlock()
	l.syncMu.Unlock()
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
	// CQs is the registry fold of the checkpoint and the replayed
	// records, in registration order.
	CQs []CQEntry
}

// Scan recovers a log directory: it locates the newest valid
// checkpoint (calling onCheckpoint, when non-nil, so the caller can
// restore it first), then replays every record in segments numbered at
// or after the checkpoint's cut (all segments when there is none), in
// segment order, folding it into the registry (ScanResult.CQs) and
// calling handle for it.
//
// A checkpoint that does not load is passed over for the one before it
// (or for none), but only while the segments the fallback replays from
// are all there: when the first segment at or after its cut is not the
// cut itself (segment 0 without a checkpoint), the state only the
// passed-over checkpoint held is gone and Scan refuses, naming it. A
// checkpoint in the retired CQCKPT01 format is never passed over
// (ErrCheckpointV1).
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
	var passed error // why the newest checkpoint passed over did not load
	for _, seq := range ckptSeqs {
		ck, err := readCheckpoint(fs, filepath.Join(dir, ckptName(seq)))
		if errors.Is(err, ErrCheckpointV1) {
			return nil, fmt.Errorf("%s: %w", ckptName(seq), err)
		}
		if err != nil {
			// Unreadable checkpoint (torn rename window, partial GC):
			// fall back to the next-newest.
			if passed == nil {
				passed = fmt.Errorf("%s: %w", ckptName(seq), err)
			}
			continue
		}
		res.Checkpoint = ck
		from = ck.Seg
		break
	}
	if i := sort.Search(len(segs), func(i int) bool { return segs[i] >= from }); passed != nil && i < len(segs) && segs[i] != from {
		return nil, fmt.Errorf("wal: replay would start at segment %d, not at %d, past a checkpoint that does not load: %w", segs[i], from, passed)
	}
	var reg Registry
	if res.Checkpoint != nil {
		reg.seed(res.Checkpoint.CQs)
		if onCheckpoint != nil {
			if err := onCheckpoint(res.Checkpoint); err != nil {
				return nil, err
			}
		}
	}

	for _, seq := range segs {
		if seq < from {
			continue
		}
		torn, err := scanSegment(fs, filepath.Join(dir, segName(seq)), func(rec *Record) error {
			res.Records++
			if err := reg.Apply(rec); err != nil {
				return err
			}
			return handle(rec)
		})
		if err != nil {
			return nil, fmt.Errorf("wal: segment %d: %w", seq, err)
		}
		if torn {
			res.Torn++
		}
	}
	res.CQs = reg.Entries()
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
	legacy := string(magic[:]) == legacySegMagic
	if !legacy && string(magic[:]) != segMagic {
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
		rec.Legacy = legacy
		if err := handle(rec); err != nil {
			return false, err
		}
	}
}
