// Package durable binds the storage engine, the CQ manager, and the
// write-ahead log into a crash-recoverable system.
//
// The contract follows the paper's differential spirit: persistence
// records inputs, never derivations. Every committed client transaction
// appends its delta to the WAL before the store applies it; every CQ
// refresh logs only its bookkeeping (seq, execution timestamp,
// terminated), written before its notification goes out (cq.Journal);
// a materializing CQ's commit into its INTO target is logged as that
// record, not as rows. A CQ's result is never logged either: the latest
// checkpoint restores a consistent cut, the WAL tail replays the
// transactions past it and re-derives the INTO commits in log order
// (cq.Manager.Replay), each other CQ re-derives its result by one
// initial execution at its last logged execution (paper §4.2), and the
// first post-crash Poll computes an ordinary differential catch-up over
// the replayed window.
package durable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// Options configures a durable system.
type Options struct {
	// Dir is the data directory holding WAL segments and checkpoints.
	Dir string
	// FS overrides the filesystem (fault injection in tests); nil uses
	// the real one.
	FS wal.FS
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync wal.FsyncPolicy
	// SyncEvery is the FsyncInterval period (default 50ms).
	SyncEvery time.Duration
	// CheckpointEvery triggers an automatic background checkpoint after
	// that many committed transactions, derived commits included. 0
	// means manual checkpoints only (Checkpoint / Close).
	CheckpointEvery int
	// Metrics receives wal.* and recovery instruments when non-nil.
	Metrics *obs.Registry
	// Watermarks bounds retained differential state (degraded mode):
	// see storage.Watermarks. Applied once recovery is done (no emergency
	// GC runs mid-replay), so a restart into an already-overloaded store
	// reports overload immediately.
	Watermarks storage.Watermarks
	// CQ configures the manager. The zero value means complete
	// re-evaluation with no auto-GC; callers wanting the engine
	// defaults should set UseDRA and AutoGC explicitly (continual.Open*
	// does).
	CQ cq.Config
}

// RecoveryInfo summarizes what Open rebuilt.
type RecoveryInfo struct {
	// FromCheckpoint reports whether a checkpoint seeded the state.
	FromCheckpoint bool
	// Records is the number of WAL records replayed past the cut.
	Records int
	// Torn is the number of segments that ended in a torn record
	// (at most one per crash, always the final segment written).
	Torn int
	// CQs is the number of continual queries resumed.
	CQs int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// HasState reports whether recovery found anything at all — used by
// cqd to refuse re-seeding an existing data directory.
func (r RecoveryInfo) HasState() bool {
	return r.FromCheckpoint || r.Records > 0
}

// System is a store + CQ manager pair whose committed state survives
// crashes via the WAL.
type System struct {
	Store    *storage.Store
	Manager  *cq.Manager
	Recovery RecoveryInfo

	log     *wal.Log
	journal journal
	every   int
	commits atomic.Int64
	ckptMu  sync.Mutex // serializes checkpoint construction
	inAuto  atomic.Bool
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// Open recovers (or initializes) the data directory and returns a
// running system. Recovery order: restore the newest loadable
// checkpoint, replay the WAL tail through the store, the manager
// (cq.Manager.Replay) and the CQ registry fold (wal.Scan), open a fresh
// WAL segment seeded with the fold, wire the write-ahead sinks, resume
// every other surviving CQ, then apply the watermarks.
func Open(opts Options) (*System, error) {
	fs := opts.FS
	if fs == nil {
		fs = wal.OSFS{}
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("durable: create %s: %w", opts.Dir, err)
	}
	store := storage.NewStore()
	if opts.Metrics != nil {
		store.Instrument(opts.Metrics)
	}
	s := &System{Store: store, every: opts.CheckpointEvery}
	s.journal.s = s
	cfg := opts.CQ
	if cfg.Metrics == nil {
		cfg.Metrics = opts.Metrics
	}
	cfg.Journal = &s.journal // journals nothing until the log is open
	s.Manager = cq.NewManagerConfig(store, cfg)
	fail := func(err error) (*System, error) {
		_ = s.Manager.Close()
		if s.log != nil {
			_ = s.log.Close()
		}
		return nil, err
	}

	start := time.Now()
	res, err := wal.Scan(fs, opts.Dir, func(ck *wal.Checkpoint) error {
		if err := store.Restore(storage.State{TS: ck.TS, NextTID: ck.NextTID, Tables: ck.Tables}); err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		for i := range ck.CQs {
			if err := s.Manager.Replay(&wal.Record{Kind: wal.KindCQRegister, CQ: &ck.CQs[i]}); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		return nil
	}, func(rec *wal.Record) (err error) {
		switch rec.Kind {
		case wal.KindCreateTable:
			err = store.CreateTable(rec.Table, rec.Schema)
		case wal.KindDropTable:
			err = store.DropTable(rec.Table)
		case wal.KindTx:
			err = store.ApplyReplay(rec.TS, rec.Rows)
		}
		if err != nil {
			return err
		}
		return s.Manager.Replay(rec)
	})
	if err != nil {
		return fail(fmt.Errorf("durable: recover %s: %w", opts.Dir, err))
	}

	s.log, err = wal.Open(opts.Dir, wal.Options{
		FS:        fs,
		Fsync:     opts.Fsync,
		SyncEvery: opts.SyncEvery,
		Metrics:   opts.Metrics,
	})
	if err != nil {
		return fail(fmt.Errorf("durable: open wal: %w", err))
	}
	s.log.SeedRegistry(res.CQs)
	// Write-ahead wiring: the store logs commits and DDL through us,
	// the manager journals registry changes and executions into the
	// log. Replay is done, so nothing gets double-logged.
	s.journal.Log = s.log
	store.SetWALSink(s)
	if err := s.Manager.Resume(res.CQs...); err != nil {
		return fail(fmt.Errorf("durable: resume: %w", err))
	}
	store.SetWatermarks(opts.Watermarks)

	s.Recovery = RecoveryInfo{
		FromCheckpoint: res.Checkpoint != nil,
		Records:        res.Records,
		Torn:           res.Torn,
		CQs:            len(res.CQs),
		Elapsed:        time.Since(start),
	}
	if opts.Metrics != nil {
		opts.Metrics.Gauge("wal.recovery_ns").Set(s.Recovery.Elapsed.Nanoseconds())
		opts.Metrics.Gauge("wal.records_replayed").Set(int64(res.Records))
	}
	return s, nil
}

// --- write-ahead sinks -------------------------------------------------

// AppendTx implements storage.WALSink: called under the store lock
// before the commit applies, so an error leaves the store untouched.
func (s *System) AppendTx(ts vclock.Timestamp, rows []wal.TxRow) error {
	if err := s.log.AppendTx(ts, rows); err != nil {
		return err
	}
	s.noteCommit()
	return nil
}

// journal is the manager's cq.Journal: the log, counting a derived
// commit's record toward the automatic checkpoint.
type journal struct {
	*wal.Log
	s *System
}

func (j *journal) AppendCQ(rec *wal.Record) error {
	err := j.Log.AppendCQ(rec)
	if err == nil && rec.TS != 0 {
		j.s.noteCommit()
	}
	return err
}

func (s *System) AppendCreateTable(name string, schema relation.Schema) error {
	return s.log.AppendCreateTable(name, schema)
}

func (s *System) AppendDropTable(name string) error {
	return s.log.AppendDropTable(name)
}

// noteCommit counts committed transactions toward the automatic
// checkpoint threshold. It runs under the store lock, so the actual
// checkpoint is taken on a fresh goroutine (its cut takes the store
// lock).
func (s *System) noteCommit() {
	if s.every <= 0 || s.closed.Load() {
		return
	}
	if s.commits.Add(1) < int64(s.every) {
		return
	}
	if !s.inAuto.CompareAndSwap(false, true) {
		return // one auto-checkpoint at a time; the counter keeps rising
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.inAuto.Store(false)
		// Best effort: a failed background checkpoint leaves the log
		// longer but the system correct; the next threshold retries.
		_ = s.Checkpoint()
	}()
}

// Checkpoint snapshots store, CQ registry and log position at one cut
// and writes them durably; concurrent calls serialize. The cut holds the
// store lock and, inside it, the log lock, whose registry fold of the
// records before the cut is what replaying them computes: no manager or
// instance lock. Health, not journaled, is read after the cut.
func (s *System) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// The rotation's disk work stays out of the cut: the next segment is
	// created and synced before it, the old one synced after it.
	rot, err := s.log.BeginRotate()
	if err != nil {
		return fmt.Errorf("durable: checkpoint cut: %w", err)
	}
	var seg uint64
	var cqs []wal.CQEntry
	st, err := s.Store.CheckpointState(func() error {
		var err error
		seg, cqs, err = rot.Cut()
		return err
	})
	if ferr := rot.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return fmt.Errorf("durable: checkpoint cut: %w", err)
	}
	s.Manager.ReadHealth(cqs)
	ck := &wal.Checkpoint{Seg: seg, TS: st.TS, NextTID: st.NextTID, Tables: st.Tables, CQs: cqs}
	if err := s.log.WriteCheckpoint(ck); err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	s.commits.Store(0)
	return nil
}

// Close takes a final checkpoint (so the next Open replays nothing),
// closes the manager, and closes the log. Safe to call once.
func (s *System) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.wg.Wait()
	// Drain the push queue first so every pending commit-driven refresh
	// executes (and journals) before the final checkpoint: the
	// checkpoint then covers those executions and the next open replays
	// nothing. No-op when push is disabled.
	s.Manager.FlushPush()
	ckErr := s.Checkpoint()
	mgErr := s.Manager.Close()
	lgErr := s.log.Close()
	if ckErr != nil {
		return ckErr
	}
	if mgErr != nil {
		return mgErr
	}
	return lgErr
}
