package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// ackTimeout bounds how long the harness waits for outstanding
// notifications before it declares them lost.
const ackTimeout = 5 * time.Second

// world is one assembled engine with its seeded tables, registered
// queries and the generator that feeds it.
type world struct {
	*stream
	cqs []cqDef

	store   *storage.Store
	mgr     *cq.Manager
	sys     *durable.System // nil for in-memory workloads
	dataDir string

	tr    *tracker
	spans *spanLog // nil unless tracing

	// Harness timers over the measured window.
	pollNS time.Duration
	polls  int
	lag    []time.Duration // open loop: issue minus due

	// Per-CQ set-up timings (traced runs only), microseconds.
	parseUS, planUS, prepareUS, registerUS []float64
}

// cqConfig is the manager configuration continual.OpenWith and
// OpenDurable build from default Options, plus the workload's switches.
func cqConfig(w *workload, reg *obs.Registry) cq.Config {
	return cq.Config{
		UseDRA:         true,
		AutoGC:         true,
		Strategy:       dra.StrategyAuto,
		Metrics:        reg,
		Push:           w.push,
		ShareTemplates: w.share,
	}
}

func (wd *world) open() error {
	reg := obs.NewRegistry()
	if !wd.w.durable {
		wd.store = storage.NewStore()
		wd.store.Instrument(reg)
		wd.mgr = cq.NewManagerConfig(wd.store, cqConfig(wd.w, reg))
		return nil
	}
	sys, err := durable.Open(durable.Options{
		Dir:             wd.dataDir,
		Fsync:           wal.FsyncInterval,
		CheckpointEvery: wd.w.checkpointEvery,
		Metrics:         reg,
		CQ:              cqConfig(wd.w, reg),
	})
	if err != nil {
		return fmt.Errorf("durable open: %w", err)
	}
	wd.sys, wd.store, wd.mgr = sys, sys.Store, sys.Manager
	return nil
}

// close shuts the engine down and removes its data directory.
func (wd *world) close() error {
	var err error
	if wd.sys != nil {
		err = wd.sys.Close()
	} else if wd.mgr != nil {
		err = wd.mgr.Close()
	}
	wd.sys, wd.mgr, wd.store = nil, nil, nil
	if wd.dataDir != "" {
		if rerr := os.RemoveAll(wd.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

// setUp opens the engine, seeds the tables, registers every query and
// runs the warm-up transactions: everything setup_s covers.
func setUp(w *workload, seed int64, scale float64, dataDir string, timeCQs bool) (*world, error) {
	wd := &world{stream: newStream(w, seed, scale), cqs: w.cqs(scale), dataDir: dataDir}
	if !w.durable {
		wd.dataDir = ""
	} else if err := os.RemoveAll(dataDir); err != nil { // a crashed run's leftovers
		return nil, err
	}
	if err := wd.open(); err != nil {
		return nil, err
	}
	err := wd.seed(
		func(def tableDef) error { return wd.mgr.CreateTable(def.name, def.schema) },
		func(ops []op) error { _, err := wd.commit(ops); return err })
	if err != nil {
		return wd, err
	}
	if err := wd.register(timeCQs); err != nil {
		return wd, err
	}
	if w.ticker > 0 {
		if err := wd.mgr.Start(w.ticker); err != nil {
			return wd, err
		}
	}
	if err := wd.closedLoop(phaseWarm, func(done int) bool { return done >= wd.w.warmup }); err != nil {
		return wd, fmt.Errorf("warm-up: %w", err)
	}
	return wd, nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// register installs the workload's queries and subscribes the witnesses.
func (wd *world) register(timeCQs bool) error {
	witnesses := 0
	for _, c := range wd.cqs {
		if c.witness {
			witnesses++
		}
	}
	wd.tr = newTracker(witnesses)
	wd.tr.spans = wd.spans
	wi := 0
	for _, c := range wd.cqs {
		if timeCQs {
			if err := wd.timeStages(c); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := wd.mgr.Register(cq.Def{Name: c.name, Query: c.query, Trigger: c.trigger, NotifyEmpty: c.witness}); err != nil {
			return fmt.Errorf("register %s: %w", c.name, err)
		}
		if timeCQs {
			wd.registerUS = append(wd.registerUS, usSince(t0))
		}
		var fn func(cq.Notification, bool)
		if c.witness {
			reads, err := wd.readsOf(c)
			if err != nil {
				return err
			}
			wd.tr.reads[wi] = reads
			fn = wd.tr.callback(wi)
			wi++
		}
		if c.leaf {
			fn = wd.tr.leafCallback(fn)
		}
		if fn != nil {
			if _, err := wd.mgr.SubscribeFunc(c.name, fn); err != nil {
				return fmt.Errorf("subscribe %s: %w", c.name, err)
			}
		}
	}
	return nil
}

// readsOf marks which of the workload's base tables a query reads.
func (wd *world) readsOf(c cqDef) ([]bool, error) {
	plan, err := planOf(c.query, wd.store.Live())
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", c.name, err)
	}
	reads := make([]bool, len(wd.tables))
	for _, scan := range algebra.Tables(plan) {
		for t, def := range wd.tables {
			if def.name == scan.Table {
				reads[t] = true
			}
		}
	}
	return reads, nil
}

// planOf parses, plans and optimizes a query the way Manager.Register
// does.
func planOf(query string, cat algebra.Catalog) (algebra.Plan, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	plan, err := algebra.PlanSelect(stmt, cat)
	if err != nil {
		return nil, err
	}
	return algebra.Optimize(plan), nil
}

// timeStages times the stand-alone layer calls a registration is made
// of: sql parse, algebra plan + optimize, dra prepare.
func (wd *world) timeStages(c cqDef) error {
	t0 := time.Now()
	stmt, err := sql.ParseSelect(c.query)
	if err != nil {
		return fmt.Errorf("parse %s: %w", c.name, err)
	}
	wd.parseUS = append(wd.parseUS, usSince(t0))
	t0 = time.Now()
	plan, err := algebra.PlanSelect(stmt, wd.store.Live())
	if err != nil {
		return fmt.Errorf("plan %s: %w", c.name, err)
	}
	plan = algebra.Optimize(plan)
	wd.planUS = append(wd.planUS, usSince(t0))
	if c.kind == "select" || c.kind == "join" {
		t0 = time.Now()
		prep, err := dra.NewEngine().Prepare(plan, dra.StrategyAuto)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", c.name, err)
		}
		wd.prepareUS = append(wd.prepareUS, usSince(t0))
		prep.Close()
	}
	return nil
}

// commit applies one generated transaction through TID-addressed
// storage.Tx operations and reports its commit timestamp.
func (wd *world) commit(ops []op) (vclock.Timestamp, error) {
	tx := wd.store.Begin()
	if err := wd.stage(tx, ops); err != nil {
		return 0, err
	}
	return tx.Commit()
}

// commitNext generates and commits the next transaction and records it
// with the tracker. due is the instant latency is timed from; zero means
// now (closed loop).
func (wd *world) commitNext(phase int8, due time.Time, sample bool) error {
	table, ops := wd.next()
	c0 := time.Now()
	if due.IsZero() {
		due = c0
	}
	ts, err := wd.commit(ops)
	c1 := time.Now()
	if err != nil {
		return fmt.Errorf("commit %d: %w", wd.txn, err)
	}
	if phase != phaseWarm && wd.spans != nil {
		wd.spans.add("storage.Tx.Commit", c0, c1, -1, int64(ts))
	}
	wd.tr.add(ts, table, due, phase, sample)
	return nil
}

// closedLoop issues transactions one group at a time, each group waiting
// for its notifications before the next starts, until stop(commits done)
// is true. Poll workloads commit pollEvery transactions then Poll; push
// workloads commit one and wait for the router to deliver.
func (wd *world) closedLoop(phase int8, stop func(done int) bool) error {
	done := 0
	for !stop(done) {
		group := wd.w.pollEvery
		for i := 0; i < group; i++ {
			if err := wd.commitNext(phase, time.Time{}, i == group-1); err != nil {
				return err
			}
		}
		done += group
		if wd.w.push {
			if !wd.tr.waitAll(ackTimeout) {
				return fmt.Errorf("push: %d commits not notified within %v", wd.tr.unacked(), ackTimeout)
			}
			continue
		}
		p0 := time.Now()
		_, _ = wd.mgr.Poll() // refresh errors are read from cq.refresh.errors
		p1 := time.Now()
		if phase != phaseWarm {
			wd.pollNS += p1.Sub(p0)
			wd.polls++
			if wd.spans != nil {
				wd.spans.add("cq.Manager.Poll", p0, p1, -1, int64(wd.store.Now()))
			}
		}
		if n := wd.tr.unacked(); n > 0 {
			return fmt.Errorf("poll: %d commits not notified by their round", n)
		}
	}
	return nil
}

// openLoop issues transactions on a fixed schedule of rate per second
// for d, whatever the engine's pace, timing each from its due instant.
func (wd *world) openLoop(rate int, d time.Duration) error {
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wd.lag = append(wd.lag, time.Since(due))
		if err := wd.commitNext(phaseOpen, due, true); err != nil {
			return err
		}
	}
	return nil
}

// usage is the process's resource use at one instant.
type usage struct {
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcPause   time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		mallocs: ms.Mallocs, allocated: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// measured is what one timed window yields.
type measured struct {
	before, after usage
	statsBefore   obs.Snapshot
	statsAfter    obs.Snapshot
	closedStart   time.Time
	closedEnd     time.Time
}

// measure runs the workload's timed window: the open-loop phase first
// when the workload has one, then the closed loop for the rest.
func (wd *world) measure(seconds float64) (*measured, error) {
	m := &measured{statsBefore: wd.mgr.Stats()}
	total := time.Duration(seconds * float64(time.Second))
	// Start every window from a collected heap: what set-up left behind
	// (the earlier set-ups of the run included) is not the window's cost.
	runtime.GC()
	m.before = readUsage()
	closed := total
	if wd.w.openRate > 0 {
		open := time.Duration(float64(total) * wd.w.openShare)
		closed = total - open
		if err := wd.openLoop(wd.w.openRate, open); err != nil {
			return nil, err
		}
		// A backlog left at the end of the schedule is drained before
		// the closed loop starts; what never arrives is a miss.
		wd.tr.waitAll(ackTimeout)
	}
	m.closedStart = time.Now()
	deadline := m.closedStart.Add(closed)
	if err := wd.closedLoop(phaseClosed, func(int) bool { return !time.Now().Before(deadline) }); err != nil {
		return nil, err
	}
	m.closedEnd = time.Now()
	m.after = readUsage()
	m.statsAfter = wd.mgr.Stats()
	return m, nil
}

// settle brings every query up to date with the last commit: queued push
// work drains, one more round runs, and queries that lag by design are
// refreshed.
func (wd *world) settle() error {
	wd.mgr.FlushPush()
	if _, err := wd.mgr.Poll(); err != nil {
		return err
	}
	wd.mgr.FlushPush()
	for _, c := range wd.cqs {
		if c.stale {
			if err := wd.mgr.Refresh(c.name); err != nil {
				return err
			}
		}
	}
	wd.mgr.FlushPush()
	return nil
}

// oracle compares every oracle query's maintained result with complete
// re-evaluation over the live store. It returns checks made and failed.
func (wd *world) oracle(mgr *cq.Manager, store *storage.Store) (checked, failed int, firstErr error) {
	for _, c := range wd.cqs {
		if !c.oracle {
			continue
		}
		checked++
		err := func() error {
			plan, err := planOf(c.query, store.Live())
			if err != nil {
				return err
			}
			want, err := dra.InitialResult(plan, store.Live())
			if err != nil {
				return err
			}
			got, err := mgr.Result(c.name)
			if err != nil {
				return err
			}
			if !got.EqualByTID(want) {
				return fmt.Errorf("maintained result has %d rows, complete re-evaluation %d, or rows differ", got.Len(), want.Len())
			}
			return nil
		}()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("oracle %s: %w", c.name, err)
			}
		}
	}
	return checked, failed, firstErr
}

// recoverCheck closes a durable engine, reopens it from disk and checks
// the recovered results against the oracle again. It reports the
// close+open time.
func (wd *world) recoverCheck() (ms float64, checked, failed int, err error) {
	if wd.sys == nil {
		return 0, 0, 0, nil
	}
	t0 := time.Now()
	if err := wd.sys.Close(); err != nil {
		return 0, 0, 0, fmt.Errorf("close before recovery: %w", err)
	}
	wd.sys = nil
	if err := wd.open(); err != nil {
		return 0, 0, 0, err
	}
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if got := len(wd.mgr.Names()); got != len(wd.cqs) {
		return ms, 1, 1, fmt.Errorf("recovery resumed %d of %d queries", got, len(wd.cqs))
	}
	// A recovered query resumes at its last logged execution; one round
	// brings any query whose last execution predates the final commits
	// up to date, differentially.
	if serr := wd.settle(); serr != nil {
		return ms, 1, 1, serr
	}
	checked, failed, err = wd.oracle(wd.mgr, wd.store)
	return ms, checked, failed, err
}

// heapLiveMB is the live heap after two forced collections.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
