package cq

// The refresh pipeline: everything between "these CQs might be due" and
// "their subscribers have been told" exists once, here.
//
//	feeder → runRound → observeAndTestLocked → refreshGroup →
//	         guardedRefresh → refreshInstance → deliver → housekeep
//
// runRound is the one round driver. It takes a candidate set, snapshots
// the store once for the whole round (the round timestamp, then one
// window cache — the previous round's snapshot while the clock has not
// moved, see newRound), passes every candidate through the
// terminated/dropped/quarantine gate and the trigger test, refreshes the
// ones that fired on the worker pool, and runs the housekeeping. Four
// thin feeders decide only who the candidates are:
//
//	Poll                 every CQ of one cascade stage, stage by stage
//	pushDispatch         the one CQ a commit was routed to
//	pushDispatchTemplate the members of the template a commit was routed to
//	Refresh              one CQ, trigger forced, quarantine gate bypassed
//
// Because all four converge on guardedRefresh's monotonicity check
// (execTS <= lastExec skips), a push refresh and a racing Poll of the
// same CQ resolve to exactly one execution per timestamp: Seq stays
// gap-free and the notification sequence is the one polling alone would
// have produced.
//
// The round's window cache is a refresh's only source of windows: the
// trigger test reads its row windows, the step its columnar images
// (stepContext). The push router routes names, never rows.
//
// Lock order, stated once: Manager.mu → instance.mu → templateGroup.mu.
// The driver holds Manager.mu only for the snapshot and the trigger
// pass; the evaluation, journaling and delivery of a refresh run under
// the instance lock alone, whichever feeder started it.
//
// Under a journal, template members, which stream from their group,
// are group-committed: each worker of the round stages their
// execution records and queues their notifications, then writes the
// lot in one flush and delivers the queues (outbox) — at the end of its
// slice, and before any private refresh it takes on, which writes and
// delivers inline.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// round is the store snapshot every refresh of one round shares.
type round struct {
	// ts is the round timestamp: the execTS of every refresh in it.
	ts vclock.Timestamp
	// cache shares one delta-window image per (table, window) across
	// every round at ts — the paper's system active delta zone (Section
	// 5.4) folded once, however many CQs read it. It is the only source
	// of a refresh's windows and of its trigger's counts.
	cache *storage.WindowCache
	// n numbers the round among those the manager took (Manager.rounds):
	// two rounds at one timestamp share ts and cache, never n.
	n uint64
	// deadline is one refresh attempt's (guard.Deadline), set on the
	// attempt's own copy of the round and carried by its steps
	// (dra.Context.Deadline); zero when no budget is set.
	deadline time.Time
}

// newRound takes the snapshot: the clock, then a window cache. While the
// store clock still reads the previous round's timestamp, it returns that
// round again: a window (from, ts] cannot change once ts has been issued
// (a commit ticks the clock under the store's write lock before it
// appends), so every push dispatch, poll stage and template step at one
// timestamp reads one cache, and a burst of dispatches for one commit
// folds each window into its image once. The manager therefore
// holds one round's cache until the clock moves. Caller holds m.mu.
func (m *Manager) newRound() round {
	if m.round.cache == nil || m.store.Now() != m.round.ts {
		m.round = round{ts: m.store.Now(), cache: m.store.NewWindowCache()}
	}
	m.rounds++
	rd := m.round
	rd.n = m.rounds
	return rd
}

// feed is what a feeder tells the driver beyond the candidate set.
type feed struct {
	// forced (Refresh) is an operator probe: it bypasses the quarantine
	// gate — the operator decided to try — and treats the trigger as
	// fired without counting an evaluation; the trigger state is still
	// brought up to date so it resets consistently. Its outcome feeds the
	// breaker like any other: a successful manual refresh heals the CQ.
	forced bool
	// sweep lets the housekeeping walk the registry (gauges, AutoGC):
	// Poll sets it on its last stage, Refresh always. A push dispatch
	// leaves it off and pays only an amortised share, so a commit never
	// costs O(registered CQs).
	sweep bool
}

// runRound is the round driver (see the file comment). It may reorder
// and truncate cands. It returns the number of refreshes delivered; a
// failing CQ does not abort the round — its error is recorded in
// CQState.LastErr, counted in cq.refresh.errors and joined into the
// returned error while every other CQ proceeds.
func (m *Manager) runRound(cands []*instance, f feed) (int, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	rd := m.newRound()
	var errs []error
	fired := cands[:0]
	for _, inst := range cands {
		if inst.terminated.Load() || inst.dropped.Load() {
			continue
		}
		// Quarantine gate: a CQ with too many consecutive failures is
		// skipped until its backoff expires, then admitted as a single
		// probe. Differential catch-up makes the skip safe — the probe
		// re-evaluates from lastExec and covers the whole gap. (The push
		// router's registration gate, Blocked, already filters most
		// routings without dispatching; Allow closes the race and claims
		// the probe slot.)
		if !f.forced && !inst.breaker.Allow() {
			if mm := m.met; mm != nil {
				mm.quarantineSkips.Inc()
			}
			continue
		}
		should, err := m.observeAndTestLocked(inst, rd)
		if err != nil {
			// One CQ's broken trigger must not starve the others: record
			// it and continue the round (Section 5.3 accounting is
			// per-CQ, so skipping one leaves the rest intact).
			errs = append(errs, fmt.Errorf("cq %q: %w", inst.def.Name, err))
			m.noteFailure(inst)
			continue
		}
		if mm := m.met; mm != nil && !f.forced {
			mm.triggerEvals.Inc()
			if should {
				mm.fireCounter(inst.trigger.Kind).Inc()
			}
		}
		if should || f.forced {
			fired = append(fired, inst)
		} else {
			// The trigger did not fire: free the probe slot (no-op for
			// healthy CQs) so the next round can probe again.
			inst.breaker.Release()
		}
	}
	m.mu.Unlock()

	n, refErrs := m.refreshGroup(fired, rd, f.forced)
	if m.orphans.Load() > 0 {
		m.mu.Lock()
		m.rejoinTemplatesLocked(fired, rd)
		m.mu.Unlock()
	}
	m.housekeep(f.sweep, n)
	return n, errors.Join(append(errs, refErrs...)...)
}

// housekeep is the one post-round rule. With sweep it recomputes the
// population and health gauges, reaps template groups left without active
// members, and collects garbage when AutoGC is on. Without it — a push
// dispatch, an earlier stage of a Poll — it touches the manager lock only
// when there is something to do: a group emptied (reapDue), or this is
// the gcEvery-th such round that refreshed something, so a pure-push
// deployment (no poll loop at all) keeps its delta windows bounded too.
// The gauges need no sweep on that path: a refresh that terminates its CQ
// adjusts them itself (registeredDelta).
func (m *Manager) housekeep(sweep bool, refreshed int) {
	gc := m.cfg.AutoGC && (sweep || (refreshed > 0 && m.gcTicks.Add(1)%gcEvery == 0))
	if !sweep && !gc && !m.reapDue.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if sweep {
		m.updateRegisteredLocked()
	}
	if m.reapDue.Swap(false) || sweep {
		m.reapTemplatesLocked()
	}
	if gc {
		m.gcLocked()
	}
}

// Poll evaluates all trigger conditions against the update stream and
// refreshes every CQ whose condition fired. It returns the number of
// refreshes performed. This is the synchronous entry point; Start runs it
// periodically (Section 5.3's "evaluate Tcq periodically" strategy).
//
// Cascades refresh in topological stages, one round each: stage k's
// materialization commits land before stage k+1 takes its round
// timestamp, so a downstream CQ folds its upstream's round-N output
// within round N — one Poll propagates a source commit through the whole
// DAG. With no materializing CQs registered (MaxStage 0) there is one
// round.
func (m *Manager) Poll() (int, error) {
	if mm := m.met; mm != nil {
		mm.polls.Inc()
	}
	n := 0
	var errs []error
	for stage := 0; ; stage++ {
		m.mu.Lock()
		more := stage < m.dag.MaxStage()
		cands := make([]*instance, 0, len(m.cqs))
		for _, inst := range m.cqs {
			if m.dag.Stage(inst.def.Name) == stage {
				cands = append(cands, inst)
			}
		}
		m.mu.Unlock()
		sn, err := m.runRound(cands, feed{sweep: !more})
		n += sn
		if err != nil {
			errs = append(errs, err)
		}
		if !more || errors.Is(err, ErrClosed) {
			return n, errors.Join(errs...)
		}
	}
}

// Refresh forces re-evaluation of one CQ regardless of its trigger and
// of its quarantine state (feed.forced). The manager lock is not held
// while the CQ evaluates, and the refresh budget applies as in any round.
func (m *Manager) Refresh(name string) error {
	m.mu.Lock()
	inst, ok := m.cqs[name]
	closed := m.closed
	m.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case !ok:
		return fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	case inst.terminated.Load():
		return fmt.Errorf("%w: %q", ErrTerminated, name)
	}
	_, err := m.runRound([]*instance{inst}, feed{forced: true, sweep: true})
	return err
}

// pushDispatch is the push router's callback: one round for the CQ (or
// template, see pushDispatchTemplate) a commit touched, run the moment
// the commit lands. retire tells the router to forget a route whose CQ
// is gone or has terminated. (Close drains the router before it marks
// the manager closed, so a dispatch never meets ErrClosed.)
func (m *Manager) pushDispatch(name string) (refreshed, retire bool, err error) {
	if fp, isTmpl := parseTmplRoute(name); isTmpl {
		return m.pushDispatchTemplate(fp)
	}
	m.mu.Lock()
	inst := m.cqs[name]
	m.mu.Unlock()
	if inst == nil {
		return false, true, nil
	}
	n, err := m.runRound([]*instance{inst}, feed{})
	return n > 0, inst.terminated.Load() || inst.dropped.Load(), err
}

// FlushPush blocks until every queued push dispatch has completed — the
// quiescence barrier for graceful drains (cqd shutdown, durable
// checkpoint-on-close) and for tests comparing push against poll. A
// no-op when push is disabled. Callers must not hold manager locks and
// should stop committing first.
func (m *Manager) FlushPush() {
	m.mu.Lock()
	r := m.router
	m.mu.Unlock()
	if r != nil {
		r.Flush()
	}
}

// PushPending reports the number of CQs queued or mid-dispatch in the
// push router (0 when push is disabled).
func (m *Manager) PushPending() int {
	m.mu.Lock()
	r := m.router
	m.mu.Unlock()
	if r == nil {
		return 0
	}
	return r.Pending()
}

// observeAndTestLocked is observeAndTest under the instance lock with
// panic isolation: the trigger predicate runs arbitrary expressions, and
// a panic there must not unwind through the caller's manager lock.
func (m *Manager) observeAndTestLocked(inst *instance, rd round) (bool, error) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	var should bool
	err := guard.Protect(func() error {
		var terr error
		should, terr = inst.observeAndTest(rd.ts, rd.cache)
		return terr
	})
	if err != nil {
		inst.lastErr = err
	}
	return should, err
}

// observeAndTest folds the unobserved update window into the CQ's trigger
// state and evaluates the trigger condition — differentially: only delta
// rows are read (Section 5.3). Caller holds inst.mu. Trigger accounting
// reads the raw (uncompacted) windows: updates-count and absolute
// epsilon triggers must see every row, not the net effect. A count needs
// no rows — it is read off the live log — so only a table with an
// epsilon accountant fetches its window, in row form.
func (inst *instance) observeAndTest(now vclock.Timestamp, cache *storage.WindowCache) (bool, error) {
	if now > inst.lastObs {
		for _, table := range inst.tables {
			acct, ok := inst.eps[table]
			if !ok {
				n, err := cache.Len(table, inst.lastObs, now)
				if err != nil {
					return false, err
				}
				inst.updatesSeen += int64(n)
				continue
			}
			w, err := cache.Window(table, inst.lastObs, now, false)
			if err != nil {
				return false, err
			}
			inst.updatesSeen += int64(w.Len())
			if err := acct.Observe(w); err != nil {
				return false, err
			}
		}
		inst.lastObs = now
	}

	switch inst.trigger.Kind {
	case sql.TriggerEvery:
		return now >= inst.lastExec+vclock.Timestamp(inst.trigger.Every), nil
	case sql.TriggerUpdates:
		return inst.updatesSeen >= inst.trigger.Updates, nil
	case sql.TriggerEpsilon:
		for _, acct := range inst.eps {
			if acct.Exceeded() {
				return true, nil
			}
		}
		return false, nil
	default:
		return inst.updatesSeen > 0, nil
	}
}

// refreshGroup re-evaluates the fired CQs of one round on a bounded
// worker pool. The caller is worker 0, and the others start only when
// the round has CQs to share among them. Workers hold only the
// per-instance lock, so a slow CQ does not stall the others.
func (m *Manager) refreshGroup(fired []*instance, rd round, forced bool) (int, []error) {
	if len(fired) == 0 {
		return 0, nil
	}
	workers := m.workerCount(len(fired))
	var start time.Time
	if mm := m.met; mm != nil {
		start = time.Now()
		mm.roundWorkers.Set(int64(workers))
	}
	var n int
	var errs []error
	if workers == 1 {
		var next atomic.Int64 // no goroutine sees it: it stays on the stack
		n, errs = m.refreshWorker(fired, &next, rd, forced)
	} else {
		n, errs = m.refreshParallel(fired, workers, rd, forced)
	}
	if mm := m.met; mm != nil {
		mm.roundNS.Observe(time.Since(start))
	}
	return n, errs
}

// refreshParallel runs workers-1 refreshWorkers on goroutines beside the
// caller's own, all taking CQs from one counter.
func (m *Manager) refreshParallel(fired []*instance, workers int, rd round, forced bool) (int, []error) {
	type tally struct {
		n    int
		errs []error
	}
	tallies := make([]tally, workers)
	next := new(atomic.Int64)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		// guarded: refreshWorker isolates per-item panics (guardedRefresh)
		// and its outbox's delivery isolates the callbacks; nothing else
		// in the body can panic.
		go func() {
			defer wg.Done()
			tallies[w].n, tallies[w].errs = m.refreshWorker(fired, next, rd, forced)
		}()
	}
	tallies[0].n, tallies[0].errs = m.refreshWorker(fired, next, rd, forced)
	wg.Wait()
	n, errs := 0, []error(nil)
	for _, t := range tallies {
		n += t.n
		errs = append(errs, t.errs...)
	}
	return n, errs
}

// refreshWorker is one worker of a round: it refreshes the fired CQs
// whose indices it takes from next, through its own outbox, until none
// is left, and returns how many it delivered and what failed.
func (m *Manager) refreshWorker(fired []*instance, next *atomic.Int64, rd round, forced bool) (n int, errs []error) {
	q := m.openOutbox()
	for i := next.Add(1) - 1; i < int64(len(fired)); i = next.Add(1) - 1 {
		switch refreshed, err := m.guardedRefresh(fired[i], rd, forced, q); {
		case err != nil:
			errs = append(errs, err)
		case refreshed:
			n++
		}
	}
	if err := m.closeOutbox(q); err != nil {
		errs = append(errs, err)
	}
	return n, errs
}

// outbox is one refresh worker's group commit. A template member stages
// its execution record with the journal
// and queues its notification on its instance (refreshInstance); the
// worker then writes everything staged in one Flush and delivers the
// queues it filled (settle) — before its next private refresh and at
// the end of its slice of the round — so a round of N members costs at
// most one write per worker, not N. A private refresh is never staged:
// its step can be arbitrarily slow (a join, a rollup, an INTO commit),
// nothing may wait behind it, and it writes one record anyway.
type outbox struct {
	insts  []*instance // the instances this worker queued a notification on
	staged bool        // this worker staged a record since its last flush
	err    error       // the first failed flush
}

var outboxes = sync.Pool{New: func() any { return new(outbox) }}

// openOutbox returns a worker's outbox, or nil without a journal:
// there is nothing to stage, and every refresh delivers inline.
func (m *Manager) openOutbox() *outbox {
	if m.cfg.Journal == nil {
		return nil
	}
	return outboxes.Get().(*outbox)
}

// closeOutbox settles the outbox at the end of the worker's slice and
// returns the error of a failed flush, if any.
func (m *Manager) closeOutbox(q *outbox) error {
	if q == nil {
		return nil
	}
	m.settle(q)
	err := q.err
	q.err = nil
	outboxes.Put(q)
	return err
}

// settle writes everything staged and delivers the queues the worker
// filled, each under its instance's lock. A notification goes out only
// once a flush that started after its record was staged has returned:
// one staged later, by another worker, stays queued for that worker. If
// the flush fails, the journal has stopped for good: the queued
// notifications are dropped undelivered and the round returns the
// error. Caller holds no instance lock.
func (m *Manager) settle(q *outbox) {
	if !q.staged {
		return
	}
	upTo := m.staged.Load()
	err := m.cfg.Journal.Flush()
	if err != nil && q.err == nil {
		q.err = fmt.Errorf("cq: journal flush: %w", err)
	}
	for _, inst := range q.insts {
		inst.mu.Lock()
		if err != nil {
			inst.dropQueuedLocked()
		} else {
			m.deliverQueuedLocked(inst, upTo)
		}
		inst.mu.Unlock()
	}
	clear(q.insts) // a settled instance must not stay reachable
	q.insts, q.staged = q.insts[:0], false
}

// queuedNote is a notification waiting for its execution record, staged
// as number ticket (Manager.staged), to be written.
type queuedNote struct {
	note   Notification
	ticket uint64
}

// deliverQueuedLocked delivers, in Seq order, inst's queued
// notifications whose records a flush that read Manager.staged as upTo
// has written. Caller holds inst.mu.
func (m *Manager) deliverQueuedLocked(inst *instance, upTo uint64) {
	n := 0
	for ; n < len(inst.queued) && inst.queued[n].ticket <= upTo; n++ {
		m.deliver(inst, inst.queued[n].note)
	}
	if n > 0 {
		rest := copy(inst.queued, inst.queued[n:])
		clear(inst.queued[rest:]) // a delivered change must not stay reachable
		inst.queued = inst.queued[:rest]
	}
}

// flushQueuedLocked writes the staged records and delivers everything
// inst has queued — all of it staged under inst.mu, which the caller
// holds, so the flush covers it. A failed flush drops the queue, as
// settle does.
func (m *Manager) flushQueuedLocked(inst *instance) {
	upTo := m.staged.Load()
	if err := m.cfg.Journal.Flush(); err != nil {
		inst.dropQueuedLocked()
		return
	}
	m.deliverQueuedLocked(inst, upTo)
}

// dropQueuedLocked discards inst's queued notifications undelivered.
// Caller holds inst.mu.
func (inst *instance) dropQueuedLocked() {
	clear(inst.queued)
	inst.queued = inst.queued[:0]
}

// errSkipRefresh marks a guarded attempt that found nothing to do (the
// CQ terminated, was dropped, or a racing path already covered this
// timestamp). Not a failure, not a success: the breaker releases its
// probe slot and stays where it was.
var errSkipRefresh = errors.New("cq: refresh skipped")

// guardedRefresh runs one CQ's refresh under the guard layer — panic
// isolation, the configured budget as the step's deadline, and breaker
// accounting on every path — inline on the worker, budget or not. It
// reports whether a refresh was delivered. A step past its deadline
// fails with guard.ErrBudgetExceeded and counts as a breaker failure
// like any other. q is the worker's outbox or nil.
func (m *Manager) guardedRefresh(inst *instance, rd round, forced bool, q *outbox) (bool, error) {
	err := m.attemptRefresh(inst, rd, forced, q)
	switch {
	case err == nil:
		inst.breaker.Success()
		return true, nil
	case errors.Is(err, errSkipRefresh):
		inst.breaker.Release()
		return false, nil
	}
	var pe *guard.PanicError
	switch {
	case errors.As(err, &pe):
		if mm := m.met; mm != nil {
			mm.refreshPanics.Inc()
		}
		err = fmt.Errorf("cq %q: %w", inst.def.Name, err)
		// The panic unwound through the attempt's deferred unlock, so
		// the instance lock is free to record the error.
		inst.mu.Lock()
		inst.lastErr = err
		inst.mu.Unlock()
	case errors.Is(err, guard.ErrBudgetExceeded):
		if mm := m.met; mm != nil {
			mm.refreshTimeouts.Inc()
		}
	}
	m.noteFailure(inst)
	return false, err
}

// attemptRefresh is one guarded attempt at a CQ's refresh, q the
// worker's outbox or nil. A panic becomes a *guard.PanicError, written
// without the closure guard.Protect takes; it unwinds through the
// deferred unlock first.
func (m *Manager) attemptRefresh(inst *instance, rd round, forced bool, q *outbox) (err error) {
	defer guard.Recover(&err)
	inst.mu.Lock()
	if q != nil && q.staged && inst.group == nil {
		// A private step can be slow: what the worker has queued goes out
		// first. Delivery takes other instances' locks, so this one is let
		// go meanwhile; the checks below run once it is retaken.
		inst.mu.Unlock()
		m.settle(q)
		inst.mu.Lock()
	}
	defer inst.mu.Unlock()
	// A racing round may have re-evaluated past this round's timestamp
	// already; refreshing would move lastExec backwards, so skip —
	// monotonicity beats redundancy. A forced refresh AT the last
	// execution still runs: it is an execution the operator asked for,
	// with an empty window.
	if inst.dropped.Load() || inst.terminated.Load() || rd.ts < inst.lastExec || (rd.ts == inst.lastExec && !forced) {
		return errSkipRefresh
	}
	rd.deadline = guard.Deadline(m.guardPol.Budget)
	err = m.refreshInstance(inst, rd, q)
	inst.lastErr = err
	return err
}

// noteFailure records one refresh (or trigger) failure against the CQ's
// breaker, logging the transition if this trip opens the quarantine.
func (m *Manager) noteFailure(inst *instance) {
	if inst.breaker.Failure() {
		if mm := m.met; mm != nil {
			mm.quarantines.Inc()
		}
		if m.cfg.Logf != nil {
			m.cfg.Logf("cq %q: quarantined after %d consecutive failures (backoff until probe)",
				inst.def.Name, inst.breaker.Failures())
		}
	}
	if mm := m.met; mm != nil {
		mm.refreshErrors.Inc()
	}
}

// workerCount resolves Config.Parallelism against the round size.
func (m *Manager) workerCount(tasks int) int {
	w := m.cfg.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stepContext builds the input of one evaluation step — a CQ's private
// refresh or a template group's shared one — and is where the snapshot
// rule lives: a step from lastExec to the round timestamp ts reads
//
//	Pre  = the store as of lastExec,
//	the windows (lastExec, ts] of each operand's differential relation,
//	Post = the store as of ts
//
// — never Live(). Commits keep landing while a round runs; a live read
// sees rows past ts that the next round's window will deliver again (a
// propagate-arm CQ then reports the same insertion twice), and it scans
// relations a writer is mutating. Both views are lazy: only the
// propagate arms reconstruct them, and the differential path reads Pre
// only to re-seed an evaluator whose position is not lastExec (as the
// tables' columnar images at lastExec, storage.HistoricView.TableImage)
// and never touches Post. Serving never re-seeds: a Seed leaves the
// evaluator at lastExec and every successful step moves both to ts
// together. Only the retry of a refresh that failed after its step
// (materialize, Fits, journal) finds them apart.
//
// Each operand window is the round cache's columnar image, read in
// place by every CQ at the round timestamp; an empty window is left out
// of Batches and scans as empty. ctx.Deltas stays unset: the engine
// reads the images, already compacted when the engine compacts. A window
// the cache cannot produce fails the step. The cache is also the step's
// Windows: the images a join reads to move the engine's shared
// arrangement of a table between its own timestamp and the states the
// step's terms need (dra.Context.Windows), built once per round however
// many CQs share the arrangement.
//
// Prev and Post are set for an evaluator on complete re-evaluation
// (propagate) only, which runs the query over Post and diffs against
// Prev, rendered from the result table prev — that arm is O(|R|) per
// refresh anyway. A differential step reads neither.
//
// The context is in's, refilled in place: its map is reused, not
// reallocated, and Pre points at in's own view, so nothing is boxed per
// step. The caller holds the lock that guards in (the instance's, or
// the template group's) and calls in.release once the step has returned
// — the engine keeps no reference to the context past Step — or once
// stepContext has failed.
func (m *Manager) stepContext(in *stepInput, tables []string, lastExec vclock.Timestamp, eval *dra.Prepared, prev *batch.Table, rd round) (*dra.Context, error) {
	compact := m.cfg.Engine.CompactDeltas
	in.pre = m.store.At(lastExec)
	ctx := &in.ctx
	batches := ctx.Batches // empty: see release
	if batches == nil {
		batches = make(map[string]*batch.Batch, len(tables))
	}
	*ctx = dra.Context{
		Pre:       &in.pre,
		Batches:   batches,
		LastTS:    lastExec,
		Compacted: compact,
		Windows:   rd.cache,
		Deadline:  rd.deadline,
	}
	if eval.Strategy() == dra.StrategyPropagate {
		ctx.Prev, ctx.Post = prev.Relation(), m.store.At(rd.ts)
	}
	for _, table := range tables {
		b, err := rd.cache.WindowBatch(table, lastExec, rd.ts, compact)
		if err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			batches[table] = b // an empty window scans as empty
		}
	}
	return ctx, nil
}

// stepInput is an evaluator's step context, owned by the evaluator's
// holder and reused under its lock refresh after refresh.
type stepInput struct {
	ctx dra.Context
	pre storage.HistoricView // ctx.Pre points here
}

// release empties the context once its step is over, keeping only the
// map's storage: an idle evaluator pins none of its last round's
// batches or snapshots, and no batch outlives the step it was read for —
// stepContext leaves a table with an empty window out of Batches, so a
// batch left over would be read as the next round's.
func (in *stepInput) release() {
	clear(in.ctx.Batches)
	in.ctx = dra.Context{Batches: in.ctx.Batches}
}

// evaluate computes the CQ's change at the round timestamp: one Step of
// its evaluator over stepContext, or, for a template member, the fold of
// the rows its group dispatched to it. Caller holds inst.mu.
func (m *Manager) evaluate(inst *instance, rd round, span *obs.Span) (*dra.Result, error) {
	if inst.group != nil {
		return m.refreshShared(inst, rd)
	}
	ctx, err := m.stepContext(&inst.in, inst.tables, inst.lastExec, inst.eval, inst.prev, rd)
	defer inst.in.release()
	if err != nil {
		return nil, err
	}
	if inst.fault != nil {
		return nil, inst.fault()
	}
	var evalStart time.Time
	if span != nil {
		evalStart = time.Now()
	}
	err = inst.eval.StepInto(ctx, rd.ts, &inst.res)
	if span != nil {
		// The evaluator's share of the refresh: windows, materialization
		// and journaling are the rest of the span.
		span.SetField("eval_ns", time.Since(evalStart).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	return &inst.res, nil
}

// refreshInstance re-evaluates the CQ at the round timestamp and
// delivers the notification — or, for a template member under the
// worker's outbox q, stages its record and queues the notification for
// the worker to deliver once written. Caller holds inst.mu (and only
// inst.mu; the store and the DRA engine are safe for concurrent use).
func (m *Manager) refreshInstance(inst *instance, rd round, q *outbox) error {
	execTS := rd.ts
	var span *obs.Span
	var start time.Time
	if mm := m.met; mm != nil {
		start = time.Now()
		span = mm.traces.Start(inst.spanName)
	}
	// The change lives on in what was handed out (the notification, the
	// materialized commit), not in the instance between refreshes.
	defer inst.res.Clear()
	res, err := m.evaluate(inst, rd, span)
	if err == nil {
		// A change the result table cannot hold fails the refresh here,
		// before anything commits or journals.
		err = res.Fits(inst.prev)
	}
	if err != nil {
		return fmt.Errorf("cq %q: %w", inst.def.Name, err)
	}

	// Journal the execution BEFORE any state mutates: a journal failure
	// fails the refresh with the instance unchanged (the trigger re-fires
	// next round). A commit into the INTO target writes the record in its
	// write-ahead step. Every other refresh stages its record: a private
	// refresh's is flushed here; a template member's notification waits
	// on the instance until the worker's flush has written it (outbox).
	// Either way a delivered notification is always durable — at-most-once
	// delivery across crashes — and a crash forgets only executions that
	// delivered nothing. Subscribers that need the gap re-fetch Result()
	// after a restart.
	newSeq := inst.seq + 1
	willTerm := inst.stop.AfterN > 0 && int64(newSeq) >= inst.stop.AfterN
	stage := q != nil && inst.group != nil
	var ticket uint64
	var rec *wal.Record // what a commit into the INTO target journals
	if inst.into != "" {
		// The budget's last check: the commit itself is not stopped.
		if err := guard.Overdue(rd.deadline); err != nil {
			return fmt.Errorf("cq %q: %w", inst.def.Name, err)
		}
		if m.cfg.Journal != nil && res.Delta.Len() > 0 {
			rec = &wal.Record{Kind: wal.KindCQExec, Name: inst.def.Name, Seq: newSeq, ExecTS: execTS, Terminated: willTerm}
		}
		if err := m.commitReconciled(inst, res.Delta.Rows(), rec); err != nil {
			return fmt.Errorf("cq %q: materialize into %q: %w", inst.def.Name, inst.into, err)
		}
	}
	if j := m.cfg.Journal; j != nil && (rec == nil || rec.TS == 0) {
		jerr := j.StageCQExec(inst.def.Name, newSeq, execTS, willTerm)
		switch {
		case jerr != nil:
		case stage:
			ticket = m.staged.Add(1)
			q.staged = true
		default:
			jerr = j.Flush()
		}
		if jerr != nil {
			return fmt.Errorf("cq %q: journal execution: %w", inst.def.Name, jerr)
		}
	}

	m.advanceLocked(inst, res, execTS, newSeq, willTerm)
	if inst.group != nil {
		// The refresh is journaled and applied: discard the covered
		// template batches (a failure above kept them for the retry) and
		// take a terminated member out of the dispatch index.
		m.afterRefreshLocked(inst, execTS, willTerm)
	}

	if mm := m.met; mm != nil {
		mm.refreshes.Inc()
		if res.Delta.Len() == 0 {
			mm.refreshesEmpty.Inc()
		}
		mm.refreshNS.Observe(time.Since(start))
		if willTerm {
			mm.terminated.Inc()
		}
		span.SetField("seq", int64(inst.seq))
		span.SetField("exec_ts", int64(execTS))
		span.SetField("result_rows", int64(inst.prev.Len()))
		if res.Delta != nil {
			ins, del, mod := res.Delta.Counts()
			span.SetField("inserted", int64(ins))
			span.SetField("deleted", int64(del))
			span.SetField("modified", int64(mod))
		}
		if inst.eval != nil {
			if groups, ok := inst.eval.Groups(); ok {
				span.SetField("groups", int64(groups))
				span.SetField("groups_touched", int64(res.Stats.GroupsTouched))
				span.SetField("group_rows_emitted", int64(res.Stats.GroupRowsEmitted))
			}
		}
		span.Finish()
	}

	note := m.buildNotification(inst, res)
	if note.Empty() && !inst.def.NotifyEmpty && !note.Terminated {
		return nil
	}
	if stage {
		inst.queued = append(inst.queued, queuedNote{note: note, ticket: ticket})
		q.insts = append(q.insts, inst)
		return nil
	}
	m.deliver(inst, note)
	return nil
}

// advanceLocked moves the CQ to its execution seq at execTS, whose
// change res carries and fits (Section 4.3: Et_i(Q) ∪ insertions −
// deletions). Caller holds inst.mu.
func (m *Manager) advanceLocked(inst *instance, res *dra.Result, execTS vclock.Timestamp, seq int, term bool) {
	inst.prev = res.Maintain(inst.prev)
	inst.lastExec = execTS
	inst.lastObs = execTS
	inst.seq = seq
	inst.updatesSeen = 0
	for _, acct := range inst.eps {
		acct.Reset()
	}
	if term {
		// The gauges first: the delta skips instances already flagged.
		m.registeredDelta(inst, -1)
		inst.terminated.Store(true)
	}
}

// buildNotification assembles the per-mode answer (Section 4.3 step 4):
// the refresh's own netted change, its views left to the subscribers
// that ask (Notification.Inserted, Deleted, Modified). Complete mode
// adds a copy of the complete result, rendered from the result table.
func (m *Manager) buildNotification(inst *instance, res *dra.Result) Notification {
	note := Notification{
		CQName:     inst.def.Name,
		Seq:        inst.seq,
		ExecTS:     res.ExecTS,
		Mode:       inst.mode,
		Delta:      res.Delta,
		Terminated: inst.terminated.Load(),
	}
	if inst.mode == sql.ModeComplete {
		note.Complete = inst.prev.Relation()
	}
	return note
}

// deliver hands the notification to the CQ's subscribers under the
// instance lock. The callbacks are panic-isolated — a panicking one is
// detached, not retried, and never unwinds into the refresh.
func (m *Manager) deliver(inst *instance, note Notification) {
	delivered := 0
	keep := inst.subs[:0]
	for _, s := range inst.subs {
		fn := s.fn
		if perr := guard.Protect(func() error {
			fn(note, false)
			return nil
		}); perr != nil {
			if mm := m.met; mm != nil {
				mm.subscriberPanics.Inc()
			}
			m.logf("cq %q: subscriber callback panicked, disconnected: %v", inst.def.Name, perr)
			continue
		}
		delivered++
		keep = append(keep, s)
	}
	clear(inst.subs[len(keep):]) // a detached subscriber must not stay reachable
	inst.subs = keep
	if mm := m.met; mm != nil {
		mm.notifications.Add(int64(delivered))
	}
}
