// Package push implements commit-driven reactive refresh: the routing
// layer between the store's commit hook and the CQ manager's refresh
// machinery that retires the poll loop from the hot path.
//
// The paper evaluates trigger conditions periodically (Section 5.3), so
// a committed update sits in the differential relation until the next
// poll tick — commit-to-notification latency is bounded below by the
// poll interval no matter how fast a refresh runs. The Router removes
// that bound: the store publishes each committed delta (table,
// timestamp, change counts) into an operand-to-CQ inverted index, the
// affected CQs are enqueued on a bounded ready queue, and dispatcher
// workers evaluate their triggers and refresh them immediately. This is
// the edge/pipeline model of streaming engines (points routed through
// bounded channels between processing nodes) applied to the paper's
// differential circuit: commits are the stream, refreshes the nodes.
//
// Two properties keep the hybrid safe and cheap:
//
//   - Coalescing: a CQ already queued (or being dispatched) absorbs
//     later commits by merging — the eventual refresh evaluates one
//     differential window covering all of them, so a burst of commits
//     costs one refresh, not one per commit.
//
//   - Backpressure with poll fallback: the ready queue is bounded; when
//     it overflows, the CQ's work is simply left in the delta store for
//     the next poll tick (the poll loop remains the catch-all for
//     overflow and for time-based triggers, which gain nothing from
//     push). Degradation is graceful by construction — push never
//     queues unboundedly and never loses work, because the delta store,
//     not the queue, is the source of truth.
//
// The router carries no rows. A dispatch names a CQ; the refresh it
// starts reads its windows from the manager's window cache for the
// current timestamp, which every dispatch, poll round and template step
// at that timestamp shares. A burst of dispatches for one commit
// therefore fetches, compacts and converts each window once, and push
// and poll refreshes read the same window form.
package push

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// DefaultQueue is the ready-queue capacity when Config.Queue is 0.
const DefaultQueue = 1024

// DispatchFunc is the router's callback into the refresh machinery: it
// evaluates the named CQ's trigger at the current logical time and
// refreshes it if the trigger fired. refreshed reports a refresh ran
// (the latency histogram only observes those); retire tells the router
// to forget the CQ (dropped or terminated). Dispatch runs on router
// worker goroutines and must be safe for concurrent calls on different
// names; concurrent calls on the same name are possible and must
// serialize internally (the manager's per-instance lock does).
type DispatchFunc func(name string) (refreshed, retire bool, err error)

// Config tunes a Router.
type Config struct {
	// Queue bounds the ready queue of CQs awaiting dispatch. Because a
	// queued CQ coalesces instead of re-queueing, the queue holds at
	// most one entry per registered CQ; a capacity at or above the CQ
	// population means overflow is impossible. 0 uses DefaultQueue.
	Queue int
	// Workers is the dispatcher pool size; 0 uses GOMAXPROCS.
	Workers int
	// Metrics attaches the router's push.* instruments; nil disables
	// instrumentation (every hook reduces to a nil check).
	Metrics *obs.Registry
	// Logf receives rare diagnostic lines (dispatch errors); nil
	// discards them — the manager already records per-CQ errors in
	// CQState.LastErr.
	Logf func(format string, args ...any)
}

// entry is the router's record of one routed CQ. queued, commits,
// firstAt and lastTS are guarded by Router.mu.
type entry struct {
	name   string
	tables []string
	// gate, when set, is consulted at routing time: false means the CQ
	// is quarantined and commits should not queue a dispatch for it (the
	// poll loop's breaker check owns probing). The gate must be
	// side-effect-free and self-locked — it runs under Router.mu, which
	// itself may be under the store mutex.
	gate func() bool
	// queued marks the entry as sitting in the ready queue: later
	// commits merge into it instead of enqueueing again.
	queued bool
	// commits counts the commit routings coalesced into the pending
	// dispatch (1 on enqueue, +1 per merge).
	commits int64
	// firstAt is the arrival instant of the oldest coalesced commit —
	// the anchor of the commit-to-notification latency histogram.
	firstAt time.Time
	// lastTS dedupes within one event: a commit touching two operand
	// tables of the same CQ must route once, not twice.
	lastTS vclock.Timestamp
}

// Router routes committed deltas to the continual queries whose
// operands they touch. All exported methods are safe for concurrent
// use. Lock discipline: Router.mu is a leaf — nothing is called while
// holding it — so Publish may run under the store mutex (the commit
// hook does) and Register under the manager mutex.
type Router struct {
	cfg      Config
	dispatch DispatchFunc
	met      *metrics

	mu sync.Mutex
	// cond broadcasts when pending returns to zero (Flush waits on it).
	cond *sync.Cond
	// index is the operand inverted index: table name -> CQ name -> entry.
	index map[string]map[string]*entry
	cqs   map[string]*entry
	queue chan *entry
	// pending counts entries enqueued but not yet fully dispatched.
	pending int
	closed  bool
	wg      sync.WaitGroup
}

// NewRouter builds a router and starts its dispatcher workers. Close it
// to drain the queue and stop them.
func NewRouter(cfg Config, dispatch DispatchFunc) *Router {
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	r := &Router{
		cfg:      cfg,
		dispatch: dispatch,
		met:      newMetrics(cfg.Metrics),
		index:    make(map[string]map[string]*entry),
		cqs:      make(map[string]*entry),
		queue:    make(chan *entry, cfg.Queue),
	}
	r.cond = sync.NewCond(&r.mu)
	for w := 0; w < cfg.Workers; w++ {
		r.wg.Add(1)
		// guarded: each dispatch runs through safeDispatch, the
		// worker's recover boundary.
		go r.worker()
	}
	return r
}

// Register indexes a CQ's operand tables so commits touching them route
// to it. Re-registering a name replaces its table set. gate (optional)
// lets the owner veto routing per commit — the manager passes the CQ
// breaker's Blocked check so quarantined CQs stop consuming dispatch
// slots; nil always routes.
func (r *Router) Register(name string, tables []string, gate func() bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if old := r.cqs[name]; old != nil {
		r.unindexLocked(old)
	}
	e := &entry{name: name, tables: append([]string(nil), tables...), gate: gate}
	r.cqs[name] = e
	for _, t := range e.tables {
		byCQ := r.index[t]
		if byCQ == nil {
			byCQ = make(map[string]*entry)
			r.index[t] = byCQ
		}
		byCQ[name] = e
	}
	if m := r.met; m != nil {
		m.registered.Set(int64(len(r.cqs)))
	}
}

// Unregister removes a CQ from the index. A dispatch already in flight
// for it completes; new commits no longer route to it.
func (r *Router) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cqs[name]
	if !ok {
		return
	}
	r.unindexLocked(e)
	delete(r.cqs, name)
	if m := r.met; m != nil {
		m.registered.Set(int64(len(r.cqs)))
	}
}

// unindexLocked removes an entry from the inverted index. Caller holds
// r.mu.
func (r *Router) unindexLocked(e *entry) {
	for _, t := range e.tables {
		if byCQ := r.index[t]; byCQ != nil {
			delete(byCQ, e.name)
			if len(byCQ) == 0 {
				delete(r.index, t)
			}
		}
	}
}

// Publish routes one committed transaction: every registered CQ whose
// operand set intersects the commit's tables is enqueued for dispatch,
// or merged into its already-queued entry (coalescing), or — when the
// ready queue is full — left for the poll loop (overflow fallback).
// Publish never blocks; it is called from the store's commit hook under
// the store mutex.
func (r *Router) Publish(ev storage.CommitEvent) {
	now := ev.At
	if now.IsZero() {
		now = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if m := r.met; m != nil {
		m.events.Inc()
	}
	// Degraded mode: at or above the soft watermark the router stops
	// queueing dispatches entirely and lets the poll loop absorb the
	// backlog in coalesced batch rounds — push's per-commit eagerness is
	// exactly the wrong shape under overload. Deltas stay in the store;
	// nothing is lost (the differential catch-up property).
	if ev.Overload >= storage.OverloadSoft {
		if m := r.met; m != nil {
			m.shed.Inc()
		}
		return
	}
	for _, ch := range ev.Changes {
		for _, e := range r.index[ch.Table] {
			if e.lastTS == ev.TS {
				continue // commit touched two operands of this CQ
			}
			e.lastTS = ev.TS
			if e.gate != nil && !e.gate() {
				// Quarantined: skip routing. The deltas accumulate in
				// the store; the successful probe's refresh covers them
				// differentially from the CQ's last timestamp.
				if m := r.met; m != nil {
					m.gateSkips.Inc()
				}
				continue
			}
			if m := r.met; m != nil {
				m.routed.Inc()
			}
			if e.queued {
				e.commits++
				if m := r.met; m != nil {
					m.coalesced.Inc()
				}
				continue
			}
			select {
			case r.queue <- e:
				e.queued = true
				e.commits = 1
				e.firstAt = now
				r.pending++
			default:
				// Queue full: leave the delta for the next poll tick.
				// Nothing is lost — the delta store is the source of
				// truth and Poll evaluates every trigger.
				if m := r.met; m != nil {
					m.overflows.Inc()
				}
			}
		}
	}
	if m := r.met; m != nil {
		m.queueDepth.Set(int64(len(r.queue)))
	}
}

// worker dequeues ready CQs and dispatches them. The queued flag drops
// at dequeue, BEFORE the dispatch runs: a commit landing mid-refresh
// re-enqueues the CQ, whose next dispatch covers the residue — no
// commit is ever left behind by the race.
func (r *Router) worker() {
	defer r.wg.Done()
	for e := range r.queue {
		r.mu.Lock()
		e.queued = false
		commits := e.commits
		e.commits = 0
		firstAt := e.firstAt
		r.mu.Unlock()

		refreshed, retire, err := r.safeDispatch(e.name)
		if err != nil && r.cfg.Logf != nil {
			r.cfg.Logf("push: dispatch %q: %v", e.name, err)
		}
		if m := r.met; m != nil {
			m.dispatches.Inc()
			m.dispatchedCommits.Add(commits)
			if refreshed {
				m.refreshes.Inc()
				m.notifyNS.Observe(time.Since(firstAt))
			}
			if err != nil {
				m.errors.Inc()
			}
			m.queueDepth.Set(int64(len(r.queue)))
		}
		if retire {
			r.Unregister(e.name)
		}

		r.mu.Lock()
		r.pending--
		if r.pending == 0 {
			r.cond.Broadcast()
		}
		r.mu.Unlock()
	}
}

// safeDispatch is the worker's recover boundary: the manager isolates
// refresh panics itself, but a panic anywhere else in the dispatch path
// must not kill a worker goroutine (Close would hang on wg.Wait with
// the queue still draining).
func (r *Router) safeDispatch(name string) (refreshed, retire bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			refreshed, retire = false, false
			err = fmt.Errorf("push: dispatch %q panicked: %v", name, v)
		}
	}()
	return r.dispatch(name)
}

// Flush blocks until every queued dispatch has run — the
// quiescence barrier the graceful-drain path and the push/poll
// equivalence tests rely on. Callers must stop committing first (or
// accept that concurrent commits re-arm the queue).
func (r *Router) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.pending > 0 {
		r.cond.Wait()
	}
}

// Pending reports the number of CQs enqueued or mid-dispatch.
func (r *Router) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending
}

// Close drains the queue — every pending entry is dispatched, so no
// committed delta is left unevaluated by the push path — and stops the
// workers. The commit hook must be detached before Close, or a racing
// commit could publish into a closed router (Publish checks, so it
// degrades to the poll fallback rather than panicking). Idempotent.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.queue)
	r.mu.Unlock()
	r.wg.Wait()
}
