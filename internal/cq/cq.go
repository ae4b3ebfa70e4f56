// Package cq implements the continual query manager. A continual query
// (Section 3.1) is a triple (Q, Tcq, Stop): a query, a triggering
// condition, and a termination condition. The manager owns the result
// sequence Q(S1), Q(S2), ... — it runs the initial execution at
// registration, evaluates trigger conditions differentially over the
// update stream (Section 5.3), re-evaluates fired queries through the DRA
// engine (Section 4.3), assembles the per-mode answer (differential,
// complete, or deletions-only), garbage collects differential relations
// past the system active delta zone (Section 5.4), and delivers
// notifications to subscribers.
//
// This file is the registry side: installing, inspecting, dropping and
// closing. The refresh pipeline every execution after the initial one
// goes through is refresh.go.
package cq

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/cascade"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/push"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// Errors returned by the manager.
var (
	ErrDuplicateCQ = errors.New("cq: a continual query with this name exists")
	ErrNoSuchCQ    = errors.New("cq: no such continual query")
	ErrTerminated  = errors.New("cq: continual query has terminated")
	ErrClosed      = errors.New("cq: manager is closed")
	// ErrNameCollision marks a registration (or DDL through the manager)
	// that would make a continual-query name and a table name shadow each
	// other: CQ names, INTO targets and base tables share one namespace.
	ErrNameCollision = errors.New("cq: name collides across queries and tables")
)

// Notification is one element of a CQ's result sequence, shaped by the
// query's result mode (Section 4.3 step 4).
//
// A refresh hands every subscriber the change it computed, as it stands:
// Delta is the refresh's netted result delta (dra.Result.Delta), and
// Inserted, Deleted and Modified render the mode's views of it only when
// called. A selection's Delta is itself deferred: its rows are rendered
// on the first read, once for all subscribers, and a notification whose
// rows nobody reads renders none. Nothing a notification references is
// pooled or reused, so a subscriber may keep it, and call its views,
// after the callback returns and after any number of later refreshes.
type Notification struct {
	CQName string
	// Seq numbers the executions; the initial execution is 1.
	Seq int
	// ExecTS is the logical time of this execution.
	ExecTS vclock.Timestamp
	Mode   sql.ResultMode

	// Delta is the difference from the previous result: each tid at most
	// once, as one insert, delete or modify row. Nil in the catch-up a
	// ResubscribeFunc returns. Read-only: it is shared by every subscriber.
	// Its rows are rendered on the first read (Rows, or a view built on
	// them), safely under concurrent readers; Len and Counts are free.
	Delta *delta.Delta

	// Complete holds the full current result (set in ModeComplete, and in
	// the catch-up a ResubscribeFunc returns): a copy rendered from the
	// CQ's result table for this notification, on one flat backing the
	// notification owns; a sorted query's rows in ORDER BY order.
	Complete *relation.Relation

	// Terminated reports the Stop condition became true; this is the last
	// notification for the CQ.
	Terminated bool

	// Dropped is the catch-up gap of a ResubscribeFunc: the number of
	// executions between the resume token and the attach point. The
	// manager itself never drops a delivery — callbacks run synchronously
	// — so it is zero on every refresh notification; the buffering layer
	// above (continual.Subscription) adds its own full-buffer drops.
	Dropped int
}

// Empty reports whether the notification carries no change its mode
// shows: no row at all, or in ModeDeletions no delete or modify row. A
// notification carrying the complete result is never empty. It counts
// the change's rows, rendering none.
func (n Notification) Empty() bool {
	if n.Complete != nil {
		return false
	}
	if n.Delta == nil {
		return true
	}
	if n.Mode != sql.ModeDeletions {
		return n.Delta.Len() == 0
	}
	_, del, mod := n.Delta.Counts()
	return del+mod == 0
}

// Inserted renders the tuples that entered the result — the new halves
// of insert and modify rows (Section 4.1's insertions view) — or nil in
// ModeDeletions and in a catch-up.
func (n Notification) Inserted() *relation.Relation {
	if n.Delta == nil || n.Mode == sql.ModeDeletions {
		return nil
	}
	return n.Delta.Insertions()
}

// Deleted renders the tuples that left the result — the old halves of
// delete and modify rows — or nil in a catch-up.
func (n Notification) Deleted() *relation.Relation {
	if n.Delta == nil {
		return nil
	}
	return n.Delta.Deletions()
}

// Modified lists the modify rows, old and new halves paired, or nil in
// ModeDeletions and in a catch-up.
func (n Notification) Modified() []delta.Row {
	if n.Delta == nil || n.Mode == sql.ModeDeletions {
		return nil
	}
	return n.Delta.Modifications()
}

// Def defines a continual query for registration.
type Def struct {
	Name    string
	Query   string // SELECT text; alternatively set Select
	Select  *sql.SelectStmt
	Trigger sql.TriggerSpec
	Mode    sql.ResultMode
	Stop    sql.StopSpec
	// EpsilonMeasure selects net (default) or absolute accumulation for
	// TriggerEpsilon.
	EpsilonMeasure epsilon.Measure
	// NotifyEmpty delivers refreshes that produced no change (off by
	// default: Section 5.2 — "nothing needs to be returned").
	NotifyEmpty bool
}

// subscriber is one notification sink: a callback invoked synchronously
// under the owning instance's mu. Buffering and backpressure belong to
// the caller (continual.Subscription); a refresh never waits on a
// consumer.
type subscriber struct {
	fn func(n Notification, closed bool)
}

// ResumeToken identifies where a subscriber left off (ResubscribeFunc).
type ResumeToken struct {
	CQ  string
	Seq int // last sequence number received (0 = none)
}

// CQState is a read-only snapshot of a registered CQ, for inspection.
type CQState struct {
	Name       string
	Seq        int
	LastExec   vclock.Timestamp
	Terminated bool
	ResultLen  int
	// ResultBytes is the memory the CQ's maintained result holds: its
	// result table's columns, tid index and free list (string payloads,
	// shared with the base tables, not counted). A template member
	// reports its own result, not its group's.
	ResultBytes int
	Divergence  float64
	// Strategy is what the CQ's evaluator runs, fixed when it was
	// installed: "incremental" (an SPJ query evaluated differentially, or
	// an aggregate or DISTINCT query kept by a group table) or
	// "propagate" (complete re-evaluation: any other query, or any query
	// under UseDRA off or Config.Strategy propagate). Empty for a CQ
	// recovered terminated, which never refreshes again.
	Strategy string
	// LastErr is the error of the most recent failed trigger evaluation
	// or refresh for this CQ (nil after a successful refresh). Poll
	// isolates per-CQ failures — the round continues for the others —
	// so this is where a single CQ's persistent failure surfaces.
	// Panics and steps stopped at the refresh budget's deadline land
	// here too, as *guard.PanicError and guard.ErrBudgetExceeded
	// wrappers, written when the attempt returns, as any error is.
	LastErr error
	// Health is the guard state: "healthy", "probation", "quarantined".
	Health string
	// Failures is the consecutive refresh-failure count feeding the
	// quarantine breaker (resets on success).
	Failures int
	// Template is the shared-template fingerprint this CQ subscribes to
	// (Config.ShareTemplates), 0 when the CQ runs a private plan.
	Template uint64
	// TemplateMates is the current member count of the CQ's template
	// group, this CQ included (0 when unshared).
	TemplateMates int
	// Replicas is the state a standing join reads per operand — the
	// engine's arrangement of the operand's table: live rows, maintained
	// hash indexes, and the number of plans sharing it — in plan order,
	// whether the join is the plan or the input of an aggregate or
	// DISTINCT; empty for join-free plans. A template member reports its
	// group's.
	Replicas []dra.ReplicaStat
	// Groups is the number of groups an aggregate or DISTINCT CQ's group
	// table holds in its output (its refreshes touch a few of them; see
	// the cq.refresh span's groups_touched); 0 for other CQs.
	Groups int
}

// instance is the manager's record of one registered CQ.
type instance struct {
	def     Def
	plan    algebra.Plan
	tables  []string
	mode    sql.ResultMode
	trigger sql.TriggerSpec
	stop    sql.StopSpec
	// queryText is the canonical rendering of the query, captured at
	// registration; the durable registry persists it and re-parses it at
	// recovery.
	queryText string
	// spanName is the name of the CQ's refresh span, built once: a
	// refresh does not concatenate it again.
	spanName string
	// into is the materialization target (SELECT ... INTO): each refresh
	// commits the result delta into this derived base table. Empty for
	// terminal queries; immutable after the instance becomes visible.
	// The cascade refresh stage is NOT cached here — it lives in the
	// dependency DAG (Manager.dag, self-locked) because a later
	// registration can bump it retroactively: a producer adopting an
	// orphaned target table promotes that table's existing readers one
	// stage down the pipeline.
	into string

	// mu guards the mutable refresh state below (and subs). Lock order
	// is Manager.mu → instance.mu → templateGroup.mu; the refresh workers
	// of a round take only instance.mu (and through it their group's),
	// which is what lets DRA re-evaluation and notification delivery run
	// outside the manager lock.
	mu       sync.Mutex
	lastExec vclock.Timestamp // timestamp of the last execution
	lastObs  vclock.Timestamp // high-water mark of observed updates
	// horizon is lastExec, written with it (setLastExec) and read
	// without mu by the GC horizon, so a refresh step or a subscriber
	// callback running under mu never holds up collection.
	horizon atomic.Uint64
	// prev is the CQ's maintained result at lastExec (Section 4.3's
	// Et_i(Q)): a slot table every refresh applies its change to by
	// typed writes, so no row references the refresh output it came
	// from. Reads render copies (Result, Complete notifications).
	prev        *batch.Table
	seq         int
	updatesSeen int64
	lastErr     error                          // see CQState.LastErr
	eps         map[string]*epsilon.Accountant // per monitored table
	subs        []*subscriber
	// eval is the CQ's one evaluator, seeded at install and stepped by
	// every refresh: differential over the engine's arrangements for an SPJ
	// query, a group table for SUM/COUNT/AVG without HAVING and DISTINCT,
	// complete re-evaluation for any other query and under Config.UseDRA
	// off or Config.Strategy propagate. It is nil in two cases only: a
	// template member (group != nil), which streams from its group's plan
	// from the round it joined at, and a CQ recovered already terminated,
	// which never refreshes again.
	eval *dra.Prepared
	// in is eval's step context, refilled by every refresh (stepContext).
	in stepInput
	// res is the refresh's change: eval steps into it (StepInto), a
	// template member's fold reports into it, refresh after refresh.
	res dra.Result
	// fault, set only by the guard tests, fails every private step in
	// eval's place: it injects panics, errors and stalls.
	fault func() error
	// queued holds, in Seq order, the notifications of refreshes whose
	// execution record is staged with the journal and maybe not yet
	// written; a refresh worker delivers them once its flush has written
	// them (outbox).
	queued []queuedNote

	// terminated is atomic (not under mu) so the manager-lock paths
	// (gauge recomputation, GC horizon) can read it while a refresh
	// worker holds this instance's mu.
	terminated atomic.Bool
	// dropped is set by Drop under mu and read by refresh attempts
	// after they acquire mu (and atomically by skip paths): a dropped
	// instance must not journal executions or mutate state, or a
	// drop racing an in-flight refresh would write an execution record
	// after the drop record and corrupt recovery.
	dropped atomic.Bool

	// group is the shared-template group this CQ subscribes to
	// (Config.ShareTemplates), nil when unshared. Written at install
	// under m.mu before the instance is visible, or by a rejoin under
	// m.mu and inst.mu; cleared by Drop under inst.mu.
	group *templateGroup
	// orphan is the fingerprint of the template group this CQ found past
	// its resume point and so registered unshared (joinTemplateLocked); 0
	// when it has none or has rejoined it. Guarded by m.mu.
	orphan uint64

	// breaker is the CQ's quarantine circuit breaker — a self-locked
	// leaf, consultable under any manager/instance lock.
	breaker *guard.Breaker
}

// closeEval releases the instance's evaluator and with it its gauge
// shares. Caller holds inst.mu or owns an instance not yet visible.
func (inst *instance) closeEval() {
	if inst.eval != nil {
		inst.eval.Close()
		inst.eval = nil
	}
}

// Config tunes the manager.
type Config struct {
	// UseDRA selects differential re-evaluation; false uses complete
	// re-evaluation (the baseline), useful for benchmarking: every CQ is
	// then a private plan prepared with StrategyPropagate.
	UseDRA bool
	// Engine supplies the DRA engine; nil gets a default engine.
	Engine *dra.Engine
	// AutoGC collects differential-relation garbage after every refresh
	// round, at the system active delta zone boundary.
	AutoGC bool
	// Strategy is handed to dra.Prepare for every CQ and template group:
	// StrategyAuto (the default) lets each plan's shape decide —
	// differential for SPJ, a group table for SUM/COUNT/AVG without
	// HAVING and DISTINCT, complete re-evaluation otherwise — and
	// StrategyPropagate puts every plan on complete re-evaluation.
	Strategy dra.Strategy
	// Logf receives the manager's rare diagnostic lines (a quarantine, a
	// recovered panic, an emergency GC). Nil uses the standard library
	// logger.
	Logf func(format string, args ...any)
	// Parallelism bounds the worker pool Poll uses to refresh the fired
	// CQs of a round concurrently. 0 (the default) uses GOMAXPROCS;
	// 1 restores the serial refresh order. Whatever the pool size,
	// per-CQ Seq stays monotonic and each CQ's notifications are
	// delivered in order — only cross-CQ ordering within a round is
	// unspecified.
	Parallelism int
	// Metrics attaches the manager (and its engine, unless the engine is
	// already instrumented) to an obs registry. Nil disables
	// instrumentation entirely: every hook reduces to a nil check, so
	// the uninstrumented refresh path is benchmarkable against the
	// instrumented one.
	Metrics *obs.Registry
	// Journal, when set, receives every registry mutation and every
	// delivered execution in write-ahead order (see Journal). Nil on
	// in-memory managers.
	Journal Journal
	// Push enables commit-driven reactive refresh: the store's commit
	// hook publishes every committed delta into a router that evaluates
	// the affected CQs' triggers immediately instead of waiting for the
	// next Poll tick. The poll loop remains the fallback — time-based
	// (TriggerEvery) CQs are never routed (a commit says nothing about
	// the clock), and queue overflow degrades to batched polling — so
	// callers should keep Start running at a relaxed interval. Every
	// invariant of the poll path carries over: per-CQ Seq stays
	// gap-free and monotonic under mixed push/poll, notifications
	// journal before delivery, and a refresh delivered by push is
	// skipped by a racing Poll (and vice versa) rather than duplicated.
	Push bool
	// PushQueue bounds the push router's ready queue (default
	// push.DefaultQueue). A queued CQ coalesces later commits instead
	// of re-queueing, so capacity >= registered CQs makes overflow
	// impossible.
	PushQueue int
	// Guard configures overload protection: the per-refresh deadline
	// (Budget, which the step checks at its batch boundaries; zero
	// disables deadlines but panic isolation is always on) and the
	// quarantine circuit breaker (FailureThreshold,
	// BackoffBase/Max/Jitter). The zero value gets guard defaults:
	// no budget, quarantine after 3 consecutive failures.
	Guard guard.Policy
	// ShareTemplates deduplicates structurally identical CQs: queries
	// differing only in comparison constants (`price > 5` vs
	// `price > 90`) share one prepared template plan and one operand
	// index cache, with a parameter-dispatch stage routing each
	// template delta row to the matching subscribers (see template.go).
	// Per-CQ triggers, Seq, journaling, health and delivery semantics
	// are unchanged; queries whose shape cannot be templated register
	// unshared exactly as with ShareTemplates off.
	ShareTemplates bool
}

// Manager owns the registered continual queries over one store.
type Manager struct {
	store *storage.Store
	cfg   Config
	met   *metrics // nil when Config.Metrics is nil

	mu     sync.Mutex
	cqs    map[string]*instance
	closed bool
	// breakers maps each name in cqs to its breaker, read without mu.
	breakers sync.Map
	// dag is the cascade dependency registry: every CQ enters it as a
	// reader of its source tables, materializing CQs also as the
	// producer of their INTO target. It is a self-locked leaf,
	// consultable under (or without) mu.
	dag *cascade.Registry
	// templates is the shared-template registry (Config.ShareTemplates):
	// template fingerprint → group. Guarded by mu; each group's own
	// refresh state lives behind its leaf lock (see template.go).
	templates map[uint64]*templateGroup
	// reapDue is raised (under a member's instance lock, where the
	// manager lock cannot be taken) when a termination leaves a template
	// group without active members; the round's housekeeping reaps it.
	reapDue atomic.Bool
	// orphans counts the live CQs registered unshared behind their
	// template group (instance.orphan): while it is above zero, a round
	// ends by moving those that caught up into their group
	// (rejoinTemplatesLocked).
	orphans atomic.Int64
	// round is the last round taken, reused by every round at its
	// timestamp (newRound); rounds counts the rounds taken (round.n).
	// Guarded by mu.
	round  round
	rounds uint64
	// pending holds, during recovery's replay, the materializing CQs
	// registered and not live yet (Replay). Guarded by mu.
	pending map[string]*wal.CQEntry

	// router is the push subsystem (nil unless Config.Push): it owns
	// the store's commit hook and the dispatcher workers. Guarded by mu
	// for replacement; the router itself is concurrency-safe.
	router *push.Router
	// gcTicks throttles AutoGC outside the sweeping rounds: collecting
	// after every push dispatch would cost O(CQs) per commit, so those
	// collect every gcEvery refreshing rounds and let the poll loop do
	// the rest (housekeep).
	gcTicks atomic.Uint64

	// guardPol is Config.Guard with defaults applied; breakerSeed
	// derives a distinct jitter stream per breaker.
	guardPol    guard.Policy
	breakerSeed atomic.Int64
	// staged numbers the execution records staged with the journal
	// (Journal.StageCQExec): a flush that read it as n before it started
	// has written every record numbered n or less.
	staged atomic.Uint64

	// background loop lifecycle
	loopStop chan struct{}
	loopDone chan struct{}
}

// gcEvery is the AutoGC period of non-sweeping rounds, in rounds that
// refreshed something.
const gcEvery = 64

// NewManager creates a manager with differential re-evaluation enabled.
func NewManager(store *storage.Store) *Manager {
	return NewManagerConfig(store, Config{UseDRA: true, AutoGC: true})
}

// NewManagerConfig creates a manager with explicit configuration.
func NewManagerConfig(store *storage.Store, cfg Config) *Manager {
	if cfg.Engine == nil {
		cfg.Engine = dra.NewEngine()
	}
	if cfg.Metrics != nil && cfg.Engine.Metrics == nil {
		cfg.Engine.Instrument(cfg.Metrics)
	}
	if !cfg.UseDRA {
		cfg.Strategy = dra.StrategyPropagate // the baseline is every plan on complete re-evaluation
	}
	m := &Manager{
		store:     store,
		cfg:       cfg,
		met:       newMetrics(cfg.Metrics),
		cqs:       make(map[string]*instance),
		templates: make(map[uint64]*templateGroup),
		dag:       cascade.New(cascade.DefaultMaxDepth),
	}
	m.guardPol = cfg.Guard.WithDefaults()
	// Degraded-mode hook: a watermark trip runs emergency GC to shed
	// delta retention. Invoked on the store's own goroutine, never
	// under its mutex, so CollectGarbage is safe here.
	store.SetPressureHook(m.onPressure)
	if cfg.Push {
		m.router = push.NewRouter(push.Config{
			Queue:   cfg.PushQueue,
			Workers: cfg.Parallelism,
			Metrics: cfg.Metrics,
			Logf:    cfg.Logf,
		}, m.pushDispatch)
		store.SetCommitHook(m.router.Publish)
	}
	return m
}

// Stats returns a point-in-time snapshot of the metrics registry this
// manager was configured with (empty when uninstrumented).
func (m *Manager) Stats() obs.Snapshot { return m.cfg.Metrics.Snapshot() }

// Traces returns the trace log of recent refresh spans (nil when
// uninstrumented).
func (m *Manager) Traces() *obs.TraceLog { return m.cfg.Metrics.Traces() }

// Register installs a continual query, runs its initial execution, and
// notifies subscribers attached later only with subsequent refreshes (the
// initial result is returned). The returned relation is a copy rendered
// from the CQ's result table, the caller's to keep and to write.
func (m *Manager) Register(def Def) (*relation.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	initial, err := m.installLocked(def, nil, m.newRound())
	if err != nil {
		return nil, err
	}
	return initial.Relation(), nil
}

// installLocked is the one way a CQ enters the registry: it seeds the CQ
// at rd, the round it is handed — Register passes a fresh round, Resume
// one round per run of equal LastExec, Replay one per producer. A fresh
// registration (rec nil) starts its result sequence at 1, and the
// journal gets a registration record before the CQ becomes visible. A
// recovered one carries Seq and health over from the entry, unjournaled,
// and re-derives its result by the same initial execution over the store
// as of its last execution (paper §4.2). It returns the CQ's result at
// the seed. Caller holds m.mu.
func (m *Manager) installLocked(def Def, rec *wal.CQEntry, rd round) (*batch.Table, error) {
	if m.closed {
		return nil, ErrClosed
	}
	if def.Name == "" {
		return nil, errors.New("cq: name required")
	}
	if _, dup := m.cqs[def.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateCQ, def.Name)
	}
	if _, serr := m.store.Schema(def.Name); serr == nil {
		return nil, fmt.Errorf("%w: continual query %q would shadow a table", ErrNameCollision, def.Name)
	}
	stmt := def.Select
	if stmt == nil {
		parsed, err := sql.ParseSelect(def.Query)
		if err != nil {
			return nil, err
		}
		stmt = parsed
	}
	if stmt.Into != "" {
		if stmt.Into == def.Name {
			return nil, fmt.Errorf("%w: INTO target %q equals the query name", ErrNameCollision, stmt.Into)
		}
		if _, ok := m.cqs[stmt.Into]; ok {
			return nil, fmt.Errorf("%w: INTO target %q is a registered continual query", ErrNameCollision, stmt.Into)
		}
	}
	if def.Mode == 0 {
		def.Mode = sql.ModeDifferential
	}
	if def.Trigger.Kind == 0 {
		def.Trigger = sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 1}
	}

	plan, err := algebra.PlanSelect(stmt, m.store.Live())
	if err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan)

	inst := &instance{
		def:       def,
		plan:      plan,
		mode:      def.Mode,
		trigger:   def.Trigger,
		stop:      def.Stop,
		queryText: stmt.String(),
		spanName:  "cq.refresh:" + def.Name,
		into:      stmt.Into,
		seq:       1,
		breaker:   guard.NewBreaker(m.guardPol, m.breakerSeed.Add(1)),
	}
	for _, scan := range algebra.Tables(plan) {
		inst.tables = append(inst.tables, scan.Table)
	}

	// Every CQ enters the dependency DAG — terminal queries as readers
	// (dependent tracking), INTO queries also as their target's producer
	// (stage assignment, cycle and depth checks). Recovery resumes
	// entries in snapshot order, which need not be registration order —
	// a reader can rejoin before its upstream's producer does; the
	// registry recomputes every node's stage when a producer registers,
	// so the staged poll converges to the pre-crash topology either way.
	if _, err := m.dag.Register(def.Name, inst.tables, inst.into); err != nil {
		return nil, err
	}
	// Any later failure must leave nothing behind: no evaluator gauge
	// share, no template membership, no edges, no half-created target.
	installed, createdTarget := false, false
	defer func() {
		if installed {
			return
		}
		inst.closeEval()
		m.leaveTemplateLocked(inst)
		if inst.orphan != 0 {
			m.orphans.Add(-1)
		}
		m.dag.Unregister(def.Name)
		if createdTarget {
			_ = m.store.DropTable(inst.into)
		}
	}()

	if def.Trigger.Kind == sql.TriggerEpsilon {
		// On recovery the accountants restart empty: their divergence
		// re-accumulates from the replayed window as lastObs advances.
		if err := m.setupEpsilon(inst, stmt); err != nil {
			return nil, err
		}
	}

	inst.setLastExec(rd.ts) // a recovered CQ's rd.ts is its LastExec
	if rec != nil {
		inst.seq = rec.Seq
		inst.terminated.Store(rec.Terminated)
		// A CQ that was quarantined (or probing) when the checkpoint cut
		// resumes in probation, not healthy: one immediate probe is
		// allowed, but a persistently failing CQ does not get a free
		// quarantine escape via restart.
		if guard.ParseHealth(rec.Health) != guard.Healthy {
			inst.breaker.SeedProbation()
		}
	}

	// The evaluator (Section 4.2: Algorithm 1 applies "after its initial
	// execution"). A template member takes σ_params of its group's result
	// at rd and runs no plan of its own. Materializing CQs never share —
	// their refreshes commit into a private target, so the plan stays
	// private too. A terminated sequence never steps: it gets none.
	if m.cfg.UseDRA && !inst.terminated.Load() && inst.into == "" {
		if err := m.joinTemplateLocked(inst, rd); err != nil {
			return nil, err
		}
	}
	switch {
	case inst.terminated.Load():
		// Recovered terminated: it no longer pins the GC horizon, so the
		// store at LastExec may be collected and the result cannot be
		// re-derived. An empty table keeps State/Result well defined.
		inst.prev = batch.NewTable(plan.Schema(), 0)
	case inst.group == nil:
		// The initial execution as of rd over its cache's table images:
		// every CQ seeded at one timestamp reads the same image of each
		// table, and the store's read lock is held only while an image is
		// built. A commit landing meanwhile is past rd and left to the
		// first refresh — for a recovered CQ, the post-crash window. The
		// store at a live CQ's LastExec is always reconstructible, because
		// the GC horizon never passes the minimum live lastExec.
		if inst.eval, err = m.cfg.Engine.Prepare(plan, m.cfg.Strategy); err != nil {
			return nil, err
		}
		if inst.prev, err = inst.eval.Seed(rd.cache.At(rd.ts), rd.ts); err != nil {
			return nil, err
		}
	}
	inst.lastObs = inst.lastExec

	// Journal before the registry mutation becomes visible: a journal
	// failure fails the registration with the manager unchanged. A seed
	// commit carries the record in its write-ahead step.
	var reg *wal.Record
	if rec == nil && m.cfg.Journal != nil {
		reg = &wal.Record{Kind: wal.KindCQRegister, CQ: inst.entry()}
	}
	if inst.into != "" {
		// Create the target table, or adopt an existing one. A fresh
		// registration seeds it to the initial result; the seed commit
		// ticks the clock past lastExec, which is harmless — the target is
		// never one of this CQ's own operands. A recovered one finds it
		// as its last execution left it.
		createdTarget, err = m.ensureTargetLocked(inst)
		if err == nil && rec == nil {
			err = m.reconcileTarget(inst, inst.prev.Relation(), reg)
		}
		if err != nil {
			return nil, fmt.Errorf("cq %q: materialize target %q: %w", def.Name, inst.into, err)
		}
	}
	if reg != nil && reg.TS == 0 {
		if err := m.cfg.Journal.AppendCQ(reg); err != nil {
			return nil, fmt.Errorf("cq %q: journal registration: %w", def.Name, err)
		}
	}
	m.cqs[def.Name] = inst
	m.breakers.Store(def.Name, inst.breaker)
	m.routePushLocked(inst)
	m.registeredDelta(inst, +1)
	installed = true
	return inst.prev, nil
}

// routePushLocked indexes a CQ in the push router. Time-based triggers
// are never routed: a commit carries no information about the clock, so
// TriggerEvery CQs stay on the poll loop — the trigger-kind routing
// rule of the hybrid execution model. Caller holds m.mu.
func (m *Manager) routePushLocked(inst *instance) {
	if m.router == nil || inst.trigger.Kind == sql.TriggerEvery || inst.terminated.Load() {
		return
	}
	// Grouped members are covered by their template's single route
	// (routeTemplateLocked): one queue entry per touched template, not
	// one per member.
	if inst.group != nil {
		return
	}
	// The gate lets the router skip quarantined CQs without dispatching:
	// it runs under the router's (and possibly the store's) lock, so it
	// must stay a side-effect-free breaker read.
	b := inst.breaker
	m.router.Register(inst.def.Name, inst.tables, func() bool {
		return !b.Blocked()
	})
}

// registeredDelta adjusts the population gauges for one instance
// arriving (+1) or leaving (-1) — registered, dropped, or terminated by
// its Stop condition — without sweeping the registry: Register and Drop
// on a million-CQ manager must stay O(1), and so must a push dispatch
// whose refresh terminates its CQ. The gauges are atomic and the breaker
// self-locked, so it needs no manager lock; the authoritative sweep
// (updateRegisteredLocked) runs once per poll round and corrects any
// drift from concurrent health transitions.
func (m *Manager) registeredDelta(inst *instance, dir int64) {
	if m.met == nil || inst.terminated.Load() {
		return // sweeps never count terminated instances either
	}
	m.met.registered.Add(dir)
	switch inst.breaker.State() {
	case guard.Probation:
		m.met.healthProbation.Add(dir)
	case guard.Quarantined:
		m.met.healthQuarantined.Add(dir)
	default:
		m.met.healthHealthy.Add(dir)
	}
}

// updateRegisteredLocked recomputes the live-CQ and health gauges.
// Caller holds m.mu (breakers are self-locked leaves, safe to read here).
func (m *Manager) updateRegisteredLocked() {
	if m.met == nil {
		return
	}
	live, healthy, probation, quarantined := 0, 0, 0, 0
	for _, inst := range m.cqs {
		if inst.terminated.Load() {
			continue
		}
		live++
		switch inst.breaker.State() {
		case guard.Probation:
			probation++
		case guard.Quarantined:
			quarantined++
		default:
			healthy++
		}
	}
	m.met.registered.Set(int64(live))
	m.met.healthHealthy.Set(int64(healthy))
	m.met.healthProbation.Set(int64(probation))
	m.met.healthQuarantined.Set(int64(quarantined))
}

// Health summarizes the guard state of the registry for readiness and
// operator surfaces.
type Health struct {
	Healthy     int
	Probation   int
	Quarantined int
	// Degraded lists the CQs currently in probation or quarantine
	// (sorted).
	Degraded []string
}

// Health reports how many CQs are healthy, probing, or quarantined.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out Health
	for name, inst := range m.cqs {
		if inst.terminated.Load() {
			continue
		}
		switch inst.breaker.State() {
		case guard.Probation:
			out.Probation++
			out.Degraded = append(out.Degraded, name)
		case guard.Quarantined:
			out.Quarantined++
			out.Degraded = append(out.Degraded, name)
		default:
			out.Healthy++
		}
	}
	sort.Strings(out.Degraded)
	m.updateRegisteredLocked()
	return out
}

// setupEpsilon resolves the monitored expression to the tables whose
// schemas it compiles against and installs accountants.
func (m *Manager) setupEpsilon(inst *instance, stmt *sql.SelectStmt) error {
	on := inst.trigger.On
	if on == nil {
		// Default: monitor the argument of the first aggregate in the
		// select list (the checking-account idiom: SELECT SUM(amount)).
		for _, it := range stmt.Items {
			if fc, ok := it.Expr.(*sql.FuncCall); ok && sql.AggregateFuncs[fc.Name] && fc.Arg != nil {
				on = fc.Arg
				break
			}
		}
		if on == nil {
			return errors.New("cq: epsilon trigger needs ON expression or an aggregate select list")
		}
	}
	spec := epsilon.Spec{Expr: on, Bound: inst.trigger.Bound, Measure: inst.def.EpsilonMeasure}
	inst.eps = make(map[string]*epsilon.Accountant)
	var attached []string
	for _, table := range inst.tables {
		schema, err := m.store.Schema(table)
		if err != nil {
			return err
		}
		acct, err := epsilon.NewAccountant(spec, schema)
		if err != nil {
			continue // expression does not apply to this table
		}
		inst.eps[table] = acct
		attached = append(attached, table)
	}
	if len(attached) == 0 {
		return fmt.Errorf("cq: epsilon expression %s matches no operand table", on)
	}
	return nil
}

// RegisterSQL installs a CQ from a CREATE CONTINUAL QUERY statement.
func (m *Manager) RegisterSQL(src string) (*relation.Relation, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	create, ok := stmt.(*sql.CreateCQStmt)
	if !ok {
		return nil, errors.New("cq: expected CREATE CONTINUAL QUERY")
	}
	return m.Register(Def{
		Name:    create.Name,
		Select:  create.Select,
		Trigger: create.Trigger,
		Mode:    create.Mode,
		Stop:    create.Stop,
	})
}

// attach is the one way a subscriber joins a CQ. It runs under the
// instance lock, so the attach point it returns — the CQ's Seq, ExecTS
// and termination at that instant, plus the complete result when
// snapshot is set — and the first callback invocation leave no gap and
// no overlap between them. The returned function detaches.
func (m *Manager) attach(name string, f func(n Notification, closed bool), snapshot bool) (func(), Notification, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return nil, Notification{}, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	sub := &subscriber{fn: f}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if len(inst.queued) > 0 {
		// A queued notification belongs to the subscribers of the refresh
		// that made it: it goes out before the new one attaches at the
		// CQ's present Seq, or the newcomer would receive that Seq twice.
		m.flushQueuedLocked(inst)
	}
	at := Notification{
		CQName:     name,
		Seq:        inst.seq,
		ExecTS:     inst.lastExec,
		Mode:       inst.mode,
		Terminated: inst.terminated.Load(),
	}
	if snapshot {
		at.Complete = inst.prev.Relation()
	}
	inst.subs = append(inst.subs, sub)
	cancel := func() {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		for i, s := range inst.subs {
			if s == sub {
				inst.subs = append(inst.subs[:i], inst.subs[i+1:]...)
				break
			}
		}
	}
	return cancel, at, nil
}

// SubscribeFunc attaches a callback invoked synchronously while the
// refresh is delivered: when Poll returns, every fired notification has
// been handed to the callback. The callback runs under the CQ's
// instance lock on a refresh worker goroutine — callbacks of different
// CQs may run concurrently, one CQ's callbacks never do — and must not
// call back into the Manager or cancel a subscription. On Drop or Close
// it is invoked once more with closed = true.
func (m *Manager) SubscribeFunc(name string, f func(n Notification, closed bool)) (func(), error) {
	cancel, _, err := m.attach(name, f, false)
	return cancel, err
}

// ResubscribeFunc reattaches a subscriber holding a ResumeToken (the
// public Subscription layer, after its Disconnect policy fired). The
// returned Notification is the catch-up: the current complete result at
// the CQ's present sequence, with Dropped set to the number of
// executions missed since the token; the stream then continues gap-free
// from it (see attach).
func (m *Manager) ResubscribeFunc(tok ResumeToken, f func(n Notification, closed bool)) (func(), Notification, error) {
	cancel, catch, err := m.attach(tok.CQ, f, true)
	catch.Dropped = max(catch.Seq-tok.Seq, 0)
	return cancel, catch, err
}

// Names lists registered CQ names (sorted).
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.cqs))
	for n := range m.cqs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// State returns a snapshot of a CQ's bookkeeping.
func (m *Manager) State(name string) (CQState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return CQState{}, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	st := CQState{
		Name:        name,
		Seq:         inst.seq,
		LastExec:    inst.lastExec,
		Terminated:  inst.terminated.Load(),
		ResultLen:   inst.prev.Len(),
		ResultBytes: inst.prev.Bytes(),
		LastErr:     inst.lastErr,
		Health:      inst.breaker.State().String(),
		Failures:    inst.breaker.Failures(),
	}
	if ev := inst.eval; ev != nil {
		st.Strategy = ev.Strategy().String()
		st.Replicas = ev.Replicas()
		st.Groups, _ = ev.Groups()
	}
	if g := inst.group; g != nil {
		st.Template = g.fp
		g.mu.Lock()
		st.TemplateMates = len(g.members)
		st.Strategy = g.prepared.Strategy().String()
		st.Replicas = g.prepared.Replicas()
		g.mu.Unlock()
	}
	for _, acct := range inst.eps {
		st.Divergence += acct.Divergence()
	}
	return st, nil
}

// Result returns the CQ's current complete result: a copy rendered from
// its result table, the caller's to keep and to write. A sorted query's
// rows come in ORDER BY order.
func (m *Manager) Result(name string) (*relation.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.prev.Relation(), nil
}

// Drop removes a CQ. A refresh of it already in flight completes (its
// subscribers are notified) before the subscriptions close.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.cqs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchCQ, name)
	}
	// A producer cannot be dropped out from under its readers: their
	// plans scan its derived table, and the recovery contract replays
	// the DAG in registration order — both break if the table vanishes.
	if deps := m.dag.Dependents(name); len(deps) > 0 {
		return &cascade.DependentsError{Name: name, Dependents: deps}
	}
	// The drop journals and tears down under the INSTANCE lock: a
	// refresh already holding it journals its execution first, so the
	// WAL never orders an execution record after the drop record
	// (replay refuses executions for unregistered CQs). Once the lock
	// is ours, the dropped flag stops any later refresh attempt from
	// journaling or resurrecting per-CQ state.
	//
	// Journal before the in-memory mutation: a drop that is not durable
	// must not happen in memory, or a restart would resurrect the CQ.
	inst.mu.Lock()
	inst.dropped.Store(true)
	upTo := m.staged.Load()
	if m.cfg.Journal != nil {
		if err := m.cfg.Journal.AppendCQ(&wal.Record{Kind: wal.KindCQDrop, Name: name}); err != nil {
			inst.dropped.Store(false)
			inst.mu.Unlock()
			return fmt.Errorf("cq %q: journal drop: %w", name, err)
		}
	}
	// The drop's record went out behind every staged one: what the CQ
	// has queued is written, and reaches its subscribers before they
	// close.
	m.deliverQueuedLocked(inst, upTo)
	closeSubs(inst)
	inst.closeEval()
	// Under inst.mu: an in-flight refresh of THIS member either finished
	// (it held the lock before us) or will see dropped and skip;
	// template-mates' refreshes only touch the group's leaf lock, so
	// removing the member here cannot deadlock or race a dispatch into
	// its pending buffer.
	m.leaveTemplateLocked(inst)
	inst.mu.Unlock()
	m.forgetLocked(inst)
	if inst.into != "" {
		// The derived table goes with its producer — no readers remain
		// (checked above). A failure is logged, not returned: the CQ
		// itself is already durably dropped.
		if derr := m.store.DropTable(inst.into); derr != nil {
			m.logf("cq %q: drop derived table %q: %v", name, inst.into, derr)
		}
	}
	return nil
}

// forgetLocked takes a dropped CQ out of the registry, the push router,
// the dependency DAG and the gauges. Caller holds m.mu.
func (m *Manager) forgetLocked(inst *instance) {
	name := inst.def.Name
	if inst.orphan != 0 {
		inst.orphan = 0
		m.orphans.Add(-1)
	}
	delete(m.cqs, name)
	m.breakers.Delete(name)
	if m.router != nil {
		m.router.Unregister(name)
	}
	m.dag.Unregister(name)
	m.registeredDelta(inst, -1)
}

// closeSubs tells every subscriber the stream is over. Caller holds
// inst.mu. The callbacks are panic-isolated: teardown runs under manager
// locks, so a panicking callback must not unwind through Drop or Close.
func closeSubs(inst *instance) {
	for _, s := range inst.subs {
		fn := s.fn
		_ = guard.Protect(func() error {
			fn(Notification{}, true)
			return nil
		})
	}
	inst.subs = nil
}

// setLastExec moves the CQ's last execution to ts. Caller holds inst.mu.
func (inst *instance) setLastExec(ts vclock.Timestamp) {
	inst.lastExec = ts
	inst.horizon.Store(uint64(ts))
}

// gcLocked collects differential-relation garbage below the system
// active delta zone (Section 5.4), refined per table: each table's
// horizon is the minimum last-execution timestamp over the live CQs
// reading it. It returns the number of rows the store collected.
// Caller holds m.mu but no instance locks: each instance's lastExec is
// read from its lock-free copy (horizon), which moves only once a
// refresh has committed, so a refresh in flight — whose windows start
// at the old value — keeps them.
func (m *Manager) gcLocked() int {
	if len(m.cqs) == 0 {
		return 0
	}
	// Horizons are per table: each table is collectable up to the
	// minimum lastExec of the CQs that actually read it, with the global
	// minimum as the fallback for unread tables. The distinction is what
	// keeps cascades affordable — a derived table's window must survive
	// until its slowest downstream reader catches up, but that reader
	// pins only its own operands, not the base tables of every other
	// stage.
	var global vclock.Timestamp
	first := true
	perTable := make(map[string]vclock.Timestamp)
	for _, inst := range m.cqs {
		if inst.terminated.Load() {
			continue
		}
		lastExec := vclock.Timestamp(inst.horizon.Load())
		if first || lastExec < global {
			global = lastExec
			first = false
		}
		for _, t := range inst.tables {
			if h, ok := perTable[t]; !ok || lastExec < h {
				perTable[t] = lastExec
			}
		}
	}
	var reclaimed int
	if first {
		// All terminated: everything is collectable.
		reclaimed = m.store.CollectGarbage(m.store.Now())
	} else {
		horizons := make(map[string]vclock.Timestamp)
		for _, t := range m.store.TableNames() {
			if h, ok := perTable[t]; ok {
				horizons[t] = h
			} else {
				horizons[t] = global
			}
		}
		reclaimed = m.store.CollectGarbageTables(horizons)
	}
	if mm := m.met; mm != nil {
		mm.gcReclaimed.Add(int64(reclaimed))
	}
	return reclaimed
}

// CollectGarbage exposes the GC step for callers managing their own poll
// loop. Returns the number of delta rows collected; a closed manager
// collects nothing.
func (m *Manager) CollectGarbage() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0
	}
	return m.gcLocked()
}

// Start launches the asynchronous evaluation loop: Poll every interval.
// Stop it with Close. Section 5.3: "the CQ manager can decide when to
// evaluate Tcq by a system-defined default interval".
func (m *Manager) Start(interval time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.loopStop != nil {
		return errors.New("cq: loop already running")
	}
	m.loopStop = make(chan struct{})
	m.loopDone = make(chan struct{})
	// guarded: loop panic-isolates each Poll and must keep ticking.
	go m.loop(interval, m.loopStop, m.loopDone)
	return nil
}

func (m *Manager) loop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Errors inside the background loop surface through State and
			// notifications; a failed poll leaves trigger state intact and
			// is retried next tick. Panic isolation keeps the loop alive:
			// per-CQ panics are already absorbed by guardedRefresh, so
			// this recovers only manager-level faults.
			if perr := guard.Protect(func() error {
				_, _ = m.Poll()
				return nil
			}); perr != nil {
				m.logf("cq: poll loop recovered: %v", perr)
			}
		case <-stop:
			return
		}
	}
}

// Close stops the background loop (if running), drains the push router
// (pending dispatches refresh against the still-open manager, so no
// committed delta is left unevaluated), and tells every subscriber its
// stream is over.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	stop, done := m.loopStop, m.loopDone
	m.loopStop, m.loopDone = nil, nil
	router := m.router
	m.router = nil
	m.mu.Unlock()
	// Detach the pressure hook: an overload trip after close must not
	// call back into a dead manager.
	m.store.SetPressureHook(nil)
	if stop != nil {
		close(stop)
		<-done
	}
	if router != nil {
		// Detach the commit hook first: a commit racing with shutdown
		// must not publish into a closing router. Its delta stays in
		// the store; nothing here evaluates it, which matches the
		// poll-loop shutdown semantics.
		m.store.SetCommitHook(nil)
		router.Close()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, inst := range m.cqs {
		inst.mu.Lock()
		closeSubs(inst)
		inst.closeEval()
		inst.mu.Unlock()
	}
	for fp, g := range m.templates {
		g.mu.Lock()
		g.prepared.Close()
		g.mu.Unlock()
		delete(m.templates, fp)
	}
	return nil
}

// onPressure is the store's overload observer (Config wiring in
// NewManagerConfig): a soft or hard watermark trip runs emergency GC,
// reclaiming every delta row below the system active delta zone so the
// store can clear the watermark without waiting for the next poll tick.
// Runs on the store's hook goroutine, panic-isolated.
func (m *Manager) onPressure(level storage.OverloadLevel) {
	if level < storage.OverloadSoft {
		return
	}
	_ = guard.Protect(func() error {
		if mm := m.met; mm != nil {
			mm.emergencyGC.Inc()
		}
		reclaimed := m.CollectGarbage()
		m.logf("cq: overload %v: emergency GC reclaimed %d delta rows", level, reclaimed)
		return nil
	})
}

// logf writes one diagnostic line through Config.Logf, defaulting to
// the standard library logger.
func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}
