package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/push"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// The layer replay drives the workload's commit stream, single
// goroutine, through a pipeline assembled by hand from the layers'
// exported functions:
//
//	Tx.Commit (→ wal.Log.AppendTx, push.Router.Publish from its hooks)
//	→ WindowCache.Window → batch.FromDelta → Step → ToDeltaNetted/ApplyTo
//	→ MutableIndex maintenance → materialize commit → MirrorCQ.Refresh
//
// timing every call. It is a yardstick for each layer in isolation, not
// a decomposition of the engine's own time: the engine runs the same
// calls on a worker pool, beside triggers, journalling and delivery the
// replay does not have. That residual is cq.overhead_share.

// lap is one layer's accumulated time, calls and allocations.
type lap struct {
	ns     time.Duration
	calls  int
	allocs uint64
}

func (l *lap) meanUS() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.ns.Nanoseconds()) / 1e3 / float64(l.calls)
}

func (l *lap) meanAllocs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.allocs) / float64(l.calls)
}

// replayCQ is one query of the replay with whichever of the dra state
// keepers Manager.Register would have picked for it.
type replayCQ struct {
	def    cqDef
	plan   algebra.Plan
	tables []string
	stage  int
	into   string

	prep *dra.Prepared
	agg  *dra.IncrementalAggregate
	dist *dra.IncrementalDistinct
	prev *relation.Relation

	full *baseline.Full // sampled queries only
}

func (c *replayCQ) step(ctx *dra.Context, ts vclock.Timestamp) (*dra.Result, error) {
	switch {
	case c.agg != nil:
		return c.agg.Step(ctx, ts)
	case c.dist != nil:
		return c.dist.Step(ctx, ts)
	default:
		return c.prep.Step(ctx, ts)
	}
}

// replay is the assembled pipeline and its timers.
type replay struct {
	*stream
	store  *storage.Store
	eng    *dra.Engine
	cqs    []*replayCQ
	stages int
	last   []vclock.Timestamp // per stage: timestamp of its last round

	log    *wal.Log
	router *push.Router
	server *remote.Server
	client *remote.Client
	mirror *remote.MirrorCQ
	index  map[string]*relation.MutableIndex // join-key replicas

	spans  *spanLog
	timing bool
	parent int32 // span of the commit or round in progress

	commit, walAppend, publish       lap
	window, build, net, maint, mater lap
	step                             map[string]*lap
	mirrorLap, fullLap, sampledStep  lap
	buildRows, mirrorBytes           int64
	snapshotBytes                    int64
	rounds, mismatches               int
	fullChecks, sampledNext          int
}

// timed runs fn as one span of layer l.
func (r *replay) timed(l *lap, name string, trace vclock.Timestamp, fn func() error) error {
	if !r.timing {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	l.ns += t1.Sub(t0)
	l.calls++
	if r.spans != nil {
		r.spans.add(name, t0, t1, r.parent, int64(trace))
	}
	return err
}

// walSink forwards the bare store's write-ahead calls to a real log,
// timing the transaction appends.
type walSink struct{ r *replay }

func (s walSink) AppendTx(ts vclock.Timestamp, rows []wal.TxRow) error {
	return s.r.timed(&s.r.walAppend, "wal.Log.AppendTx", ts, func() error { return s.r.log.AppendTx(ts, rows) })
}
func (s walSink) AppendCreateTable(name string, schema relation.Schema) error {
	return s.r.log.AppendCreateTable(name, schema)
}
func (s walSink) AppendDropTable(name string) error { return s.r.log.AppendDropTable(name) }

// mirrorEvery is the number of rounds between MirrorCQ refreshes; at
// mix_push's open-loop rate that is about one refresh per 100 ms.
const mirrorEvery = 16

// fullEvery is the number of rounds between complete re-evaluations of
// one sampled query.
const fullEvery = 64

// newReplay assembles the pipeline; walDir holds the throw-away log of a
// durable workload and is removed by close.
func newReplay(w *workload, seed int64, scale float64, walDir string, spans *spanLog) (*replay, error) {
	r := &replay{
		stream: newStream(w, seed, scale), store: storage.NewStore(), eng: dra.NewEngine(),
		spans: spans, parent: -1, step: map[string]*lap{},
		index: map[string]*relation.MutableIndex{},
	}
	for _, k := range []string{"select", "join", "agg", "distinct"} {
		r.step[k] = &lap{}
	}
	if w.durable {
		if err := os.RemoveAll(walDir); err != nil { // a crashed run's leftovers
			return r, err
		}
		log, err := wal.Open(walDir, wal.Options{Fsync: wal.FsyncInterval})
		if err != nil {
			return r, err
		}
		r.log = log
		r.store.SetWALSink(walSink{r})
	}
	err := r.seed(
		func(def tableDef) error { return r.store.CreateTable(def.name, def.schema) },
		func(ops []op) error { _, err := r.commitOps(ops); return err })
	if err != nil {
		return r, err
	}
	if err := r.prepareCQs(w.cqs(scale)); err != nil {
		return r, err
	}
	for table, col := range w.joinKeys {
		rel, err := r.store.Snapshot(table)
		if err != nil {
			return r, err
		}
		ix := relation.NewMutableIndex([]int{col})
		for _, tu := range rel.Tuples() {
			ix.Add(tu)
		}
		r.index[table] = ix
	}
	if w.push {
		r.router = push.NewRouter(push.Config{}, func(string) (bool, bool, error) { return false, false, nil })
		routed := map[string]bool{}
		for _, c := range r.cqs {
			name := c.def.name
			if w.share && c.def.group != "" {
				name = c.def.group // one route per shared template
			}
			if !routed[name] {
				routed[name] = true
				r.router.Register(name, c.tables, nil)
			}
		}
		r.store.SetCommitHook(func(ev storage.CommitEvent) {
			_ = r.timed(&r.publish, "push.Router.Publish", ev.TS, func() error { r.router.Publish(ev); return nil })
		})
	}
	if w.mirror != "" {
		r.server = remote.NewServer(r.store)
		addr, err := r.server.Serve("127.0.0.1:0")
		if err != nil {
			return r, err
		}
		if r.client, err = remote.Dial(addr); err != nil {
			return r, err
		}
		if r.mirror, err = remote.NewMirrorCQ(r.client, w.mirror); err != nil {
			return r, err
		}
		r.snapshotBytes = r.client.BytesRead()
	}
	return r, nil
}

// prepareCQs plans every oracle query of the workload, picks its state
// keeper the way cq.newMaintainer does, evaluates its initial result and
// creates materialization targets, in dependency order.
func (r *replay) prepareCQs(defs []cqDef) error {
	producedAt := map[string]int{} // derived table → stage of its readers
	var sampled []*replayCQ
	groups := map[string]bool{}
	for _, def := range defs {
		if !def.oracle {
			continue
		}
		stmt, err := sql.ParseSelect(def.query)
		if err != nil {
			return err
		}
		plan, err := algebra.PlanSelect(stmt, r.store.Live())
		if err != nil {
			return fmt.Errorf("replay plan %s: %w", def.name, err)
		}
		c := &replayCQ{def: def, plan: algebra.Optimize(plan), into: stmt.Into}
		if r.w.share && def.group != "" {
			// The engine evaluates one constant-stripped template plan
			// per group and dispatches its delta to the members (the
			// dispatch index is not exported); the replay steps that
			// template plan once, not each member's private plan.
			if groups[def.group] {
				continue
			}
			groups[def.group] = true
			tpl, _, ok := algebra.ExtractTemplate(c.plan)
			if !ok {
				return fmt.Errorf("replay: %s does not template", def.name)
			}
			c.def.name = "template:" + def.group
			c.plan = tpl.Plan
		}
		for _, scan := range algebra.Tables(c.plan) {
			c.tables = append(c.tables, scan.Table)
			if s := producedAt[scan.Table]; s > c.stage {
				c.stage = s
			}
		}
		switch def.kind {
		case "agg":
			if c.agg, err = dra.NewIncrementalAggregate(r.eng, c.plan, r.store.Live()); err == nil {
				c.prev = c.agg.Result().Clone()
			}
		case "distinct":
			if c.dist, err = dra.NewIncrementalDistinct(r.eng, c.plan, r.store.Live()); err == nil {
				c.prev = c.dist.Result().Clone()
			}
		default:
			if c.prep, err = r.eng.Prepare(c.plan, dra.StrategyAuto); err == nil {
				c.prev, err = dra.InitialResult(c.plan, r.store.Live())
			}
		}
		if err != nil {
			return fmt.Errorf("replay prepare %s: %w", def.name, err)
		}
		if c.into != "" {
			if err := r.store.CreateTable(c.into, c.prev.Schema()); err != nil {
				return err
			}
			tx := r.store.Begin()
			for _, tu := range c.prev.Tuples() {
				if err := tx.InsertWithTID(c.into, tu.TID, tu.Values); err != nil {
					tx.Abort()
					return err
				}
			}
			if _, err := tx.Commit(); err != nil {
				return err
			}
			producedAt[c.into] = c.stage + 1
		}
		if c.stage+1 > r.stages {
			r.stages = c.stage + 1
		}
		r.cqs = append(r.cqs, c)
		if !def.stale {
			sampled = append(sampled, c)
		}
	}
	r.last = make([]vclock.Timestamp, r.stages)
	now := r.store.Now()
	for i := range r.last {
		r.last[i] = now
	}
	// Complete re-evaluation is kept for four queries spread over the
	// list: it is the replay's running oracle and the paper's baseline.
	for i := 0; i < 4 && len(sampled) > 0; i++ {
		c := sampled[i*len(sampled)/4]
		if c.full != nil {
			continue
		}
		full, err := baseline.NewFull(c.plan, r.store.Live())
		if err != nil {
			return err
		}
		c.full = full
	}
	return nil
}

func (r *replay) commitOps(ops []op) (vclock.Timestamp, error) {
	tx := r.store.Begin()
	if err := r.stage(tx, ops); err != nil {
		return 0, err
	}
	if !r.timing {
		return tx.Commit()
	}
	// The hooks fire inside Commit; their spans hang under the commit's,
	// and the bare-store commit time is what is left after them.
	t0 := time.Now()
	wal0, pub0 := r.walAppend.ns, r.publish.ns
	var self int32 = -1
	if r.spans != nil {
		self = r.spans.add("storage.Tx.Commit", t0, t0, -1, 0)
		r.parent = self
	}
	ts, err := tx.Commit()
	t1 := time.Now()
	r.parent = -1
	r.commit.ns += t1.Sub(t0) - (r.walAppend.ns - wal0) - (r.publish.ns - pub0)
	r.commit.calls++
	if self >= 0 {
		r.spans.finish(self, t1, int64(ts))
	}
	return ts, err
}

// round commits the next pollEvery transactions and refreshes every
// query, stage by stage.
func (r *replay) round() error {
	for i := 0; i < r.w.pollEvery; i++ {
		_, ops := r.next()
		if _, err := r.commitOps(ops); err != nil {
			return err
		}
	}
	r.rounds++
	for stage := 0; stage < r.stages; stage++ {
		if err := r.refreshStage(stage); err != nil {
			return err
		}
	}
	if r.mirror != nil && r.rounds%mirrorEvery == 0 {
		before := r.client.BytesRead()
		err := r.timed(&r.mirrorLap, "remote.MirrorCQ.Refresh", r.store.Now(), func() error {
			_, err := r.mirror.Refresh()
			return err
		})
		if err != nil {
			return fmt.Errorf("mirror refresh: %w", err)
		}
		if r.timing {
			r.mirrorBytes += r.client.BytesRead() - before
		}
	}
	// The active delta zone ends at the slowest reader, as in gcLocked.
	horizon := r.last[0]
	for _, ts := range r.last {
		if ts < horizon {
			horizon = ts
		}
	}
	if r.mirror != nil && r.mirror.LastTS() < horizon {
		horizon = r.mirror.LastTS()
	}
	r.store.CollectGarbage(horizon)
	return nil
}

func (r *replay) refreshStage(stage int) error {
	from := r.last[stage]
	versions := r.store.ChangeCounts() // before the timestamp, as in pollStage
	ts := r.store.Now()
	if ts == from {
		return nil
	}
	cache := r.store.NewWindowCache()
	compact := r.eng.CompactDeltas
	deltas := map[string]*delta.Delta{}
	batches := map[string]*batch.Batch{}
	for _, c := range r.cqs {
		if c.stage != stage {
			continue
		}
		for _, table := range c.tables {
			if _, ok := deltas[table]; ok {
				continue
			}
			var w *delta.Delta
			err := r.timed(&r.window, "storage.WindowCache.Window", ts, func() (err error) {
				w, err = cache.Window(table, from, ts, compact)
				return err
			})
			if err != nil {
				return err
			}
			deltas[table] = w
			if w.Len() == 0 {
				continue
			}
			_ = r.timed(&r.build, "batch.FromDelta", ts, func() error {
				if b, ok := batch.FromDelta(nil, w); ok {
					batches[table] = b
				}
				return nil
			})
			if r.timing {
				r.buildRows += int64(w.Len())
			}
			if ix := r.index[table]; ix != nil {
				_ = r.timed(&r.maint, "relation.MutableIndex", ts, func() error {
					for _, row := range w.Rows() {
						if row.Old != nil {
							ix.Remove(relation.Tuple{TID: row.TID, Values: row.Old})
						}
						if row.New != nil {
							ix.Add(relation.Tuple{TID: row.TID, Values: row.New})
						}
					}
					return nil
				})
			}
		}
	}
	checkFull := r.timing && r.rounds%fullEvery == 0
	for _, c := range r.cqs {
		if c.stage != stage {
			continue
		}
		ctx := &dra.Context{
			Pre: r.store.At(from), Post: r.store.Live(),
			Deltas: map[string]*delta.Delta{}, Batches: map[string]*batch.Batch{},
			LastTS: from, Prev: c.prev, Compacted: compact, Versions: versions,
		}
		for _, table := range c.tables {
			ctx.Deltas[table] = deltas[table]
			if b := batches[table]; b != nil {
				ctx.Batches[table] = b
			}
		}
		var res *dra.Result
		l := r.step[c.def.kind]
		var m0 runtime.MemStats
		countAllocs := r.timing && r.rounds%16 == 0 // ReadMemStats stops the world
		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		before := l.ns
		err := r.timed(l, "dra.Step:"+c.def.kind, ts, func() (err error) {
			res, err = c.step(ctx, ts)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay step %s: %w", c.def.name, err)
		}
		if countAllocs {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			l.allocs += (m1.Mallocs - m0.Mallocs) * 16
		}
		if c.full != nil && r.timing {
			r.sampledStep.ns += l.ns - before
			r.sampledStep.calls++
		}
		_ = r.timed(&r.net, "delta.ToDeltaNetted+ApplyTo", ts, func() error {
			if res.Signed != nil {
				_ = res.Signed.ToDeltaNetted(ts)
			}
			c.prev = res.ApplyTo(c.prev)
			return nil
		})
		if c.into != "" && res.Delta != nil && res.Delta.Len() > 0 {
			err := r.timed(&r.mater, "materialize", ts, func() error { return r.materialize(c.into, res.Delta) })
			if err != nil {
				return fmt.Errorf("replay materialize %s: %w", c.def.name, err)
			}
		}
	}
	if checkFull {
		if err := r.checkFull(); err != nil {
			return err
		}
	}
	r.last[stage] = ts
	return nil
}

// materialize commits a producer's result delta into its derived table,
// TIDs carried through, as cq/materialize.go does (without the crash
// reconciliation a replay never needs).
func (r *replay) materialize(target string, d *delta.Delta) error {
	tx := r.store.Begin()
	for _, row := range d.Rows() {
		var err error
		switch row.Kind() {
		case delta.Insert:
			err = tx.InsertWithTID(target, row.TID, row.New)
		case delta.Delete:
			err = tx.Delete(target, row.TID)
		case delta.Modify:
			err = tx.Update(target, row.TID, row.New)
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	_, err := tx.Commit()
	return err
}

// checkFull completely re-evaluates the next sampled query that reads
// only base tables of stage 0 and compares it with the differential
// result: the paper's baseline and the replay's running oracle at once.
func (r *replay) checkFull() error {
	var sampled []*replayCQ
	for _, c := range r.cqs {
		if c.full != nil && c.stage == 0 {
			sampled = append(sampled, c)
		}
	}
	if len(sampled) == 0 {
		return nil
	}
	c := sampled[r.sampledNext%len(sampled)]
	r.sampledNext++
	err := r.timed(&r.fullLap, "baseline.Full.Step", r.store.Now(), func() error {
		_, err := c.full.Step(r.store.Live(), r.store.Now())
		return err
	})
	if err != nil {
		return err
	}
	r.fullChecks++
	if !c.full.Result().EqualByTID(c.prev) {
		r.mismatches++
	}
	return nil
}

// finalCheck compares every replayed result with complete re-evaluation.
func (r *replay) finalCheck() (checked int, err error) {
	for _, c := range r.cqs {
		want, ierr := dra.InitialResult(c.plan, r.store.Live())
		if ierr != nil {
			return checked, ierr
		}
		checked++
		if !want.EqualByTID(c.prev) {
			r.mismatches++
			if err == nil {
				err = fmt.Errorf("replay oracle %s: differential result has %d rows, complete re-evaluation %d, or rows differ", c.def.name, c.prev.Len(), want.Len())
			}
		}
	}
	return checked, err
}

func (r *replay) close(walDir string) {
	if r.client != nil {
		_ = r.client.Close() // read-only connection
	}
	if r.server != nil {
		_ = r.server.Close()
	}
	if r.router != nil {
		r.store.SetCommitHook(nil)
		r.router.Close()
	}
	for _, c := range r.cqs {
		if c.prep != nil {
			c.prep.Close()
		}
	}
	if r.log != nil {
		_ = r.log.Close() // throw-away log, removed below
		_ = os.RemoveAll(walDir)
	}
}

// runReplay builds the pipeline, warms it up, and replays rounds for the
// given time.
func runReplay(w *workload, seed int64, scale float64, seconds float64, walDir string, spans *spanLog) (*replay, int, error) {
	r, err := newReplay(w, seed, scale, walDir, spans)
	defer r.close(walDir)
	if err != nil {
		return r, 0, err
	}
	for r.txn < r.w.warmup {
		if err := r.round(); err != nil {
			return r, 0, err
		}
	}
	r.timing = true
	r.rounds = 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if err := r.round(); err != nil {
			return r, 0, err
		}
	}
	r.timing = false
	checked, err := r.finalCheck()
	return r, checked, err
}
