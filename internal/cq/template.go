package cq

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/vclock"
)

// Multi-tenant template sharing.
//
// A million users registering `price > X` for a million different X is
// one query template, not a million queries. When Config.ShareTemplates
// is on, registration extracts the constant-stripped template
// (algebra.ExtractTemplate) and attaches the CQ to a templateGroup: one
// dra.Prepared (with its operand index cache) evaluates the TEMPLATE
// delta once per refresh round, and a parameter-dispatch index routes
// each delta row to the members whose constants select it — O(log n +
// matches) per row, not O(members). Everything member-visible stays
// per-member: trigger accounting, Seq, journal write-ahead ordering,
// quarantine breakers and subscriber delivery all run exactly as in the
// unshared path, so a member's transcript is indistinguishable from the
// one it would have produced with a private plan.
//
// The group lock is the leaf of the lock order (refresh.go) — nothing
// acquires a manager or instance lock while holding it — which is what
// lets a member's refresh (holding its own instance lock) step the group
// while Drop of a DIFFERENT member (holding the manager lock plus that
// member's instance lock) waits its turn on the same group without
// deadlock.

// templateGroup is one shared template: the prepared stripped plan, the
// shared previous result, the subscriber table, and the dispatch index.
type templateGroup struct {
	fp  uint64
	tpl *algebra.Template
	// tables is the operand routing set of the prepared template plan.
	tables []string

	// active counts non-terminated, non-dropped members. Atomic so the
	// push router's gate can read it under the store's commit hook
	// without touching mu (mu is held across plan evaluation).
	active atomic.Int64

	mu       sync.Mutex
	prepared *dra.Prepared
	in       stepInput          // prepared's step context (stepContext)
	prev     *relation.Relation // template result at lastExec
	lastExec vclock.Timestamp
	members  map[string]*tmplMember
	index    *paramIndex
}

// tmplMember is one subscriber of a template.
type tmplMember struct {
	inst   *instance
	params []relation.Value
	// pending buffers the member's share of each group step since its
	// own last refresh, tagged with the step timestamp so a refresh at
	// execTS folds exactly the steps it covers.
	pending []tmplBatch
	// removed marks a member dropped/terminated; dispatch skips it
	// until the index compacts it away. Guarded by group.mu.
	removed bool
}

type tmplBatch struct {
	ts   vclock.Timestamp
	rows []delta.SignedRow
}

// joinTemplateLocked attaches a CQ to its template group when
// Config.ShareTemplates is on and the plan can be templated, creating the
// group on first use; otherwise it leaves inst.group nil and the caller
// installs a private plan. Caller (installLocked) holds m.mu and still
// owns the instance.
//
// A fresh registration (at nil) steps the group to the current timestamp
// and takes σ_params of the shared template result as its initial
// result, with inst.lastExec pinned to the group's; the member then
// consumes the template stream forever. A recovered member keeps its
// recovered lastExec and takes σ_params of the template result as of it,
// evaluated once over at for every member recovered there; the caller
// gives it a private plan for one differential catch-up, after which
// template batches at or before the catch-up point are discarded and the
// member joins the stream (afterRefreshLocked).
func (m *Manager) joinTemplateLocked(inst *instance, at *snapshotsAt) error {
	if !m.cfg.ShareTemplates {
		return nil
	}
	tpl, params, ok := algebra.ExtractTemplate(inst.plan)
	if !ok {
		return nil
	}
	g := m.templates[tpl.Fingerprint]
	if g == nil {
		prep, err := m.cfg.Engine.Prepare(tpl.Plan, m.cfg.Strategy)
		if err != nil {
			// The template plan does not compile: fall back to an unshared
			// registration.
			m.logf("cq %q: template not preparable (%v); registering unshared", inst.def.Name, err)
			return nil
		}
		g = &templateGroup{
			fp:       tpl.Fingerprint,
			tpl:      tpl,
			tables:   prep.Tables(),
			prepared: prep,
			members:  make(map[string]*tmplMember),
			index:    newParamIndex(tpl.Slots),
		}
		// Seeded like a private plan, from the round's table images.
		rd := m.newRound()
		g.lastExec = rd.ts
		if g.prev, err = prep.Seed(rd.cache.At(rd.ts), rd.ts); err != nil {
			prep.Close()
			return err
		}
		m.templates[g.fp] = g
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	seed := g.prev
	if at == nil {
		// Bring the group to the registration point so the member's
		// initial result is exact at the timestamp it starts streaming
		// from.
		if err := m.stepGroupLocked(g, m.newRound()); err != nil {
			m.reapDue.Store(true) // a group created for this member is empty
			return fmt.Errorf("cq %q: template catch-up: %w", inst.def.Name, err)
		}
		seed, inst.lastExec = g.prev, g.lastExec
	} else if at.ts != g.lastExec {
		var err error
		if seed, err = at.templateResult(m.cfg.Engine, m.cfg.Strategy, tpl); err != nil {
			m.reapDue.Store(true)
			return fmt.Errorf("cq %q: template result at %d: %w", inst.def.Name, at.ts, err)
		}
	}
	inst.prev = relation.New(seed.Schema())
	for _, tu := range seed.Tuples() {
		if g.tpl.MatchRow(params, tu.Values) {
			_ = inst.prev.Insert(tu)
		}
	}
	mem := &tmplMember{inst: inst, params: params}
	g.members[inst.def.Name] = mem
	g.index.add(mem)
	if g.active.Add(1) == 1 {
		// First active member of a group just created — or revived, its
		// last member having terminated with the reap still pending: the
		// group gets its push route. Routes are added here and removed by
		// reapGroupLocked, both under m.mu, so a dispatch for a reaped
		// group can never unregister its successor's route.
		m.routeTemplateLocked(g)
	}
	inst.group = g
	if mm := m.met; mm != nil {
		mm.sharedRegs.Inc()
		mm.templates.Set(int64(len(m.templates)))
		mm.templateMembers.Add(1)
	}
	return nil
}

// leaveTemplateLocked detaches an instance from its group (Drop, or a
// registration whose journal write failed), reaping the group when its
// last member leaves. Caller holds m.mu.
func (m *Manager) leaveTemplateLocked(inst *instance) {
	g := inst.group
	if g == nil {
		return
	}
	g.mu.Lock()
	if mem := g.members[inst.def.Name]; mem != nil && mem.inst == inst {
		delete(g.members, inst.def.Name)
		mem.removed = true
		mem.pending = nil
		g.index.remove(mem)
		g.active.Add(-1)
		if mm := m.met; mm != nil {
			mm.templateMembers.Add(-1)
		}
	}
	empty := len(g.members) == 0
	g.mu.Unlock()
	inst.group = nil
	if empty {
		m.reapGroupLocked(g)
	}
}

// reapGroupLocked retires an empty group: the prepared plan (and its
// operand cache) closes and the push route retires. Caller holds m.mu;
// no member can be mid-refresh (refreshing members are still in
// g.members) and no new member can join (joins hold m.mu).
func (m *Manager) reapGroupLocked(g *templateGroup) {
	if m.templates[g.fp] != g {
		return
	}
	delete(m.templates, g.fp)
	g.mu.Lock()
	g.prepared.Close()
	g.mu.Unlock()
	if m.router != nil {
		m.router.Unregister(tmplRouteName(g.fp))
	}
	if mm := m.met; mm != nil {
		mm.templates.Set(int64(len(m.templates)))
	}
}

// reapTemplatesLocked reaps the groups whose members have all
// terminated. Drop reaps eagerly; a termination by StopAfterN happens
// under the member's instance lock, where it can only raise
// Manager.reapDue for the round's housekeeping to finish the job here.
// Caller holds m.mu.
func (m *Manager) reapTemplatesLocked() {
	if len(m.templates) == 0 {
		return
	}
	var dead []*templateGroup
	for _, g := range m.templates {
		if g.active.Load() == 0 {
			dead = append(dead, g)
		}
	}
	for _, g := range dead {
		m.reapGroupLocked(g)
	}
}

// stepGroupLocked advances the shared template evaluation to the round
// timestamp: one prepared differential Step over the template plan, then
// the parameter-dispatch stage fans the template delta out to member
// pending buffers. Caller holds g.mu. Monotonic: a round whose timestamp
// the group has already covered is a no-op (the fired members just drain
// their buffers), which is what makes one Step per template per round
// out of N concurrent member refreshes.
func (m *Manager) stepGroupLocked(g *templateGroup, rd round) error {
	if rd.ts <= g.lastExec {
		return nil
	}
	var start time.Time
	if m.met != nil {
		start = time.Now()
	}
	ctx, err := m.stepContext(&g.in, g.tables, g.lastExec, g.prev, rd)
	defer g.in.release()
	if err != nil {
		return err
	}
	res, err := g.prepared.Step(ctx, rd.ts)
	if err != nil {
		return err
	}
	if res.Signed != nil && len(res.Signed.Rows) > 0 {
		m.dispatchLocked(g, res.Signed.Rows, rd.ts)
	}
	g.prev = res.ApplyTo(g.prev)
	g.lastExec = rd.ts
	if mm := m.met; mm != nil {
		mm.templateSteps.Inc()
		mm.templateStepNS.Observe(time.Since(start))
	}
	return nil
}

// dispatchLocked routes each template delta row to the members whose
// parameters select it. The index narrows each row to its candidate
// set (hash lookup on an equality slot, binary search on a range slot);
// candidates are then verified against every slot, so the work per row
// is O(lookup + matches), independent of the member count. Caller holds
// g.mu.
func (m *Manager) dispatchLocked(g *templateGroup, rows []delta.SignedRow, ts vclock.Timestamp) {
	matched := make(map[*tmplMember][]delta.SignedRow)
	candidates, matches := 0, 0
	for _, row := range rows {
		cands := g.index.candidates(row.Values)
		candidates += len(cands)
		for _, mem := range cands {
			if mem.removed || !g.tpl.MatchRow(mem.params, row.Values) {
				continue
			}
			matches++
			matched[mem] = append(matched[mem], row)
		}
	}
	for mem, rs := range matched {
		mem.pending = append(mem.pending, tmplBatch{ts: ts, rows: rs})
	}
	if mm := m.met; mm != nil {
		mm.templateDispatchRows.Add(int64(len(rows)))
		mm.templateCandidates.Add(int64(candidates))
		mm.templateMatches.Add(int64(matches))
	}
}

// refreshShared is the streaming member's replacement for a private
// plan evaluation: step the group to the round timestamp (first fired
// member of the round pays; the rest find lastExec already there), then
// fold the member's pending batches into one net signed delta against
// its previous result. Caller holds inst.mu. The fold is pure — batches
// are only discarded by afterRefreshLocked once the refresh has journaled
// and committed, so a journal failure retries against intact buffers.
func (m *Manager) refreshShared(inst *instance, rd round) (*dra.Result, error) {
	g := inst.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := m.stepGroupLocked(g, rd); err != nil {
		return nil, err
	}
	mem := g.members[inst.def.Name]
	if mem == nil || mem.inst != inst {
		return nil, errors.New("cq: instance detached from its template group")
	}
	net := foldBatches(inst.prev, mem.pending, rd.ts, g.prev.Schema())
	return &dra.Result{
		Signed: net,
		Delta:  net.ToDeltaNetted(rd.ts),
		ExecTS: rd.ts,
	}, nil
}

// afterRefreshLocked commits a grouped member's refresh at execTS:
// covered pending batches are discarded, a recovered member's catch-up
// plan has done its one step and closes (from here on the member streams
// from the group), and a member that just terminated (StopAfterN) leaves
// the dispatch index. Caller holds inst.mu; the refresh has already
// journaled and applied.
func (m *Manager) afterRefreshLocked(inst *instance, execTS vclock.Timestamp, terminated bool) {
	inst.closeEval()
	g := inst.group
	g.mu.Lock()
	defer g.mu.Unlock()
	mem := g.members[inst.def.Name]
	if mem == nil || mem.inst != inst {
		return
	}
	keep := mem.pending[:0]
	for _, b := range mem.pending {
		if b.ts > execTS {
			keep = append(keep, b)
		}
	}
	mem.pending = keep
	if terminated {
		delete(g.members, inst.def.Name)
		mem.removed = true
		mem.pending = nil
		g.index.remove(mem)
		if g.active.Add(-1) == 0 {
			m.reapDue.Store(true)
		}
		if mm := m.met; mm != nil {
			mm.templateMembers.Add(-1)
		}
	}
}

// foldBatches collapses a member's pending batches (those covered by
// execTS) into one net signed delta relative to prev. Batches cannot
// simply be concatenated: a Result carries the net change — each tid at
// most once, as one row or a -old/+new pair — and two batches may both
// touch a tid. Instead each tid runs a tiny presence state
// machine seeded from prev, and the net emits at most one -1 (the
// original value) and one +1 (the final value) per tid — exactly what a
// private differential evaluation over the whole window would net to.
func foldBatches(prev *relation.Relation, batches []tmplBatch, execTS vclock.Timestamp, schema relation.Schema) *delta.Signed {
	type presence struct {
		orig        []relation.Value
		cur         []relation.Value
		origPresent bool
		curPresent  bool
	}
	states := make(map[relation.TID]*presence)
	var order []relation.TID
	for _, b := range batches {
		if b.ts > execTS {
			continue
		}
		for _, r := range b.rows {
			st := states[r.TID]
			if st == nil {
				st = &presence{}
				if tu, ok := prev.Lookup(r.TID); ok {
					st.orig, st.origPresent = tu.Values, true
					st.cur, st.curPresent = tu.Values, true
				}
				states[r.TID] = st
				order = append(order, r.TID)
			}
			if r.Sign < 0 {
				st.curPresent = false
			} else {
				st.cur, st.curPresent = r.Values, true
			}
		}
	}
	out := &delta.Signed{Schema: schema}
	for _, tid := range order {
		st := states[tid]
		switch {
		case st.origPresent && st.curPresent:
			if !valuesEqual(st.orig, st.cur) {
				out.Rows = append(out.Rows,
					delta.SignedRow{TID: tid, Values: st.orig, Sign: -1},
					delta.SignedRow{TID: tid, Values: st.cur, Sign: +1})
			}
		case st.origPresent:
			out.Rows = append(out.Rows, delta.SignedRow{TID: tid, Values: st.orig, Sign: -1})
		case st.curPresent:
			out.Rows = append(out.Rows, delta.SignedRow{TID: tid, Values: st.cur, Sign: +1})
		}
	}
	return out
}

// --- push routing ------------------------------------------------------

// tmplRoutePrefix namespaces template routes in the push router. The
// NUL byte cannot appear in a registered CQ name that came through SQL,
// so template routes never collide with per-CQ routes.
const tmplRoutePrefix = "\x00tmpl:"

func tmplRouteName(fp uint64) string {
	return tmplRoutePrefix + strconv.FormatUint(fp, 16)
}

func parseTmplRoute(name string) (uint64, bool) {
	if !strings.HasPrefix(name, tmplRoutePrefix) {
		return 0, false
	}
	fp, err := strconv.ParseUint(name[len(tmplRoutePrefix):], 16, 64)
	if err != nil {
		return 0, false
	}
	return fp, true
}

// routeTemplateLocked registers ONE push route per template group, so
// the router's ready queue is O(touched templates) per commit instead
// of O(touched CQs). Caller holds m.mu.
func (m *Manager) routeTemplateLocked(g *templateGroup) {
	if m.router == nil {
		return
	}
	m.router.Register(tmplRouteName(g.fp), g.tables, func() bool {
		return g.active.Load() > 0
	})
}

// pushDispatchTemplate feeds one round with the members of the template
// a commit was routed to; the template itself is stepped once, by the
// first fired member's refresh. It never asks the router to retire the
// route: the route is removed with the group (reapGroupLocked).
func (m *Manager) pushDispatchTemplate(fp uint64) (refreshed, retire bool, err error) {
	m.mu.Lock()
	g := m.templates[fp]
	m.mu.Unlock()
	if g == nil {
		return false, false, nil
	}
	g.mu.Lock()
	cands := make([]*instance, 0, len(g.members))
	for _, mem := range g.members {
		// Time-based triggers stay on the poll loop, exactly as in
		// routePushLocked: a commit says nothing about the clock.
		if mem.inst.trigger.Kind != sql.TriggerEvery {
			cands = append(cands, mem.inst)
		}
	}
	g.mu.Unlock()
	n, err := m.runRound(cands, feed{})
	return n > 0, false, err
}

// --- parameter dispatch index ------------------------------------------

// paramIndex narrows a template delta row to the members that might
// match it. One slot is elected primary: an equality slot backs a hash
// index over member constants (O(1) to the candidate bucket); otherwise
// a range slot backs a constant-sorted array searched binarily — for
// `col > c`, the members whose c lies below the row's value form a
// prefix of the array (dually a suffix for `<`). Remaining slots are
// verified per candidate, so lookups cost O(1 + matches) or O(log n +
// matches). Insertions append (amortized O(1)); the range array re-sorts
// lazily on the next lookup, so registering a million members is not
// O(n²).
type paramIndex struct {
	slots []algebra.ParamSlot
	// primary is the elected slot index; eq says which flavor.
	primary int
	eq      bool

	buckets map[uint64][]*tmplMember // eq: coerced-constant hash → members
	rng     []rngEnt                 // range: sorted by constant
	dirty   bool                     // rng has unsorted appends
	removed int                      // tombstoned entries in rng
}

type rngEnt struct {
	c relation.Value
	m *tmplMember
}

func newParamIndex(slots []algebra.ParamSlot) *paramIndex {
	idx := &paramIndex{slots: slots, primary: 0}
	for i, s := range slots {
		if s.Op == "=" {
			idx.primary, idx.eq = i, true
			break
		}
	}
	if idx.eq {
		idx.buckets = make(map[uint64][]*tmplMember)
	}
	return idx
}

// keyFor hashes a value in the primary slot's column type, so an Int
// parameter over a Float column lands in the same bucket as the Float
// row values it must match. ok is false when the value cannot take the
// column's type (e.g. 2.5 against an INT column) — such a parameter
// matches nothing and such a row matches no parameter.
func (idx *paramIndex) keyFor(v relation.Value) (uint64, bool) {
	kind := idx.slots[idx.primary].Kind
	if v.IsNull() {
		return 0, false
	}
	if v.Kind != kind {
		switch {
		case kind == relation.TFloat && v.Kind == relation.TInt:
			v = relation.Float(v.AsFloat())
		case kind == relation.TInt && v.Kind == relation.TFloat:
			f := v.AsFloat()
			i := int64(f)
			if float64(i) != f {
				return 0, false
			}
			v = relation.Int(i)
		default:
			return 0, false
		}
	}
	return relation.HashValues([]relation.Value{v}), true
}

func (idx *paramIndex) add(mem *tmplMember) {
	c := mem.params[idx.primary]
	if idx.eq {
		if key, ok := idx.keyFor(c); ok {
			idx.buckets[key] = append(idx.buckets[key], mem)
		}
		// A parameter that cannot equal any value of the column's type
		// is indexed nowhere: its member legitimately never matches.
		return
	}
	idx.rng = append(idx.rng, rngEnt{c: c, m: mem})
	idx.dirty = true
}

func (idx *paramIndex) remove(mem *tmplMember) {
	c := mem.params[idx.primary]
	if idx.eq {
		key, ok := idx.keyFor(c)
		if !ok {
			return
		}
		b := idx.buckets[key]
		for i, m2 := range b {
			if m2 == mem {
				b[i] = b[len(b)-1]
				b = b[:len(b)-1]
				break
			}
		}
		if len(b) == 0 {
			delete(idx.buckets, key)
		} else {
			idx.buckets[key] = b
		}
		return
	}
	// Range entries tombstone (mem.removed is already set) and compact
	// once they dominate, keeping removal O(1) amortized.
	idx.removed++
	if idx.removed*2 > len(idx.rng) {
		keep := idx.rng[:0]
		for _, e := range idx.rng {
			if !e.m.removed {
				keep = append(keep, e)
			}
		}
		idx.rng = keep
		idx.removed = 0
	}
}

// candidates returns the members whose primary-slot constant can match
// the row. Callers must still verify every slot (MatchRow): candidates
// over-approximates on the non-primary slots only.
func (idx *paramIndex) candidates(row []relation.Value) []*tmplMember {
	v := row[idx.slots[idx.primary].Idx]
	if v.IsNull() {
		return nil // NULL satisfies no comparison
	}
	if idx.eq {
		key, ok := idx.keyFor(v)
		if !ok {
			return nil
		}
		return idx.buckets[key]
	}
	if idx.dirty {
		sort.SliceStable(idx.rng, func(i, j int) bool {
			return idx.rng[i].c.Compare(idx.rng[j].c) < 0
		})
		idx.dirty = false
	}
	n := len(idx.rng)
	var lo, hi int
	switch idx.slots[idx.primary].Op {
	case ">": // member matches iff rowVal > c ⇔ c < rowVal
		lo, hi = 0, sort.Search(n, func(i int) bool { return idx.rng[i].c.Compare(v) >= 0 })
	case ">=": // c <= rowVal
		lo, hi = 0, sort.Search(n, func(i int) bool { return idx.rng[i].c.Compare(v) > 0 })
	case "<": // rowVal < c ⇔ c > rowVal
		lo, hi = sort.Search(n, func(i int) bool { return idx.rng[i].c.Compare(v) > 0 }), n
	case "<=": // c >= rowVal
		lo, hi = sort.Search(n, func(i int) bool { return idx.rng[i].c.Compare(v) >= 0 }), n
	default:
		lo, hi = 0, n
	}
	if lo >= hi {
		return nil
	}
	out := make([]*tmplMember, 0, hi-lo)
	for _, e := range idx.rng[lo:hi] {
		if !e.m.removed {
			out = append(out, e.m)
		}
	}
	return out
}
