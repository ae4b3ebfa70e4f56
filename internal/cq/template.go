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
	"github.com/diorama/continual/internal/batch"
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
	in       stepInput    // prepared's step context (stepContext)
	res      dra.Result   // prepared's change, stepped into by every step
	prev     *batch.Table // template result at lastExec
	lastExec vclock.Timestamp
	members  map[string]*tmplMember
	index    *paramIndex

	// Scratch reused under mu: dispatchLocked's rows per matched member,
	// and foldBatches' per-tid state.
	matched map[*tmplMember][]delta.Row
	fold    foldScratch
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
	rows []delta.Row
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
	// σ_params of the template result, selected column at a time and
	// copied typed slot by slot (a hole's zero payload may match too, so
	// holes are skipped).
	rows := seed.Rows()
	inst.prev = batch.NewTable(seed.Schema(), 0)
	for _, s := range g.tpl.MatchBatch(params, rows, nil) {
		if rows.Signs[s] != 0 {
			inst.prev.PutFrom(rows, int(s))
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
	ctx, err := m.stepContext(&g.in, g.tables, g.lastExec, g.prepared, g.prev, rd)
	defer g.in.release()
	if err != nil {
		return err
	}
	res := &g.res
	defer res.Clear() // the members' pending batches hold what they need
	if err := g.prepared.StepInto(ctx, rd.ts, res); err != nil {
		return err
	}
	if err := res.Fits(g.prev); err != nil {
		return err
	}
	g.prev = res.Maintain(g.prev)
	if res.Delta.Len() > 0 {
		m.dispatchLocked(g, res.Delta.Rows(), rd.ts)
	}
	g.lastExec = rd.ts
	if mm := m.met; mm != nil {
		mm.templateSteps.Inc()
		mm.templateStepNS.Observe(time.Since(start))
	}
	return nil
}

// dispatchLocked routes each half of each template delta row to the
// members whose parameters select it. The index narrows each half to its
// candidate set (hash lookup on an equality slot, binary search on a
// range slot); candidates are then verified against every slot, so the
// work per row is O(lookup + matches), independent of the member count.
// A member gets the halves it matches: both (the row as it is), the old
// half alone (the row left its selection: a deletion), or the new half
// alone (the row entered it: an insertion). Caller holds g.mu.
func (m *Manager) dispatchLocked(g *templateGroup, rows []delta.Row, ts vclock.Timestamp) {
	if g.matched == nil {
		g.matched = make(map[*tmplMember][]delta.Row)
	}
	halves, candidates, matches := 0, 0, 0
	for _, row := range rows {
		for h, vals := range [2][]relation.Value{row.Old, row.New} {
			if vals == nil {
				continue
			}
			halves++
			for _, mem := range g.index.candidates(vals) {
				if mem.removed {
					continue
				}
				candidates++
				if !g.tpl.MatchRow(mem.params, vals) {
					continue
				}
				matches++
				rs := g.matched[mem]
				if n := len(rs); h == 1 && n > 0 && rs[n-1].TID == row.TID {
					rs[n-1].New = vals // the old half went to this member too
					continue
				}
				r := delta.Row{TID: row.TID, TS: ts}
				if h == 0 {
					r.Old = vals
				} else {
					r.New = vals
				}
				g.matched[mem] = append(rs, r)
			}
		}
	}
	for mem, rs := range g.matched {
		mem.pending = append(mem.pending, tmplBatch{ts: ts, rows: rs})
	}
	clear(g.matched)
	if mm := m.met; mm != nil {
		mm.templateDispatchRows.Add(int64(halves))
		mm.templateCandidates.Add(int64(candidates))
		mm.templateMatches.Add(int64(matches))
	}
}

// refreshShared is the streaming member's replacement for a private
// plan evaluation: step the group to the round timestamp (first fired
// member of the round pays; the rest find lastExec already there), then
// fold the member's pending batches into one net change against its
// previous result, into the member's own Result. A member with nothing
// pending reports its empty change at once. Caller holds inst.mu. The
// fold is pure — batches are only discarded by afterRefreshLocked once
// the refresh has journaled and committed, so a journal failure retries
// against intact buffers.
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
	inst.res.Set(rd.ts, inst.prev.Schema(), foldBatches(inst.prev, mem.pending, rd.ts, &g.fold))
	return &inst.res, nil
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
	// The discarded batches must not stay reachable past the slice's
	// length: their rows pin the group step output they came from.
	clear(mem.pending[len(keep):])
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

// foldScratch is foldBatches' per-tid state, kept by the group and reused
// under its lock: at indexes states by tid.
type foldScratch struct {
	at     map[relation.TID]int32
	states []presence
}

// presence is one tid's state in a fold: whether the member held it
// before the fold (orig, at slot of its result table) and holds it after
// (cur).
type presence struct {
	tid         relation.TID
	orig, cur   []relation.Value
	slot        int32
	origPresent bool
	curPresent  bool
}

// foldBatches collapses a member's pending batches (those covered by execTS)
// into one net change relative to prev, the member's result table, and
// returns its rows, stamped execTS — nil when the batches change
// nothing. Batches cannot simply be concatenated: a Result carries the
// net change — each tid at most once — and two batches may both touch a
// tid. Instead each tid runs a tiny presence state machine seeded from
// prev: the -old of its net is the Old of the tid's first dispatched
// row, its final value the New of its last one (absent when that row
// has none) — exactly what a private differential evaluation over the
// whole window would net to.
//
// Nothing is allocated per row beyond the change itself. Presence comes
// from the table's tid index. The final value is compared with the
// table's slot in place. The original value of a tid the member holds is
// the first dispatched row's Old, by this invariant: the first
// dispatched row of a held tid carries its old half. The member's row
// equals the template row it was selected from (seeded typed from the
// group's table, or folded from the same dispatched rows since), so the
// first group step that changed the row — a deletion or a modification
// of a present tid — had it as its Old, which matched and was routed
// here. TestTemplateSharingEquivalence holds every member's
// notifications, old values included, to its private plan's.
func foldBatches(prev *batch.Table, batches []tmplBatch, execTS vclock.Timestamp, f *foldScratch) []delta.Row {
	n := 0
	for _, b := range batches {
		if b.ts <= execTS {
			n += len(b.rows)
		}
	}
	if n == 0 {
		return nil
	}
	if f.at == nil {
		f.at = make(map[relation.TID]int32, n)
	}
	for _, b := range batches {
		if b.ts > execTS {
			continue
		}
		for _, r := range b.rows {
			i, seen := f.at[r.TID]
			if !seen {
				i = int32(len(f.states))
				f.at[r.TID] = i
				slot := prev.Slot(r.TID)
				st := presence{tid: r.TID, slot: slot, origPresent: slot >= 0}
				if slot >= 0 {
					st.orig = r.Old
				}
				f.states = append(f.states, st)
			}
			st := &f.states[i]
			st.cur, st.curPresent = r.New, r.New != nil
		}
	}
	var rows []delta.Row
	for i := range f.states {
		st := &f.states[i]
		row := delta.Row{TID: st.tid, TS: execTS}
		switch {
		case st.origPresent && st.curPresent:
			if prev.RowEqual(st.slot, st.cur) {
				continue
			}
			row.Old, row.New = st.orig, st.cur
		case st.origPresent:
			row.Old = st.orig
		case st.curPresent:
			row.New = st.cur
		default:
			continue
		}
		if rows == nil {
			rows = make([]delta.Row, 0, len(f.states)-i)
		}
		rows = append(rows, row)
	}
	clear(f.at)
	clear(f.states) // drop the value references
	f.states = f.states[:0]
	return rows
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
	// range: the members and their constants, sorted together by
	// constant, so a lookup's candidates are a subslice of rngMem.
	rngC    []relation.Value
	rngMem  []*tmplMember
	dirty   bool // the range entries have unsorted appends
	removed int  // tombstoned range entries
}

// byConst sorts a range index's two parallel slices by constant.
type byConst paramIndex

func (b *byConst) Len() int           { return len(b.rngC) }
func (b *byConst) Less(i, j int) bool { return b.rngC[i].Compare(b.rngC[j]) < 0 }
func (b *byConst) Swap(i, j int) {
	b.rngC[i], b.rngC[j] = b.rngC[j], b.rngC[i]
	b.rngMem[i], b.rngMem[j] = b.rngMem[j], b.rngMem[i]
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
	idx.rngC = append(idx.rngC, c)
	idx.rngMem = append(idx.rngMem, mem)
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
	if idx.removed*2 > len(idx.rngMem) {
		n := 0
		for i, m2 := range idx.rngMem {
			if !m2.removed {
				idx.rngC[n], idx.rngMem[n] = idx.rngC[i], m2
				n++
			}
		}
		clear(idx.rngMem[n:]) // a removed member must not stay reachable
		idx.rngC, idx.rngMem = idx.rngC[:n], idx.rngMem[:n]
		idx.removed = 0
	}
}

// candidates returns the members whose primary-slot constant can match
// the row: a bucket of the hash index, or a range of the sorted array,
// in place — the caller must not keep or write the slice. Callers must
// still skip removed members and verify every slot (MatchRow):
// candidates over-approximates on the non-primary slots and keeps
// tombstones until the array compacts.
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
		sort.Stable((*byConst)(idx))
		idx.dirty = false
	}
	n := len(idx.rngC)
	var lo, hi int
	switch idx.slots[idx.primary].Op {
	case ">": // member matches iff rowVal > c ⇔ c < rowVal
		lo, hi = 0, sort.Search(n, func(i int) bool { return idx.rngC[i].Compare(v) >= 0 })
	case ">=": // c <= rowVal
		lo, hi = 0, sort.Search(n, func(i int) bool { return idx.rngC[i].Compare(v) > 0 })
	case "<": // rowVal < c ⇔ c > rowVal
		lo, hi = sort.Search(n, func(i int) bool { return idx.rngC[i].Compare(v) > 0 }), n
	case "<=": // c >= rowVal
		lo, hi = sort.Search(n, func(i int) bool { return idx.rngC[i].Compare(v) >= 0 }), n
	default:
		lo, hi = 0, n
	}
	return idx.rngMem[lo:hi]
}
