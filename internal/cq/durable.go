package cq

import (
	"fmt"
	"sort"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// Journal receives registry mutations and delivered executions in
// write-ahead order: the manager calls each hook BEFORE the matching
// in-memory change or notification, and a hook error aborts the
// operation with the manager unchanged. This is what makes delivered
// notifications at-most-once across crashes — an execution the journal
// never saw was also never delivered, so after recovery its trigger
// simply re-fires and the refresh re-runs differentially.
//
// The journal sees a CQ's bookkeeping, never its result: a resumed CQ
// re-derives its result by one initial execution at LastExec.
type Journal interface {
	// CQRegistered records a new CQ's definition and bookkeeping.
	CQRegistered(e wal.CQEntry) error
	// CQExecuted records one delivered refresh: its sequence number,
	// execution timestamp and whether it ended the sequence.
	CQExecuted(name string, seq int, ts vclock.Timestamp, terminated bool) error
	// CQDropped records removal.
	CQDropped(name string) error
}

// entryLocked renders one instance to its durable form. Caller holds
// inst.mu.
func (m *Manager) entryLocked(inst *instance) wal.CQEntry {
	e := wal.CQEntry{
		Name:           inst.def.Name,
		Query:          inst.queryText,
		TriggerKind:    int(inst.trigger.Kind),
		TriggerEvery:   inst.trigger.Every,
		TriggerBound:   inst.trigger.Bound,
		TriggerUpdates: inst.trigger.Updates,
		Mode:           int(inst.mode),
		StopAfterN:     inst.stop.AfterN,
		EpsilonMeasure: int(inst.def.EpsilonMeasure),
		NotifyEmpty:    inst.def.NotifyEmpty,
		Seq:            inst.seq,
		LastExec:       inst.lastExec,
		Terminated:     inst.terminated.Load(),
		Health:         inst.breaker.State().String(),
	}
	if inst.trigger.On != nil {
		e.TriggerOn = inst.trigger.On.String()
	}
	return e
}

// SnapshotRegistry captures every registered CQ's durable entry at one
// consistent point: it locks the manager and every instance (in sorted
// name order, so concurrent snapshots cannot deadlock), runs cut while
// everything is pinned — the caller snapshots the store and rotates the
// WAL there — and renders the entries. The combination gives the
// checkpoint a cut where store state, CQ bookkeeping and log position
// all agree.
func (m *Manager) SnapshotRegistry(cut func() error) ([]wal.CQEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	names := make([]string, 0, len(m.cqs))
	for n := range m.cqs {
		names = append(names, n)
	}
	sort.Strings(names)
	locked := make([]*instance, 0, len(names))
	defer func() {
		for _, inst := range locked {
			inst.mu.Unlock()
		}
	}()
	for _, n := range names {
		inst := m.cqs[n]
		inst.mu.Lock()
		locked = append(locked, inst)
	}
	if cut != nil {
		if err := cut(); err != nil {
			return nil, err
		}
	}
	entries := make([]wal.CQEntry, 0, len(locked))
	for _, inst := range locked {
		entries = append(entries, m.entryLocked(inst))
	}
	return entries, nil
}

// Resume reinstalls recovered CQs without journaling: each entry's
// Seq/LastExec carry on the result sequence exactly where the previous
// incarnation stopped, the result is re-derived by one initial
// execution over the store at LastExec, and the trigger starts
// observing there (installLocked's recovered seed).
//
// A reseed reads whole tables as of LastExec, and recovered CQs share
// few LastExec values (one or two after a clean close), so the entries
// are resumed in LastExec order, each run of one LastExec over one
// table image (and, for complete re-evaluation, one snapshot) per table,
// released when the run ends.
func (m *Manager) Resume(entries ...wal.CQEntry) error {
	entries = append([]wal.CQEntry(nil), entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].LastExec < entries[j].LastExec })
	m.mu.Lock()
	defer m.mu.Unlock()
	var at *snapshotsAt
	for i := range entries {
		e := &entries[i]
		def, err := resumedDef(e)
		if err != nil {
			return err
		}
		if at == nil || at.ts != e.LastExec {
			at = &snapshotsAt{HistoricView: m.store.NewWindowCache().At(e.LastExec), ts: e.LastExec,
				tmpls: make(map[uint64]*batch.Table)}
		}
		if _, err := m.installLocked(def, e, at); err != nil {
			return fmt.Errorf("cq %q: resume: %w", e.Name, err)
		}
	}
	return nil
}

// resumedDef renders a durable entry back to its definition.
func resumedDef(e *wal.CQEntry) (Def, error) {
	def := Def{
		Name:  e.Name,
		Query: e.Query,
		Trigger: sql.TriggerSpec{
			Kind:    sql.TriggerKind(e.TriggerKind),
			Every:   e.TriggerEvery,
			Bound:   e.TriggerBound,
			Updates: e.TriggerUpdates,
		},
		Mode:           sql.ResultMode(e.Mode),
		Stop:           sql.StopSpec{AfterN: e.StopAfterN},
		EpsilonMeasure: epsilon.Measure(e.EpsilonMeasure),
		NotifyEmpty:    e.NotifyEmpty,
	}
	if e.TriggerOn != "" {
		on, err := sql.ParseExpr(e.TriggerOn)
		if err != nil {
			return Def{}, fmt.Errorf("cq %q: recovered trigger expression: %w", e.Name, err)
		}
		def.Trigger.On = on
	}
	return def, nil
}

// snapshotsAt is the store as of one timestamp, shared by every seed
// that reads it: a window cache's view, which builds each table's image
// (and snapshot) at most once, plus each template's result, evaluated at
// most once. Seeds only read what a source hands them.
type snapshotsAt struct {
	storage.HistoricView
	ts    vclock.Timestamp
	tmpls map[uint64]*batch.Table // template fingerprint → result
}

// templateResult is the template's result at ts: the initial execution
// of a transient prepared template plan.
func (s *snapshotsAt) templateResult(e *dra.Engine, strategy dra.Strategy, tpl *algebra.Template) (*batch.Table, error) {
	if r, ok := s.tmpls[tpl.Fingerprint]; ok {
		return r, nil
	}
	prep, err := e.Prepare(tpl.Plan, strategy)
	if err != nil {
		return nil, err
	}
	defer prep.Close()
	r, err := prep.Seed(s, s.ts)
	if err != nil {
		return nil, err
	}
	s.tmpls[tpl.Fingerprint] = r
	return r, nil
}
