package cq

import (
	"fmt"
	"sort"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/sql"
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
type Journal interface {
	// CQRegistered records a new CQ (entry carries the initial result).
	CQRegistered(e wal.CQEntry) error
	// CQExecuted records one delivered refresh; change is the result
	// delta of the execution (may be nil or empty).
	CQExecuted(name string, seq int, ts vclock.Timestamp, change *delta.Delta, terminated bool) error
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
	if prep, ok := inst.eval.(*dra.Prepared); ok {
		e.Strategy = prep.Strategy().String()
	}
	if g := inst.group; g != nil {
		g.mu.Lock()
		e.Strategy = g.prepared.Strategy().String()
		g.mu.Unlock()
	}
	if inst.prev != nil {
		e.Result = inst.prev.Clone()
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

// Resume reinstalls a recovered CQ without journaling and without a
// fresh initial execution: the entry's Seq/LastExec/Result carry on the
// result sequence exactly where the previous incarnation stopped, and
// the trigger starts observing at LastExec (installLocked's recovered
// seed).
func (m *Manager) Resume(e wal.CQEntry) error {
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
			return fmt.Errorf("cq %q: recovered trigger expression: %w", e.Name, err)
		}
		def.Trigger.On = on
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.installLocked(def, &e); err != nil {
		return fmt.Errorf("cq %q: resume: %w", e.Name, err)
	}
	return nil
}
