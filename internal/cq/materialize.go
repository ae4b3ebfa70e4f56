package cq

// Materializing continual queries (SELECT ... INTO target): each refresh
// commits the result delta into a derived base table through the
// ordinary storage commit path, so the commit hook, the push router and
// the window caches all see derived deltas as ordinary deltas —
// downstream CQs over the target need no new machinery. The log holds
// no derived row: the commit journals the record of the execution (or,
// for the seed, the registration) that derived it, and recovery
// re-derives the commit from that record (Manager.Replay).
//
// The apply is RECONCILING, not blind: every staged operation is checked
// against the target's current contents and rows the table already
// reflects stage as no-ops — clients may write the target too, and a
// registration may adopt a target left from before. A refresh whose
// reconciliation stages zero operations commits nothing at all (no
// clock tick, no hook, no downstream wake).

import (
	"fmt"
	"slices"

	"github.com/diorama/continual/internal/cascade"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// reconcileTarget commits whatever transforms the target's current
// contents into want — the seed at registration and the adoption of an
// orphaned target reduce to it. The difference is taken under the
// store's read lock: client writes to the target commit concurrently,
// and a commit mutates the relation Diff reads. rec is as for
// commitReconciled.
func (m *Manager) reconcileTarget(inst *instance, want *relation.Relation, rec *wal.Record) error {
	var d *delta.Delta
	err := m.store.View(func(v storage.LiveView) error {
		cur, err := v.Relation(inst.into)
		if err != nil {
			return err
		}
		d, err = delta.Diff(cur, want, 0)
		return err
	})
	if err != nil || d.Len() == 0 {
		return err
	}
	return m.commitReconciled(inst, d.Rows(), rec)
}

// commitReconciled stages the delta rows against the target in one
// transaction, skipping rows the table already reflects, and commits
// with the producer's provenance (CommitEvent.Origin/Depth). Result
// TIDs carry into the target unchanged: a downstream CQ's deletes and
// modifies must address the same rows the upstream's inserts created.
// Which rows stage is decided against the target's committed rows under
// one hold of the store's read lock (Store.View): client writes to the
// target commit concurrently, and a commit mutates the relation read.
// A client write landing between the check and the commit fails the
// staging or the commit as a conflict, never silently. The rows hold
// each tid at most once (dra.Result.Delta, delta.Diff), so no row's
// check depends on another's staging.
//
// rec, when set, is the CQ record the commit journals, stamped with its
// timestamp (still 0 if nothing committed); one stamped already is being
// replayed, and the commit is re-derived at that timestamp.
func (m *Manager) commitReconciled(inst *instance, rows []delta.Row, rec *wal.Record) error {
	staged := make([]delta.Row, 0, len(rows))
	err := m.store.View(func(v storage.LiveView) error {
		cur, err := v.Relation(inst.into)
		if err != nil {
			return err
		}
		for _, r := range rows {
			have, ok := cur.Lookup(r.TID)
			switch {
			case r.Kind() == delta.Delete:
				if ok {
					staged = append(staged, delta.Row{TID: r.TID, Old: have.Values})
				}
			// Insert and Modify both mean "the row's value is now New".
			case ok && slices.EqualFunc(have.Values, r.New, relation.Value.Equal):
				// Already reflected.
			case ok:
				staged = append(staged, delta.Row{TID: r.TID, Old: have.Values, New: r.New})
			default:
				staged = append(staged, delta.Row{TID: r.TID, New: r.New})
			}
		}
		return nil
	})
	if err != nil || len(staged) == 0 {
		return err
	}
	tx := m.store.Begin()
	for _, r := range staged {
		switch r.Kind() {
		case delta.Delete:
			err = tx.Delete(inst.into, r.TID)
		case delta.Modify:
			err = tx.Update(inst.into, r.TID, r.New)
		default:
			err = tx.InsertWithTID(inst.into, r.TID, r.New)
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	tx.SetOrigin(inst.def.Name, m.dag.Stage(inst.def.Name)+1)
	switch {
	case rec == nil:
		_, err = tx.Commit()
	case rec.TS != 0:
		err = tx.CommitAt(rec.TS)
	default:
		j := m.cfg.Journal
		tx.SetJournal(func(ts vclock.Timestamp) error {
			rec.TS = ts
			return j.AppendCQ(rec)
		})
		_, err = tx.Commit()
	}
	if mm := m.met; mm != nil && err == nil {
		mm.materializeCommits.Inc()
		mm.materializeRows.Add(int64(len(staged)))
	}
	return err
}

// ensureTargetLocked creates the materialization target for a CQ being
// installed, or adopts an existing table with a matching shape — the
// replayed target of a recovered CQ, or the producerless orphan a crash
// between the target's creation and its seed commit leaves behind.
// Caller holds m.mu. Reports whether the table was created here (so the
// caller's rollback knows to drop it).
func (m *Manager) ensureTargetLocked(inst *instance) (created bool, err error) {
	schema := inst.plan.Schema()
	if existing, serr := m.store.Schema(inst.into); serr == nil {
		if !existing.TypesEqual(schema) {
			return false, fmt.Errorf("%w: table %q exists with schema %s (query produces %s)",
				ErrNameCollision, inst.into, existing, schema)
		}
		return false, nil
	}
	if err := m.store.CreateTable(inst.into, schema); err != nil {
		return false, err
	}
	return true, nil
}

// CreateTable creates a base table through the manager, so DDL shares
// the continual-query namespace guards: a table may not shadow a
// registered CQ.
func (m *Manager) CreateTable(name string, schema relation.Schema) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.cqs[name]; ok {
		return fmt.Errorf("%w: table %q would shadow a continual query", ErrNameCollision, name)
	}
	return m.store.CreateTable(name, schema)
}

// DropTable drops a base table through the manager, refusing while
// registered CQs still read it (the error lists them) or a materializing
// CQ still produces it.
func (m *Manager) DropTable(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if prod, ok := m.dag.Producer(name); ok {
		return fmt.Errorf("cq: table %q is materialized by %q; drop the query instead", name, prod)
	}
	if deps := m.dag.TableDependents(name); len(deps) > 0 {
		return &cascade.DependentsError{Name: name, Dependents: deps}
	}
	return m.store.DropTable(name)
}

// Deps snapshots the dependency DAG in topological (stage, name) order:
// every registered CQ with its source tables, its INTO target (empty for
// terminal queries) and its refresh stage.
func (m *Manager) Deps() []cascade.Node {
	return m.dag.Describe()
}
