package cq

// Materializing continual queries (SELECT ... INTO target): each refresh
// commits the result delta into a derived base table through the
// ordinary storage commit path, so the WAL sink, the commit hook, the
// push router and the window caches all see derived deltas as ordinary
// deltas — downstream CQs over the target need no new machinery.
//
// The apply is RECONCILING, not blind: every staged operation is checked
// against the target's current contents and rows the table already
// reflects stage as no-ops. That property carries the crash-recovery
// contract: the materialize commit lands BEFORE the execution journals
// (refreshInstance), so the WAL can hold a committed derived delta whose
// execution record was lost — recovery then resumes the producer one
// sequence back, the catch-up refresh re-derives the change, and
// reconciliation reduces the already-applied part to nothing. A refresh
// whose reconciliation stages zero operations commits nothing at all (no
// clock tick, no hook, no downstream wake).

import (
	"fmt"

	"github.com/diorama/continual/internal/cascade"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// materializeLocked commits one refresh's change into the instance's
// INTO target. Caller holds inst.mu; inst.prev still holds the previous
// result (the change is applied to it after journaling).
func (m *Manager) materializeLocked(inst *instance, res *dra.Result) error {
	d := res.Delta
	if inst.needsReconcile || d == nil {
		// First refresh after recovery (or an evaluation path without a
		// row delta): the crash window may have left the target a full
		// refresh away from the journaled sequence — in either direction,
		// since the sources can revert while the producer is down — so
		// reconcile the whole target against the new result once, then
		// return to delta-driven applies. The new result is rendered from
		// a copy of the table: inst.prev must stay the previous result
		// until the execution journals.
		// refreshInstance has run res.Fits(inst.prev).
		want := res.Maintain(inst.prev.Clone())
		if err := m.reconcileTarget(inst, want.Relation()); err != nil {
			return err
		}
		inst.needsReconcile = false
		return nil
	}
	if d.Len() == 0 {
		return nil
	}
	return m.commitReconciled(inst, d.Rows())
}

// reconcileTarget commits whatever transforms the target's current
// contents into want — the seed at registration, the adoption of an
// orphaned target, and the post-recovery catch-up all reduce to it. The
// difference is taken under the store's read lock: client writes to the
// target commit concurrently, and a commit mutates the relation Diff
// reads.
func (m *Manager) reconcileTarget(inst *instance, want *relation.Relation) error {
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
	return m.commitReconciled(inst, d.Rows())
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
func (m *Manager) commitReconciled(inst *instance, rows []delta.Row) error {
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
			case ok && valuesEqual(have.Values, r.New):
				// Already reflected — the crash-window no-op.
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
	if _, err := tx.Commit(); err != nil {
		return err
	}
	if mm := m.met; mm != nil {
		mm.materializeCommits.Inc()
		mm.materializeRows.Add(int64(len(staged)))
	}
	return nil
}

// ensureTargetLocked creates the materialization target for a CQ being
// installed, or adopts an existing table with a matching shape — the
// replayed target of a recovered CQ, or the producerless orphan a crash
// between the seed commit and the registration journal leaves behind.
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

func valuesEqual(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
