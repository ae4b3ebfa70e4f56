package storage

import (
	"fmt"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// LiveView adapts the store's current contents to the query executor's
// Source interface (satisfied structurally; storage does not import the
// algebra package). Relations returned are the live ones — callers must
// not mutate them. A view from Live locks each lookup only, so a scan
// through it races with commits; a view handed out by View is read with
// the store's read lock already held around the whole use.
type LiveView struct {
	s    *Store
	held bool // View holds s.mu for us: lookups must not re-lock
}

// Live returns a Source view of the current contents.
func (s *Store) Live() LiveView { return LiveView{s: s} }

// View runs f over the current contents with the store's read lock held
// for the whole call: f sees one state of every table and no commit can
// mutate a relation under it. It is how a whole query — a CQ's initial
// execution — runs against live data while writers are active. Commits
// wait for f, and f must not call back into the store except through
// the view.
func (s *Store) View(f func(LiveView) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return f(LiveView{s: s, held: true})
}

func (v LiveView) table(name string) (*Table, error) {
	if !v.held {
		v.s.mu.RLock()
		defer v.s.mu.RUnlock()
	}
	t, ok := v.s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Relation implements the executor's Source contract.
func (v LiveView) Relation(table string) (*relation.Relation, error) {
	t, err := v.table(table)
	if err != nil {
		return nil, err
	}
	return t.rel, nil
}

// Schema implements the planner's Catalog contract.
func (v LiveView) Schema(table string) (relation.Schema, error) {
	t, err := v.table(table)
	if err != nil {
		return relation.Schema{}, err
	}
	return t.rel.Schema(), nil
}

// HistoricView adapts a point-in-time reconstruction to the Source
// interface: the store as of the view's timestamp (the state after the
// CQ's last execution, DRA input (ii)). Relation reconstructs a table in
// row form for the executor; TableImage builds its columnar image, which
// is what the differential kernels seed from. A view from Store.At
// builds on every call; one from WindowCache.At shares each table's
// image and snapshot among every reader of the cache.
type HistoricView struct {
	s     *Store
	ts    vclock.Timestamp
	cache *WindowCache
}

// At returns a Source view of the store as of logical time ts.
func (s *Store) At(ts vclock.Timestamp) HistoricView { return HistoricView{s: s, ts: ts} }

// Relation implements the executor's Source contract.
func (v HistoricView) Relation(table string) (*relation.Relation, error) {
	if v.cache != nil {
		return tableAt(v.cache, &v.cache.snaps, table, v.ts, v.s.SnapshotAt)
	}
	return v.s.SnapshotAt(table, v.ts)
}

// TableImage returns the table's columnar image as of the view's
// timestamp (Store.TableImage), shared when the view is a cache's.
func (v HistoricView) TableImage(table string) (*batch.Batch, error) {
	if v.cache != nil {
		return tableAt(v.cache, &v.cache.tables, table, v.ts, v.s.TableImage)
	}
	return v.s.TableImage(table, v.ts)
}

// WindowBatch returns the columnar image of the table's window (from,
// to] (Store.WindowImage), shared when the view is a cache's: what a
// shared join arrangement reads to move between the view's timestamp
// and its own.
func (v HistoricView) WindowBatch(table string, from, to vclock.Timestamp, compact bool) (*batch.Batch, error) {
	if v.cache != nil {
		return v.cache.WindowBatch(table, from, to, compact)
	}
	return v.s.WindowImage(table, from, to, compact)
}

// Schema implements the planner's Catalog contract.
func (v HistoricView) Schema(table string) (relation.Schema, error) {
	return v.s.Schema(table)
}
