package dra

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// WindowSource reads the columnar image of a table's window (from, to]
// — the store's differential rows with from < TS <= to, folded to their
// net per-tid effect when compact is set (storage.WindowCache,
// storage.HistoricView). It is how a step moves a shared arrangement
// between the arrangement's timestamp and the states the step's terms
// read (Context.Windows).
type WindowSource interface {
	WindowBatch(table string, from, to vclock.Timestamp, compact bool) (*batch.Batch, error)
}

// arrangement is one base table's state as every join of an engine
// reads it (Section 4.2's Rj: one per table, whatever the number of
// queries joining it): the table's rows in its scan schema, at one
// timestamp at, with one maintained hash index per key set some
// attached plan probes. Its rows are a batch.Table — typed columns
// addressed by slot, a flat tid → slot index, a LIFO free list — the
// same slot table every maintained query result is held in; each key
// index is a flat relation.SlotIndex over the slots, verified against
// the columns on probe. Apart from string payloads the whole structure
// is pointer-free.
//
// An operand reads it through its view (filter and column map) at probe
// time, and reads a state other than at by adding a correction built
// from a window image: Rj(X) = Arr(at) ⊎ −Δj(X, at] (telescopeJoin). So
// an arrangement only moves forward, and a plan keeps no position of
// its own.
//
// Locking: mu guards everything but refs. A step takes the write lock
// to build or advance the arrangement, holding nothing else, and the
// read lock for its terms, taking the read locks of a join's
// arrangements in table-name order — so the locks never form a cycle.
// The table is a named field, not embedded: only an advance may write
// it, so every written or freed slot reaches the key indexes
// (SlotObserver), and the table never compacts under them.
type arrangement struct {
	table string
	// refs counts the plans attached (Engine.attach); guarded by
	// Engine.arrMu. The last one to detach drops the arrangement.
	refs int

	mu sync.RWMutex
	// t is nil until the first seed or step that reads the arrangement
	// builds it from an image of the table.
	t  *batch.Table
	at vclock.Timestamp
	// float marks rows built from a source without a timestamp (the
	// stand-alone group tables): at is taken to be the first step's
	// LastTS.
	float bool
	keys  []*keyIndex
	// rows and bytes are the arrangement's shares of the dra.replica.rows
	// and dra.replica.bytes gauges.
	rows, bytes int
}

// keyIndex is one maintained hash index: key hash of cols → slots,
// kept while some attached plan's term probes it (refs).
type keyIndex struct {
	cols []int
	refs int
	ix   relation.SlotIndex
}

// arrUse is one arrangement a join group reads, with a scan of its
// table: the schema the step's own window of the table converts to.
type arrUse struct {
	a    *arrangement
	scan *algebra.ScanPlan
}

// attach gives every join group under n its arrangements, creating
// them on first use, and registers the key sets its terms probe.
// Prepare attaches; detach, from Close, undoes it.
func (e *Engine) attach(n *compiledNode) {
	n.eachJoin(func(cj *compiledJoin) {
		cj.arrs = make([]*arrangement, len(cj.ops))
		for i, op := range cj.ops {
			for j := 0; j < i; j++ {
				if cj.ops[j].view.scan.Table == op.view.scan.Table {
					cj.arrs[i] = cj.arrs[j] // a self-join: one arrangement
				}
			}
			if cj.arrs[i] == nil {
				cj.arrs[i] = e.acquire(op.view.scan.Table)
				cj.uses = append(cj.uses, arrUse{a: cj.arrs[i], scan: op.view.scan})
			}
		}
		slices.SortFunc(cj.uses, func(x, y arrUse) int { return strings.Compare(x.a.table, y.a.table) })
		for _, tp := range cj.plans {
			for k := range tp.steps {
				if st := &tp.steps[k]; len(st.keyCols) > 0 {
					st.key = cj.arrs[st.op].addKey(st.keyCols, e.Metrics)
				}
			}
		}
	})
}

// detach releases what attach registered.
func (e *Engine) detach(n *compiledNode) {
	n.eachJoin(func(cj *compiledJoin) {
		for _, tp := range cj.plans {
			for k := range tp.steps {
				if st := &tp.steps[k]; st.key != nil {
					cj.arrs[st.op].dropKey(st.key, e.Metrics)
					st.key = nil
				}
			}
		}
		for _, u := range cj.uses {
			e.release(u.a)
		}
		cj.arrs, cj.uses = nil, nil
	})
}

// acquire returns the engine's arrangement of table, counting one more
// plan on it.
func (e *Engine) acquire(table string) *arrangement {
	e.arrMu.Lock()
	defer e.arrMu.Unlock()
	a := e.arrs[table]
	if a == nil {
		if e.arrs == nil {
			e.arrs = make(map[string]*arrangement)
		}
		a = &arrangement{table: table}
		e.arrs[table] = a
	}
	a.refs++
	return a
}

// release counts one plan off a; the last drops it, with its gauges.
func (e *Engine) release(a *arrangement) {
	e.arrMu.Lock()
	a.refs--
	last := a.refs == 0
	if last {
		delete(e.arrs, a.table)
	}
	e.arrMu.Unlock()
	if last {
		a.mu.Lock()
		a.t, a.keys = nil, nil
		a.gauge(e.Metrics)
		a.mu.Unlock()
	}
}

// shared returns the number of plans attached to a.
func (e *Engine) shared(a *arrangement) int {
	e.arrMu.Lock()
	defer e.arrMu.Unlock()
	return a.refs
}

// addKey registers one probe of the index on cols, building the index
// now when the rows are already there.
func (a *arrangement) addKey(cols []int, m *Metrics) *keyIndex {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range a.keys {
		if slices.Equal(k.cols, cols) {
			k.refs++
			return k
		}
	}
	k := &keyIndex{cols: cols, refs: 1}
	a.keys = append(a.keys, k)
	if a.t != nil {
		k.build(a.t)
		a.gauge(m)
	}
	return k
}

// dropKey releases one probe of k, dropping the index with its last.
func (a *arrangement) dropKey(k *keyIndex, m *Metrics) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if k.refs--; k.refs == 0 {
		a.keys = slices.DeleteFunc(a.keys, func(x *keyIndex) bool { return x == k })
		a.gauge(m)
	}
}

// build indexes every live slot of t.
func (k *keyIndex) build(t *batch.Table) {
	k.ix = relation.SlotIndex{}
	rows := t.Rows()
	for s := 0; s < rows.Len(); s++ {
		if rows.Signs[s] != 0 {
			k.ix.Insert(int32(s), rows.HashKey(s, k.cols))
		}
	}
}

// fill builds the rows from img, an all-insert image of the table as of
// at, with every registered index. Caller holds the write lock.
func (a *arrangement) fill(img *batch.Batch, at vclock.Timestamp, float bool) {
	a.t = batch.NewTable(img.Schema, img.Len())
	if img.Len() > 0 {
		a.t.ApplyBatch(img, nil)
	}
	for _, k := range a.keys {
		k.build(a.t)
	}
	a.at, a.float = at, float
}

// advance folds the window image (a.at, to] into the rows
// (batch.Table.ApplyBatch): a modification is one overwrite in place,
// and only the indexes whose key hash changed are relinked. Caller
// holds the write lock.
func (a *arrangement) advance(img *batch.Batch, to vclock.Timestamp) {
	if img.Len() > 0 {
		a.t.ApplyBatch(img, a)
	}
	a.at = to
}

// SlotFreed unindexes a slot the table is about to free.
func (a *arrangement) SlotFreed(s int32) {
	for _, k := range a.keys {
		k.ix.Delete(s)
	}
}

// SlotWritten indexes a slot the table has just written.
func (a *arrangement) SlotWritten(s int32, fresh bool) {
	rows := a.t.Rows()
	for _, k := range a.keys {
		h := rows.HashKey(int(s), k.cols)
		if fresh {
			k.ix.Insert(s, h)
		} else {
			k.ix.Move(s, h)
		}
	}
}

// gauge brings dra.replica.rows and dra.replica.bytes in line with the
// arrangement as it stands. Caller holds the write lock.
func (a *arrangement) gauge(m *Metrics) {
	rows, bytes := 0, 0
	if a.t != nil {
		rows, bytes = a.t.Len(), a.t.Bytes()
		for _, k := range a.keys {
			bytes += k.ix.Bytes()
		}
	}
	if m != nil {
		m.ReplicaRows.Add(int64(rows - a.rows))
		m.ReplicaBytes.Add(int64(bytes - a.bytes))
	}
	a.rows, a.bytes = rows, bytes
}

// stat reports the arrangement as a join operand over its table sees it.
func (e *Engine) stat(a *arrangement) ReplicaStat {
	st := ReplicaStat{Operand: a.table, Shared: e.shared(a)}
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.t != nil {
		st.Rows, st.Indexes = a.t.Len(), len(a.keys)
	}
	return st
}

// replicaStats reports the arrangement every join operand in the tree
// reads, in plan order; nil for a join-free (or absent) tree.
func (e *Engine) replicaStats(n *compiledNode) []ReplicaStat {
	if n == nil {
		return nil
	}
	var out []ReplicaStat
	n.eachJoin(func(cj *compiledJoin) {
		for _, a := range cj.arrs {
			out = append(out, e.stat(a))
		}
	})
	return out
}

// noWindows is the error of a step that needs a window image and has no
// source to read it from.
func noWindows(table string, from, to vclock.Timestamp) error {
	return fmt.Errorf("dra: the arrangement of %q needs the window (%d, %d], and the context has no window source", table, from, to)
}
