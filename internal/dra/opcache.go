package dra

import (
	"slices"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
)

// replica is one join operand's state kept across refreshes, read and
// advanced operand by operand by the telescoping kernel. Its rows are a
// batch.Table — typed columns addressed by slot, a flat tid → slot
// index, a LIFO free list — the same slot table every maintained query
// result is held in. On top of it the replica keeps one flat
// relation.SlotIndex per probed key-column set, verified against the
// columns on probe. It has no timestamp of its own: every replica of a
// plan is at the plan's one position (Prepared, groupTable). Nothing
// here holds a Tuple or a per-key map; apart from string payloads the
// whole structure is pointer-free.
//
// The table is a named field, not embedded: only apply may write it, so
// every written or freed slot reaches the key indexes (SlotObserver), and
// the table never compacts under them.
type replica struct {
	t    *batch.Table
	keys []*keyIndex
}

// keyIndex is one maintained hash index: key hash of cols → slots.
type keyIndex struct {
	cols []int
	ix   relation.SlotIndex
}

// apply folds an operand's signed delta batch into the replica
// (batch.Table.ApplyBatch). A modification is one overwrite in place, and
// only the indexes whose key hash changed are relinked.
func (r *replica) apply(b *batch.Batch) { r.t.ApplyBatch(b, r) }

// SlotFreed unindexes a slot the table is about to free.
func (r *replica) SlotFreed(s int32) {
	for _, k := range r.keys {
		k.ix.Delete(s)
	}
}

// SlotWritten indexes a slot the table has just written.
func (r *replica) SlotWritten(s int32, fresh bool) {
	rows := r.t.Rows()
	for _, k := range r.keys {
		h := rows.HashKey(int(s), k.cols)
		if fresh {
			k.ix.Insert(s, h)
		} else {
			k.ix.Move(s, h)
		}
	}
}

// index returns the maintained hash index on cols, building it on first
// use (counted as a miss: the build scans the replica once; afterwards
// refreshes probe it for free).
func (r *replica) index(cols []int, st *Stats) *relation.SlotIndex {
	for _, k := range r.keys {
		if slices.Equal(k.cols, cols) {
			return &k.ix
		}
	}
	k := &keyIndex{cols: cols}
	rows := r.t.Rows()
	for s := 0; s < rows.Len(); s++ {
		if rows.Signs[s] != 0 {
			k.ix.Insert(int32(s), rows.HashKey(s, cols))
		}
	}
	r.keys = append(r.keys, k)
	st.IndexCacheMisses++
	return &k.ix
}

// liveBatch copies the live rows into a pooled batch for the enumerating
// steps of a term (seeds and cross products).
func (r *replica) liveBatch(p *batch.Pool) *batch.Batch {
	rows := r.t.Rows()
	out := p.Get(rows.Schema, r.t.Len())
	for s := 0; s < rows.Len(); s++ {
		if rows.Signs[s] != 0 {
			out.AppendFrom(rows, s)
		}
	}
	return out
}

// opCache is one prepared join group's cross-refresh operand state: a
// replica per operand plus the telescoping term plans, resolved once at
// Prepare. It is owned by a single Prepared and touched only inside its
// Step (the cq manager serializes refreshes per CQ under the instance
// lock); nothing here is safe for concurrent use.
type opCache struct {
	tables []string // operand scan table; "" when the operand has several
	ents   []*replica
	// plans[i] is the term plan of operand i's delta against every other
	// operand's replica.
	plans []*termPlan
}

func newOpCache(cj *compiledJoin) *opCache {
	c := &opCache{
		tables: make([]string, len(cj.ops)),
		ents:   make([]*replica, len(cj.ops)),
		plans:  make([]*termPlan, len(cj.ops)),
	}
	for i, op := range cj.ops {
		if scans := algebra.Tables(op.plan); len(scans) == 1 {
			c.tables[i] = scans[0].Table
		}
		c.plans[i] = cj.planTerm(cj.deltaFirstOrder(i))
	}
	return c
}

// replicaCount counts the operand replicas the tree keeps: none for a
// join-free tree, which keeps no state between steps.
func (n *compiledNode) replicaCount() int {
	count := 0
	n.eachJoin(func(cj *compiledJoin) { count += len(cj.ops) })
	return count
}

// gaugeReplicas brings dra.replica.rows in line with the replicas held
// under root right now; *gauged is the owner's current share of the gauge.
func (e *Engine) gaugeReplicas(root *compiledNode, gauged *int) {
	rows := 0
	if root != nil {
		root.eachJoin(func(cj *compiledJoin) {
			for _, ent := range cj.cache.ents {
				if ent != nil {
					rows += ent.t.Len()
				}
			}
		})
	}
	if m := e.Metrics; m != nil {
		m.ReplicaRows.Add(int64(rows - *gauged))
	}
	*gauged = rows
}
