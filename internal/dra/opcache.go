package dra

import (
	"slices"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// replica is one join operand's state kept across refreshes, read and
// advanced operand by operand by the telescoping kernel. Rows
// live in typed columns addressed by slot: a row keeps its slot for as
// long as it lives, freed slots are holes (sign 0) reused LIFO, and
// every index — tid → slot, and one per probed key-column set — is a
// flat relation.SlotIndex over slot numbers, verified against the
// columns on probe. Nothing here holds a Tuple or a per-key map; apart
// from string payloads the whole structure is pointer-free.
type replica struct {
	rows  *batch.Batch // slot-addressed; Signs[slot] is +1 live, 0 free
	byTID relation.SlotIndex
	free  []int32
	live  int
	keys  []*keyIndex

	// ts is the timestamp the replica reflects: rows equal the operand
	// subtree executed at ts.
	ts vclock.Timestamp
	// version is the operand table's change counter from the refresh
	// that advanced the replica to ts — snapshotted by the caller BEFORE
	// that refresh's timestamp was issued (Context.Versions), which is
	// what makes a later equality check prove the table untouched in
	// between. verOK marks the snapshot as present.
	version uint64
	verOK   bool
}

// keyIndex is one maintained hash index: key hash of cols → slots.
type keyIndex struct {
	cols []int
	ix   relation.SlotIndex
}

// newReplica adopts rows — an operand's output, every row +1 — as a
// replica at ts.
func newReplica(rows *batch.Batch, ts vclock.Timestamp) *replica {
	r := &replica{rows: rows, live: rows.Len(), ts: ts}
	for s, tid := range rows.TIDs {
		r.byTID.Insert(int32(s), uint64(tid))
	}
	return r
}

// slotOf returns the slot holding tid, or -1.
func (r *replica) slotOf(tid relation.TID) int32 {
	s := r.byTID.First(uint64(tid))
	for s >= 0 && r.rows.TIDs[s] != tid {
		s = r.byTID.Next(s)
	}
	return s
}

// apply folds an operand's signed delta batch into the replica in row
// order: a negative row frees its tid's slot, a positive row overwrites
// its tid's slot or takes a free one. A modification arrives as -old
// directly before +new and is one overwrite in place: the row keeps its
// slot, and only the indexes whose key hash changed are relinked.
func (r *replica) apply(b *batch.Batch) {
	n := b.Len()
	if r.rows.Len() == 0 {
		// An empty replica (a seed's) takes the batch's size at once.
		r.rows = batch.New(r.rows.Schema, n)
	}
	for i := 0; i < n; i++ {
		tid := b.TIDs[i]
		s := r.slotOf(tid)
		if b.Signs[i] < 0 {
			if s >= 0 && i+1 < n && b.Signs[i+1] > 0 && b.TIDs[i+1] == tid {
				i++ // -old +new: fall through to overwrite slot s with +new
			} else {
				if s >= 0 {
					for _, k := range r.keys {
						k.ix.Delete(s)
					}
					r.byTID.Delete(s)
					r.rows.ClearRow(int(s))
					r.free = append(r.free, s)
					r.live--
				}
				continue
			}
		}
		if s >= 0 {
			r.rows.SetRowFrom(int(s), b, i)
			for _, k := range r.keys {
				k.ix.Move(s, r.rows.HashKey(int(s), k.cols))
			}
			continue
		}
		if f := len(r.free); f > 0 {
			s, r.free = r.free[f-1], r.free[:f-1]
			r.rows.SetRowFrom(int(s), b, i)
		} else {
			s = int32(r.rows.Len())
			r.rows.AppendFrom(b, i)
		}
		r.byTID.Insert(s, uint64(tid))
		r.live++
		for _, k := range r.keys {
			k.ix.Insert(s, r.rows.HashKey(int(s), k.cols))
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
	for s := 0; s < r.rows.Len(); s++ {
		if r.rows.Signs[s] != 0 {
			k.ix.Insert(int32(s), r.rows.HashKey(s, cols))
		}
	}
	r.keys = append(r.keys, k)
	st.IndexCacheMisses++
	return &k.ix
}

// liveBatch copies the live rows into a pooled batch for the enumerating
// steps of a term (seeds and cross products).
func (r *replica) liveBatch(p *batch.Pool) *batch.Batch {
	out := p.Get(r.rows.Schema, r.live)
	for s := 0; s < r.rows.Len(); s++ {
		if r.rows.Signs[s] != 0 {
			out.AppendFrom(r.rows, s)
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
	engine *Engine
	cj     *compiledJoin
	tables []string // operand scan table; "" when the operand has several
	ents   []*replica
	// plans[i] is the term plan of operand i's delta against every other
	// operand's replica.
	plans []*termPlan
}

func newOpCache(e *Engine, cj *compiledJoin) *opCache {
	c := &opCache{
		engine: e, cj: cj,
		tables: make([]string, len(cj.ops)),
		ents:   make([]*replica, len(cj.ops)),
		plans:  make([]*termPlan, len(cj.ops)),
	}
	for i, op := range cj.ops {
		if scans := algebra.Tables(op.plan); len(scans) == 1 {
			c.tables[i] = scans[0].Table
		}
		c.plans[i] = cj.planTerm(cj.deltaFirstOrder(i), e.UseHashJoin)
	}
	return c
}

// pre returns operand i's replica for a refresh whose window starts at
// ctx.LastTS. Validation is two-tier:
//
//   - a replica advanced to exactly ctx.LastTS by the previous refresh
//     (or left there by Seed) is current (the common case: consecutive
//     refreshes);
//   - otherwise, an unchanged table change-counter between the
//     replica's refresh and this one proves the base — hence the operand
//     output — identical at every timestamp in between, so only the
//     timestamp tag moves.
//
// Anything else is rebuilt as the initial execution builds it: the
// operand evaluated from the empty state over its tables' images as of
// ctx.LastTS (vecEval.operandAt).
func (c *opCache) pre(i int, v *vecEval) (*replica, error) {
	ctx, st := v.ctx, v.st
	if ent := c.ents[i]; ent != nil {
		if ent.ts == ctx.LastTS {
			st.IndexCacheHits++
			return ent, nil
		}
		if ent.verOK && ctx.Versions != nil && c.tables[i] != "" {
			if v, ok := ctx.Versions[c.tables[i]]; ok && v == ent.version {
				ent.ts = ctx.LastTS
				st.IndexCacheHits++
				return ent, nil
			}
		}
	}
	rows := batch.New(c.cj.ops[i].plan.Schema(), 0)
	if err := v.operandAt(c.cj, i, rows); err != nil {
		return nil, err
	}
	st.IndexCacheMisses++
	c.ents[i] = newReplica(rows, ctx.LastTS)
	return c.ents[i], nil
}

// advance moves every replica that is current at ctx.LastTS to execTS.
// The kernel has folded the window in by then (or there was none), so
// the rows already equal the state at execTS and only the tags move.
//
// Replicas from older refreshes that were not revalidated this round
// are left alone; the next pre() call version-checks or rebuilds them.
func (c *opCache) advance(ctx *Context, execTS vclock.Timestamp) {
	for i, ent := range c.ents {
		if ent == nil || ent.ts != ctx.LastTS {
			continue
		}
		ent.ts = execTS
		ent.version, ent.verOK = ctx.Versions[c.tables[i]]
		ent.verOK = ent.verOK && c.tables[i] != ""
	}
}

// invalidate drops every replica (Close, and any refresh that failed:
// its join groups may have advanced part-way).
func (c *opCache) invalidate() {
	clear(c.ents)
}

// gaugeReplicas brings dra.replica.rows in line with the replicas held
// under root right now; *gauged is the owner's current share of the gauge.
func (e *Engine) gaugeReplicas(root *compiledNode, gauged *int) {
	rows := 0
	if root != nil {
		root.eachJoin(func(cj *compiledJoin) {
			for _, ent := range cj.cache.ents {
				if ent != nil {
					rows += ent.live
				}
			}
		})
	}
	if m := e.Metrics; m != nil {
		m.ReplicaRows.Add(int64(rows - *gauged))
	}
	*gauged = rows
}
