package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// tableDef is one base table of a workload: its schema, how many rows
// it is seeded with at scale 1, and how rows are made and modified. The
// benchmark owns these (no import of internal/workload) so a change to
// the repo's experiment generators cannot move the yardstick.
type tableDef struct {
	name   string
	schema relation.Schema
	rows   int
	// newRow makes the image of logical row id; modify derives the next
	// image of a live row. Both draw only from r.
	newRow func(r *rand.Rand, id int) []relation.Value
	modify func(r *rand.Rand, old []relation.Value) []relation.Value
}

// op is one row operation of a generated transaction. Rows are named by
// a logical id the generator assigns; the driver maps ids to the TIDs
// the store handed out, so the stream does not depend on the engine.
type op struct {
	table int
	kind  delta.Kind
	id    int
	vals  []relation.Value // Insert/Modify: the new image
}

// hashedTxns is how many leading transactions inputs_sha covers (with
// every seeded row). Every workload's warm-up is at least this long, so
// the hash is complete before timing starts.
const hashedTxns = 32

// gen produces a workload's seeded tables and its transaction stream
// from one seed. It keeps a model of which logical rows are live and
// their current images; it never reads the engine.
type gen struct {
	r    *rand.Rand
	defs []tableDef
	live [][]int              // per table: live logical ids
	vals [][][]relation.Value // per table: current image by logical id
	mix  [3]int               // insert, delete, modify percent

	sum    hash.Hash
	hashed int
	seen   map[int]struct{} // ids touched by the transaction being built
}

func newGen(seed int64, defs []tableDef, mix [3]int) *gen {
	return &gen{
		r:    rand.New(rand.NewSource(seed)),
		defs: defs,
		live: make([][]int, len(defs)),
		vals: make([][][]relation.Value, len(defs)),
		mix:  mix,
		sum:  sha256.New(),
		seen: make(map[int]struct{}),
	}
}

// seedOps returns the insert operations that populate table t, in id
// order, and records them in the model and the input hash.
func (g *gen) seedOps(t int, rows int) []op {
	ops := make([]op, rows)
	for i := range ops {
		ops[i] = g.insert(t)
		g.hashOp(ops[i])
	}
	return ops
}

func (g *gen) insert(t int) op {
	id := len(g.vals[t])
	v := g.defs[t].newRow(g.r, id)
	g.vals[t] = append(g.vals[t], v)
	g.live[t] = append(g.live[t], id)
	return op{table: t, kind: delta.Insert, id: id, vals: v}
}

// next builds one transaction of n row operations against table t at
// the generator's insert/delete/modify mix. A row is touched at most
// once per transaction, so no operation can conflict with an earlier
// one of the same transaction and every generated commit succeeds.
func (g *gen) next(t, n int) []op {
	ops := make([]op, 0, n)
	clear(g.seen)
	for len(ops) < n {
		p := g.r.Intn(100)
		live := g.live[t]
		if p < g.mix[0] || len(live) <= n {
			o := g.insert(t)
			g.seen[o.id] = struct{}{}
			ops = append(ops, o)
			continue
		}
		at := g.r.Intn(len(live))
		id := live[at]
		if _, dup := g.seen[id]; dup {
			continue
		}
		g.seen[id] = struct{}{}
		if p < g.mix[0]+g.mix[1] {
			live[at] = live[len(live)-1]
			g.live[t] = live[:len(live)-1]
			g.vals[t][id] = nil
			ops = append(ops, op{table: t, kind: delta.Delete, id: id})
			continue
		}
		v := g.defs[t].modify(g.r, g.vals[t][id])
		g.vals[t][id] = v
		ops = append(ops, op{table: t, kind: delta.Modify, id: id, vals: v})
	}
	if g.hashed < hashedTxns {
		for _, o := range ops {
			g.hashOp(o)
		}
		g.hashed++
	}
	return ops
}

func (g *gen) hashOp(o op) {
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		g.sum.Write(b[:])
	}
	put(uint64(o.table)<<8 | uint64(o.kind))
	put(uint64(o.id))
	for _, v := range o.vals {
		switch v.Kind {
		case relation.TInt:
			put(uint64(v.AsInt()))
		case relation.TFloat:
			put(math.Float64bits(v.AsFloat()))
		case relation.TString:
			g.sum.Write([]byte(v.AsString()))
		case relation.TBool:
			if v.AsBool() {
				put(1)
			} else {
				put(0)
			}
		}
	}
}

// inputsSHA is the hash of every seeded row and the first hashedTxns
// transactions: two runs that print the same value were fed the same
// inputs.
func (g *gen) inputsSHA() string {
	return hex.EncodeToString(g.sum.Sum(nil))[:16]
}

// seedChunk is the number of rows per seeding transaction.
const seedChunk = 4096

// stream feeds one store with a workload's seeded tables and its
// transactions: the generator plus the map from its logical row ids to
// the TIDs that store handed out. The engine run and the layer replay
// each own one, built from the same seed, so both see the same inputs.
type stream struct {
	w      *workload // at the stream's scale
	tables []tableDef
	g      *gen
	tids   [][]relation.TID
	txn    int // transactions generated so far
}

func newStream(w *workload, seed int64, scale float64) *stream {
	tables := w.tables(scale)
	return &stream{
		w: w.at(scale), tables: tables,
		g: newGen(seed, tables, w.mix), tids: make([][]relation.TID, len(tables)),
	}
}

// seed creates and populates every table: create makes one, commit
// applies one chunk of inserts.
func (s *stream) seed(create func(tableDef) error, commit func([]op) error) error {
	for t, def := range s.tables {
		if err := create(def); err != nil {
			return fmt.Errorf("create table %s: %w", def.name, err)
		}
		ops := s.g.seedOps(t, def.rows)
		for len(ops) > 0 {
			n := min(seedChunk, len(ops))
			if err := commit(ops[:n]); err != nil {
				return fmt.Errorf("seed %s: %w", def.name, err)
			}
			ops = ops[n:]
		}
	}
	return nil
}

// next generates the next transaction and names the table it writes.
func (s *stream) next() (table int, ops []op) {
	table = s.w.rotation[s.txn%len(s.w.rotation)]
	s.txn++
	return table, s.g.next(table, s.w.txRows)
}

// stage buffers a transaction's operations in tx through TID-addressed
// storage.Tx calls; on error the transaction is aborted.
func (s *stream) stage(tx *storage.Tx, ops []op) error {
	for _, o := range ops {
		name := s.tables[o.table].name
		var err error
		switch o.kind {
		case delta.Insert:
			var tid relation.TID
			tid, err = tx.Insert(name, o.vals)
			s.tids[o.table] = append(s.tids[o.table], tid)
		case delta.Delete:
			err = tx.Delete(name, s.tids[o.table][o.id])
		case delta.Modify:
			err = tx.Update(name, s.tids[o.table][o.id], o.vals)
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	return nil
}
