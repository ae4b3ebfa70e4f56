package batch

import (
	"sync"

	"github.com/diorama/continual/internal/relation"
)

// Pool is the arena that recycles batch and selection buffers across
// refresh rounds. A nil *Pool is valid and degrades to plain allocation
// (Get allocates, Put discards), so cold paths and tests can pass nil.
//
// Lifecycle contract: a batch obtained from Get is owned by the caller
// until it is passed to Put, after which the caller must not touch it
// again — not even Len. In race/poison builds Put bumps the batch's
// generation counter and marks it dead, and every subsequent accessor
// panics, so use-after-release is a loud CI failure rather than a
// silent read of recycled memory. Buffers marked Shared (views, stolen
// columns) are dropped at Put, never recycled, because another batch
// still references them.
type Pool struct {
	batches sync.Pool
	idx     sync.Pool
	tids    sync.Pool
}

// NewPool returns an empty arena.
func NewPool() *Pool { return &Pool{} }

// Get returns an empty batch shaped for the schema with room for
// capHint rows, possibly carrying recycled buffer capacity from earlier
// rounds.
func (p *Pool) Get(schema relation.Schema, capHint int) *Batch {
	if p == nil {
		return New(schema, capHint)
	}
	b, _ := p.batches.Get().(*Batch)
	if b == nil {
		return New(schema, capHint)
	}
	b.dead = false
	b.init(schema, capHint)
	return b
}

// Put returns a batch to the arena. Shared buffers (views, stolen
// columns, aliased row metadata) are detached rather than recycled.
// Safe on nil pools and nil batches.
func (b *Batch) release() {
	b.dead = true
	b.gen++
	for i := range b.Cols {
		if b.Cols[i].Shared {
			b.Cols[i] = Col{Type: b.Cols[i].Type}
		}
	}
	if b.sharedRows {
		b.TIDs = nil
		b.Signs = nil
		b.TS = nil
		b.sharedRows = false
	}
}

// Put returns a batch to the arena for reuse. The batch must not be
// referenced afterward (see the Pool lifecycle contract).
func (p *Pool) Put(b *Batch) {
	if b == nil {
		return
	}
	if poisonEnabled && b.dead {
		panic("batch: double Put (poisoned generation)")
	}
	b.release()
	if p == nil {
		return
	}
	// released: buffers recycled into the arena; callers hold no refs.
	p.batches.Put(b)
}

// GetIdx returns an empty selection-index buffer with at least capHint
// capacity.
func (p *Pool) GetIdx(capHint int) []int32 {
	if p != nil {
		if v, _ := p.idx.Get().(*[]int32); v != nil {
			return (*v)[:0]
		}
	}
	return make([]int32, 0, capHint)
}

// PutIdx recycles a selection-index buffer obtained from GetIdx.
func (p *Pool) PutIdx(s []int32) {
	if p == nil || s == nil {
		return
	}
	s = s[:0]
	// released: index buffer recycled; selection already consumed.
	p.idx.Put(&s)
}

// GetTIDs returns an empty TID scratch buffer.
func (p *Pool) GetTIDs(capHint int) []relation.TID {
	if p != nil {
		if v, _ := p.tids.Get().(*[]relation.TID); v != nil {
			return (*v)[:0]
		}
	}
	return make([]relation.TID, 0, capHint)
}

// PutTIDs recycles a TID scratch buffer obtained from GetTIDs.
func (p *Pool) PutTIDs(s []relation.TID) {
	if p == nil || s == nil {
		return
	}
	s = s[:0]
	// released: tid scratch recycled; provenance already folded.
	p.tids.Put(&s)
}
