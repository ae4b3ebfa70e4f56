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
// silent read of recycled memory.
type Pool struct {
	batches sync.Pool
	idx     slicePool[int32]
	tids    slicePool[relation.TID]
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

// Put returns a batch to the arena for reuse. The batch must not be
// referenced afterward (see the Pool lifecycle contract). Safe on nil
// pools and nil batches.
func (p *Pool) Put(b *Batch) {
	if b == nil {
		return
	}
	if poisonEnabled && b.dead {
		panic("batch: double Put (poisoned generation)")
	}
	b.dead = true
	b.gen++
	if p == nil {
		return
	}
	// released: buffers recycled into the arena; callers hold no refs.
	p.batches.Put(b)
}

// GetIdx returns an empty selection-index buffer with at least capHint
// capacity.
func (p *Pool) GetIdx(capHint int) []int32 {
	if p == nil {
		return make([]int32, 0, capHint)
	}
	return p.idx.get(capHint)
}

// PutIdx recycles a selection-index buffer obtained from GetIdx.
func (p *Pool) PutIdx(s []int32) {
	if p != nil {
		// released: index buffer recycled; selection already consumed.
		p.idx.put(s)
	}
}

// GetTIDs returns an empty TID scratch buffer.
func (p *Pool) GetTIDs(capHint int) []relation.TID {
	if p == nil {
		return make([]relation.TID, 0, capHint)
	}
	return p.tids.get(capHint)
}

// PutTIDs recycles a TID scratch buffer obtained from GetTIDs.
func (p *Pool) PutTIDs(s []relation.TID) {
	if p != nil {
		// released: tid scratch recycled; provenance already folded.
		p.tids.put(s)
	}
}

// slicePool recycles []T buffers. A sync.Pool holds pointers, so a
// buffer travels in a *[]T box; get empties the box into boxes instead
// of dropping it, and put refills one, so a steady get/put cycle
// allocates neither buffers nor boxes.
type slicePool[T any] struct {
	full, boxes sync.Pool
}

func (p *slicePool[T]) get(capHint int) []T {
	box, _ := p.full.Get().(*[]T)
	if box == nil {
		return make([]T, 0, capHint)
	}
	s := (*box)[:0]
	*box = nil
	// released: the box is empty; the buffer it held leaves with the caller.
	p.boxes.Put(box)
	return s
}

func (p *slicePool[T]) put(s []T) {
	if s == nil {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	// released: the caller gave the buffer up (PutIdx / PutTIDs).
	p.full.Put(box)
}
