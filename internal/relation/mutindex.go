package relation

import "math/bits"

// SlotIndex is a flat hash index from key hashes to int32 slot numbers:
// one bucket array of chain heads plus one entry per slot, so an index
// over n rows is two pointer-free slices — no per-key inner maps,
// nothing for the collector to trace. The index stores no keys: a probe
// walks the slots inserted under a hash and the caller verifies each
// candidate against its own storage (the replica's typed columns,
// MutableIndex's tuple slots), which is what keeps a hash collision
// from ever matching. Chains are doubly linked, so removing a slot is
// O(1) even when many rows share one key.
//
// Probe order is deterministic: newest insertion first within a hash,
// as a function of the insert/delete history alone.
//
// The zero SlotIndex is empty and ready to use. Not safe for concurrent
// use.
type SlotIndex struct {
	heads []int32 // bucket → first slot of its chain; -1 when empty
	ents  []slotEntry
	shift uint // 64 - log2(len(heads))
	n     int
}

// slotEntry is one slot's place in its bucket chain. Hash and links sit
// together so a chain walk touches one cache line per slot.
type slotEntry struct {
	hash       uint64 // the key hash the slot was inserted under
	next, prev int32  // neighbours in the chain; -1 at the ends
}

// Len returns the number of indexed slots.
func (ix *SlotIndex) Len() int { return ix.n }

// Bytes is the memory the index holds, by capacity.
func (ix *SlotIndex) Bytes() int { return cap(ix.heads)*4 + cap(ix.ents)*16 }

// Reset empties the index, keeping its capacity for the next build: a
// scratch index rebuilt per use allocates only when it outgrows the
// last one.
func (ix *SlotIndex) Reset() {
	for i := range ix.heads {
		ix.heads[i] = -1
	}
	ix.ents = ix.ents[:0]
	ix.n = 0
}

// bucket spreads the hash by Fibonacci multiplication and keeps the
// high bits, so sequential tids and FNV sums distribute alike.
func (ix *SlotIndex) bucket(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> ix.shift) }

// Insert indexes slot under key hash h. The slot must not currently be
// indexed here.
func (ix *SlotIndex) Insert(slot int32, h uint64) {
	if ix.n >= len(ix.heads) {
		ix.grow()
	}
	for int(slot) >= len(ix.ents) {
		ix.ents = append(ix.ents, slotEntry{next: -1, prev: -1})
	}
	ix.ents[slot].hash = h
	ix.link(slot)
	ix.n++
}

func (ix *SlotIndex) link(slot int32) {
	e := &ix.ents[slot]
	b := ix.bucket(e.hash)
	head := ix.heads[b]
	e.next, e.prev = head, -1
	if head >= 0 {
		ix.ents[head].prev = slot
	}
	ix.heads[b] = slot
}

// grow doubles the bucket array and relinks every chained slot.
func (ix *SlotIndex) grow() {
	old := ix.heads
	size := 2 * len(old)
	if size < 8 {
		size = 8
	}
	ix.heads = make([]int32, size)
	for i := range ix.heads {
		ix.heads[i] = -1
	}
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		for s >= 0 {
			nx := ix.ents[s].next
			ix.link(s)
			s = nx
		}
	}
}

// Delete unindexes a slot previously passed to Insert.
func (ix *SlotIndex) Delete(slot int32) {
	e := ix.ents[slot]
	if e.prev >= 0 {
		ix.ents[e.prev].next = e.next
	} else {
		ix.heads[ix.bucket(e.hash)] = e.next
	}
	if e.next >= 0 {
		ix.ents[e.next].prev = e.prev
	}
	ix.n--
}

// Move re-indexes an indexed slot under key hash h. A slot whose hash
// did not change stays where it is in its chain: the index holds hashes,
// not keys, so an in-place update that keeps the key costs nothing.
func (ix *SlotIndex) Move(slot int32, h uint64) {
	if ix.ents[slot].hash != h {
		ix.Delete(slot)
		ix.Insert(slot, h)
	}
}

// First returns the first slot indexed under hash h, or -1.
func (ix *SlotIndex) First(h uint64) int32 {
	if ix.n == 0 {
		return -1
	}
	return ix.scan(ix.heads[ix.bucket(h)], h)
}

// Next returns the slot after slot indexed under the same hash, or -1.
// Fetch it before deleting slot.
func (ix *SlotIndex) Next(slot int32) int32 {
	e := &ix.ents[slot]
	return ix.scan(e.next, e.hash)
}

func (ix *SlotIndex) scan(s int32, h uint64) int32 {
	for s >= 0 {
		e := &ix.ents[s]
		if e.hash == h {
			break
		}
		s = e.next
	}
	return s
}

// MutableIndex is an equality index over fixed key columns that is
// maintained incrementally: tuples are added and removed as the indexed
// relation changes, so probes never require rebuilding (the persistent
// counterpart of BuildHashIndex, which snapshots). It is the stand-alone
// form of the flat layout the dra operand replicas use: a SlotIndex over
// a slot-addressed tuple array with a free list.
type MutableIndex struct {
	cols  []int
	ix    SlotIndex
	slots []Tuple // slot → indexed tuple; freed slots hold the zero Tuple
	free  []int32
}

// NewMutableIndex creates an empty index on the given key columns.
func NewMutableIndex(cols []int) *MutableIndex {
	return &MutableIndex{cols: append([]int(nil), cols...)}
}

// Cols returns the indexed column positions.
func (ix *MutableIndex) Cols() []int { return ix.cols }

// Len returns the number of indexed tuples.
func (ix *MutableIndex) Len() int { return ix.ix.Len() }

func (ix *MutableIndex) keyHash(values []Value) uint64 {
	h := newFNV()
	for _, c := range ix.cols {
		values[c].hashInto(h)
	}
	return h.sum()
}

// find returns the slot holding tid under key hash h, or -1.
func (ix *MutableIndex) find(h uint64, tid TID) int32 {
	s := ix.ix.First(h)
	for s >= 0 && ix.slots[s].TID != tid {
		s = ix.ix.Next(s)
	}
	return s
}

// Add indexes a tuple (replacing any previous tuple with the same tid
// under the same key).
func (ix *MutableIndex) Add(t Tuple) {
	h := ix.keyHash(t.Values)
	if s := ix.find(h, t.TID); s >= 0 {
		ix.slots[s] = t
		return
	}
	var s int32
	if n := len(ix.free); n > 0 {
		s, ix.free = ix.free[n-1], ix.free[:n-1]
		ix.slots[s] = t
	} else {
		s = int32(len(ix.slots))
		ix.slots = append(ix.slots, t)
	}
	ix.ix.Insert(s, h)
}

// Remove unindexes the tuple with the given (pre-change) values and tid.
// Removing an absent tuple is a no-op.
func (ix *MutableIndex) Remove(t Tuple) {
	if s := ix.find(ix.keyHash(t.Values), t.TID); s >= 0 {
		ix.ix.Delete(s)
		ix.slots[s] = Tuple{}
		ix.free = append(ix.free, s)
	}
}

// Probe returns the tuples whose key columns equal the given key values.
// Matches are verified to guard against hash collisions. The returned
// slice is freshly allocated.
func (ix *MutableIndex) Probe(key []Value) []Tuple {
	var out []Tuple
	ix.ProbeEach(key, func(t Tuple) { out = append(out, t) })
	return out
}

// ProbeEach invokes fn for each tuple whose key columns equal the given
// key values, without allocating a result slice. Matches are
// collision-verified like Probe; iteration follows the SlotIndex chain
// order (newest first).
func (ix *MutableIndex) ProbeEach(key []Value, fn func(Tuple)) {
	for s := ix.ix.First(HashValues(key)); s >= 0; s = ix.ix.Next(s) {
		t := ix.slots[s]
		match := true
		for i, c := range ix.cols {
			if !t.Values[c].Equal(key[i]) {
				match = false
				break
			}
		}
		if match {
			fn(t)
		}
	}
}
