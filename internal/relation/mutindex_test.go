package relation

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSlotIndexMatchesModel drives a SlotIndex and a map model through a
// random insert/move/delete history — few distinct hashes, so chains grow
// long, buckets are shared between hashes, and the table rehashes
// several times — and checks every hash's slot set after each step.
func TestSlotIndexMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ix SlotIndex
	model := map[int32]uint64{} // slot → hash
	hashes := []uint64{0, 1, 2, 1 << 40, ^uint64(0), 0x9E3779B97F4A7C15}
	for step := 0; step < 4000; step++ {
		slot := int32(rng.Intn(600))
		if _, ok := model[slot]; ok && rng.Intn(3) == 0 {
			h := hashes[rng.Intn(len(hashes))] // sometimes the hash it already has
			ix.Move(slot, h)
			model[slot] = h
		} else if ok {
			ix.Delete(slot)
			delete(model, slot)
		} else {
			h := hashes[rng.Intn(len(hashes))]
			ix.Insert(slot, h)
			model[slot] = h
		}
		if ix.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, ix.Len(), len(model))
		}
		if step%97 != 0 {
			continue
		}
		for _, h := range hashes {
			var got, want []int
			for s := ix.First(h); s >= 0; s = ix.Next(s) {
				got = append(got, int(s))
			}
			for s, mh := range model {
				if mh == h {
					want = append(want, int(s))
				}
			}
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("step %d hash %x: got %v want %v", step, h, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d hash %x: got %v want %v", step, h, got, want)
				}
			}
		}
	}
}

// TestSlotIndexProbeOrderDeterministic: the same history yields the same
// probe order, newest insertion first.
func TestSlotIndexProbeOrderDeterministic(t *testing.T) {
	build := func() []int32 {
		var ix SlotIndex
		for s := int32(0); s < 40; s++ {
			ix.Insert(s, uint64(s%3))
		}
		ix.Delete(9)
		ix.Insert(9, 0)
		var order []int32
		for s := ix.First(0); s >= 0; s = ix.Next(s) {
			order = append(order, s)
		}
		return order
	}
	a, b := build(), build()
	if len(a) != 14 || a[0] != 9 {
		t.Fatalf("probe order = %v, want 14 slots led by the re-inserted 9", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe order differs between identical histories: %v vs %v", a, b)
		}
	}
}

func keyed(tid TID, k string, v int64) Tuple {
	return Tuple{TID: tid, Values: []Value{Str(k), Int(v)}}
}

func probeTIDs(ix *MutableIndex, key ...Value) []int {
	var out []int
	ix.ProbeEach(key, func(t Tuple) { out = append(out, int(t.TID)) })
	sort.Ints(out)
	return out
}

func TestMutableIndexAddRemoveProbe(t *testing.T) {
	ix := NewMutableIndex([]int{0})
	ix.Add(keyed(1, "a", 10))
	ix.Add(keyed(2, "a", 20))
	ix.Add(keyed(3, "b", 30))
	if got := probeTIDs(ix, Str("a")); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("probe a = %v", got)
	}
	if got := ix.Probe([]Value{Str("b")}); len(got) != 1 || got[0].Values[1].AsInt() != 30 {
		t.Fatalf("probe b = %v", got)
	}
	// Same tid under the same key replaces in place.
	ix.Add(keyed(1, "a", 11))
	if ix.Len() != 3 {
		t.Fatalf("Len after replace = %d, want 3", ix.Len())
	}
	// A key-moving update is Remove(old) then Add(new).
	ix.Remove(keyed(2, "a", 20))
	ix.Add(keyed(2, "b", 20))
	if got := probeTIDs(ix, Str("a")); len(got) != 1 || got[0] != 1 {
		t.Fatalf("probe a after move = %v", got)
	}
	if got := probeTIDs(ix, Str("b")); len(got) != 2 {
		t.Fatalf("probe b after move = %v", got)
	}
	ix.Remove(keyed(7, "zzz", 0)) // absent: no-op
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
}

// TestMutableIndexSlotReuse: a removed tuple's slot is reused by the next
// Add without the old tuple ever matching again.
func TestMutableIndexSlotReuse(t *testing.T) {
	ix := NewMutableIndex([]int{0})
	for i := 0; i < 8; i++ {
		ix.Add(keyed(TID(i+1), "k", int64(i)))
	}
	slots := len(ix.slots)
	ix.Remove(keyed(3, "k", 2))
	ix.Add(keyed(99, "other", 0))
	if len(ix.slots) != slots {
		t.Fatalf("slot array grew to %d: the freed slot was not reused", len(ix.slots))
	}
	for _, tid := range probeTIDs(ix, Str("k")) {
		if tid == 3 {
			t.Fatal("removed tid 3 resurrected under its old key")
		}
		if tid == 99 {
			t.Fatal("tid 99 answers under the key of the slot's previous tenant")
		}
	}
	if got := probeTIDs(ix, Str("other")); len(got) != 1 || got[0] != 99 {
		t.Fatalf("probe other = %v", got)
	}
}

// TestMutableIndexHashCollision: two distinct composite keys engineered
// to collide under HashValues share a chain but never match each other.
// The string encoding writes (kind, bytes..., 0xff) per value, so moving
// the boundary between adjacent strings yields the same byte stream.
func TestMutableIndexHashCollision(t *testing.T) {
	a := []Value{Str("a"), Str("b\xff\x03c")}
	b := []Value{Str("a\xff\x03b"), Str("c")}
	if HashValues(a) != HashValues(b) {
		t.Fatal("fixture keys no longer collide; rebuild them against the current HashValues encoding")
	}
	ix := NewMutableIndex([]int{0, 1})
	ix.Add(Tuple{TID: 1, Values: a})
	ix.Add(Tuple{TID: 2, Values: b})
	if got := ix.Probe(a); len(got) != 1 || got[0].TID != 1 {
		t.Fatalf("probe a = %v, want only tid 1", got)
	}
	if got := ix.Probe(b); len(got) != 1 || got[0].TID != 2 {
		t.Fatalf("probe b = %v, want only tid 2", got)
	}
	// Remove walks the shared chain by tid: taking tid 2 out under its
	// colliding key must leave tid 1 alone.
	ix.Remove(Tuple{TID: 2, Values: b})
	if got := ix.Probe(a); len(got) != 1 || got[0].TID != 1 || len(ix.Probe(b)) != 0 {
		t.Fatalf("after removing tid 2: probe a = %v, probe b = %v", got, ix.Probe(b))
	}
}

// TestKeyHasherMatchesHashValues: cell-by-cell hashing lands exactly
// where a Value-keyed probe looks.
func TestKeyHasherMatchesHashValues(t *testing.T) {
	vals := []Value{Int(-7), Float(2.5), Str("x\xffy"), Bool(true), Bool(false), TypedNull(TInt), NullValue()}
	h := NewKeyHasher()
	h.Int(-7)
	h.Float(2.5)
	h.Str("x\xffy")
	h.Bool(true)
	h.Bool(false)
	h.Null()
	h.Null()
	if h.Sum() != HashValues(vals) {
		t.Fatalf("KeyHasher %x != HashValues %x", h.Sum(), HashValues(vals))
	}
}
