package dra

import (
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
)

func pairSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "x", Type: relation.TString},
		relation.Column{Name: "y", Type: relation.TString},
	)
}

// srow is one signed row of a hand-built operand delta.
type srow struct {
	tid  relation.TID
	sign int8
	vals []relation.Value
}

func signedBatch(schema relation.Schema, rows ...srow) *batch.Batch {
	b := batch.New(schema, len(rows))
	for _, r := range rows {
		b.AppendRow(r.tid, r.sign, r.vals)
	}
	return b
}

func strs(x, y string) []relation.Value { return []relation.Value{relation.Str(x), relation.Str(y)} }

// probeSlots walks the replica's index on cols for a key, verifying
// candidates against the columns exactly as hashStepVec does.
func probeSlots(r *replica, cols []int, key ...relation.Value) []relation.TID {
	var st Stats
	ix := r.index(cols, &st)
	probe := batch.New(r.t.Rows().Schema.Project(cols), 1)
	probe.AppendRow(0, +1, key)
	pcols := make([]int, len(cols))
	for i := range pcols {
		pcols[i] = i
	}
	var out []relation.TID
	for s := ix.First(probe.HashKey(0, pcols)); s >= 0; s = ix.Next(s) {
		if r.t.Rows().KeyEqual(int(s), cols, probe, 0, pcols) {
			out = append(out, r.t.Rows().TIDs[s])
		}
	}
	return out
}

// TestReplicaSlotReuse: a delete frees its slot into a hole, the next
// insert lands in that hole, and nothing of the old tenant survives —
// not its tid, not its place in any index chain. A key-moving
// modification (-old +new in one window) keeps its slot.
func TestReplicaSlotReuse(t *testing.T) {
	rows := batch.New(pairSchema(), 4)
	for i, k := range []string{"a", "b", "c", "d"} {
		rows.AppendRow(relation.TID(i+1), +1, strs(k, "v"))
	}
	r := &replica{t: batch.TableOf(rows)}
	key := []int{0}
	if got := probeSlots(r, key, relation.Str("b")); len(got) != 1 || got[0] != 2 {
		t.Fatalf("probe b = %v", got)
	}
	slotB := r.t.Slot(2)

	r.apply(signedBatch(pairSchema(), srow{2, -1, strs("b", "v")}))
	if r.t.Len() != 3 || r.t.Slot(2) != -1 || r.t.Rows().Signs[slotB] != 0 || r.t.Rows().Len() != 4 {
		t.Fatalf("after delete: live=%d Slot(2)=%d sign=%d slots=%d", r.t.Len(), r.t.Slot(2), r.t.Rows().Signs[slotB], r.t.Rows().Len())
	}
	if got := probeSlots(r, key, relation.Str("b")); len(got) != 0 {
		t.Fatalf("deleted row still answers its key: %v", got)
	}

	r.apply(signedBatch(pairSchema(), srow{9, +1, strs("z", "w")}))
	if r.t.Slot(9) != slotB || r.t.Rows().Len() != 4 || r.t.Len() != 4 {
		t.Fatalf("insert took slot %d (rows %d), want the freed slot %d", r.t.Slot(9), r.t.Rows().Len(), slotB)
	}
	if r.t.Slot(2) != -1 || len(probeSlots(r, key, relation.Str("b"))) != 0 {
		t.Fatal("reusing the slot resurrected the old tid")
	}
	if got := probeSlots(r, key, relation.Str("z")); len(got) != 1 || got[0] != 9 {
		t.Fatalf("probe z = %v", got)
	}

	// Key-moving modification: out of chain "a", into chain "z", same slot.
	slotA := r.t.Slot(1)
	r.apply(signedBatch(pairSchema(), srow{1, -1, strs("a", "v")}, srow{1, +1, strs("z", "moved")}))
	if r.t.Slot(1) != slotA || r.t.Len() != 4 {
		t.Fatalf("modified row moved to slot %d (live %d), want slot %d", r.t.Slot(1), r.t.Len(), slotA)
	}
	if got := probeSlots(r, key, relation.Str("a")); len(got) != 0 {
		t.Fatalf("old key still matches after the move: %v", got)
	}
	if got := probeSlots(r, key, relation.Str("z")); len(got) != 2 {
		t.Fatalf("probe z after the move = %v, want tids 1 and 9", got)
	}
	if lb := r.liveBatch(nil); lb.Len() != 4 {
		t.Fatalf("live batch has %d rows, want the 4 live ones", lb.Len())
	}
}

// TestFlatIndexHashCollision joins on a composite key whose two values
// are engineered to collide under the key hash (see collidingRows): the
// colliding rows share an index chain in both replicas, and only the
// column-by-column verification keeps them from joining — under the
// telescoping kernel (replica indexes) and Algorithm 1's truth table
// (transient indexes over the pre-state) alike.
func TestFlatIndexHashCollision(t *testing.T) {
	a, b := collidingRows()
	if relation.HashValues(a) != relation.HashValues(b) {
		t.Fatal("fixture rows no longer collide; rebuild them against the current HashValues encoding")
	}
	for _, strat := range []string{"incremental", "truth-table"} {
		f := newFixture(t, map[string]relation.Schema{"l": pairSchema(), "r": pairSchema()})
		f.insert(t, "l", a)
		f.insert(t, "r", b)
		plan := f.plan(t, "SELECT * FROM l JOIN r ON l.x = r.x AND l.y = r.y")
		p := subjectFor(t, NewEngine(), plan, strat)
		prev, err := InitialResult(plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		f.mark()
		// Another colliding pair arrives on each side: still no match.
		f.insert(t, "l", b)
		f.insert(t, "r", a)
		res, prev := stepPrepared(t, f, p, plan, prev)
		if n := res.Delta.Insertions().Len(); n != 2 {
			t.Fatalf("%v: %d joined rows, want 2 (a-a and b-b, never a-b)", strat, n)
		}
		// And one leaves: exactly its own pairing goes.
		tx := f.store.Begin()
		live, _ := f.store.Contents("l")
		for _, tup := range live.Tuples() {
			if sameValues(tup.Values, a) {
				if err := tx.Delete("l", tup.TID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		res, _ = stepPrepared(t, f, p, plan, prev)
		if n := res.Delta.Deletions().Len(); n != 1 {
			t.Fatalf("%v: %d rows left the result, want 1", strat, n)
		}
	}
}

// TestSelectiveLeftConjunct is the regression test for an AND whose
// left conjunct selects no row of the window: the empty selection used
// to reach the right conjunct as "all rows", admitting rows that fail
// the left one — on the selection path and in a join operand's filter.
func TestSelectiveLeftConjunct(t *testing.T) {
	quotes := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "sector", Type: relation.TInt},
		relation.Column{Name: "px", Type: relation.TFloat},
	)
	for _, q := range []string{
		"SELECT * FROM quotes WHERE sector = 1 AND px > 220",
		"SELECT q.sym, t.volume FROM quotes q JOIN trades t ON q.sym = t.sym WHERE q.sector = 1 AND q.px > 220",
	} {
		f := newFixture(t, map[string]relation.Schema{"quotes": quotes, "trades": tradeSchema()})
		f.insert(t, "quotes",
			[]relation.Value{relation.Str("A"), relation.Int(1), relation.Float(300)},
			[]relation.Value{relation.Str("B"), relation.Int(2), relation.Float(100)},
		)
		f.insert(t, "trades",
			[]relation.Value{relation.Str("A"), relation.Int(10)},
			[]relation.Value{relation.Str("C"), relation.Int(30)},
		)
		plan := f.plan(t, q)
		p, err := NewEngine().Prepare(plan, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := InitialResult(plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		f.mark()
		// A window in which no row has sector = 1 but every row has
		// px > 220: nothing may enter the result.
		f.insert(t, "quotes",
			[]relation.Value{relation.Str("C"), relation.Int(3), relation.Float(500)},
			[]relation.Value{relation.Str("D"), relation.Int(2), relation.Float(900)},
		)
		res, _ := stepPrepared(t, f, p, plan, prev)
		if res.Delta.Len() != 0 {
			t.Errorf("%s: rows failing sector = 1 entered the result: %+v", q, res.Delta.Rows())
		}
		p.Close()
	}
}
