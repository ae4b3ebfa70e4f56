package delta

import (
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/relation"
)

func TestToSignedDecomposesModifications(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendInsert(1, row(1, "A", 10), 1)
	_ = d.AppendDelete(2, row(2, "B", 20), 2)
	_ = d.AppendModify(3, row(3, "C", 30), row(3, "C", 31), 3)

	s := d.ToSigned()
	if s.Len() != 4 {
		t.Fatalf("signed len = %d, want 4", s.Len())
	}
	pos, neg := 0, 0
	for _, r := range s.Rows {
		if r.Sign > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos != 2 || neg != 2 {
		t.Errorf("signs = +%d/-%d, want +2/-2", pos, neg)
	}
}

func TestNormalizeCancelsOppositePairs(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	v := row(1, "A", 10)
	s.Rows = append(s.Rows,
		SignedRow{TID: 1, Values: v, Sign: +1},
		SignedRow{TID: 1, Values: v, Sign: -1},
		SignedRow{TID: 2, Values: row(2, "B", 20), Sign: +1},
	)
	n := s.Normalize()
	if n.Len() != 1 {
		t.Fatalf("Normalize len = %d, want 1", n.Len())
	}
	if n.Rows[0].Values[1].AsString() != "B" || n.Rows[0].Sign != 1 {
		t.Errorf("surviving row wrong: %+v", n.Rows[0])
	}
}

func TestNormalizeKeepsMultiplicity(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	v := row(1, "A", 10)
	s.Rows = append(s.Rows,
		SignedRow{TID: 1, Values: v, Sign: -1},
		SignedRow{TID: 1, Values: v, Sign: -1},
		SignedRow{TID: 1, Values: v, Sign: +1},
	)
	n := s.Normalize()
	if n.Len() != 1 || n.Rows[0].Sign != -1 {
		t.Fatalf("net count should be -1, got %+v", n.Rows)
	}
}

func TestToDeltaPairsIntoModification(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	s.Rows = append(s.Rows,
		SignedRow{TID: 5, Values: row(5, "E", 50), Sign: -1},
		SignedRow{TID: 5, Values: row(5, "E", 55), Sign: +1},
		SignedRow{TID: 6, Values: row(6, "F", 60), Sign: +1},
	)
	d := s.ToDelta(9)
	ins, del, mod := d.Counts()
	if ins != 1 || del != 0 || mod != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 1/0/1", ins, del, mod)
	}
	for _, r := range d.Rows() {
		if r.TS != 9 {
			t.Errorf("row ts = %d, want 9", r.TS)
		}
	}
}

func TestToDeltaDropsNoopPairs(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	v := row(7, "G", 70)
	s.Rows = append(s.Rows,
		SignedRow{TID: 7, Values: v, Sign: -1},
		SignedRow{TID: 7, Values: v, Sign: +1},
	)
	if d := s.ToDelta(1); d.Len() != 0 {
		t.Errorf("no-op pair should vanish, got %d rows", d.Len())
	}
}

func TestApplySignedMaintainsResult(t *testing.T) {
	res := relation.New(stockSchema())
	_ = res.Insert(relation.Tuple{TID: 1, Values: row(1, "A", 10)})
	_ = res.Insert(relation.Tuple{TID: 2, Values: row(2, "B", 20)})

	s := &Signed{Schema: stockSchema()}
	s.Rows = append(s.Rows,
		SignedRow{TID: 1, Values: row(1, "A", 10), Sign: -1}, // remove A
		SignedRow{TID: 3, Values: row(3, "C", 30), Sign: +1}, // add C
		SignedRow{TID: 2, Values: row(2, "B", 25), Sign: +1}, // replace B
	)
	ApplySigned(res, s)
	if res.Len() != 2 || res.Has(1) {
		t.Fatalf("ApplySigned result wrong:\n%s", res)
	}
	b, _ := res.Lookup(2)
	if b.Values[2].AsFloat() != 25 {
		t.Error("replacement did not take")
	}
	if !res.Has(3) {
		t.Error("insert did not take")
	}
}

func TestSignedRoundTripThroughDelta(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendInsert(1, row(1, "A", 10), 1)
	_ = d.AppendModify(2, row(2, "B", 20), row(2, "B", 21), 2)
	_ = d.AppendDelete(3, row(3, "C", 30), 3)

	rt := d.ToSigned().ToDelta(5)
	ins, del, mod := rt.Counts()
	if ins != 1 || del != 1 || mod != 1 {
		t.Fatalf("round trip counts = %d/%d/%d", ins, del, mod)
	}
}

func TestInsertedDeletedRelations(t *testing.T) {
	d := New(stockSchema())
	_ = d.AppendInsert(1, row(1, "A", 10), 1)
	_ = d.AppendModify(2, row(2, "B", 20), row(2, "B", 21), 2)
	s := d.ToSigned()
	ins := s.InsertedRelation()
	del := s.DeletedRelation()
	if ins.Len() != 2 || del.Len() != 1 {
		t.Fatalf("inserted=%d deleted=%d, want 2/1", ins.Len(), del.Len())
	}
}

// ToDeltaNetted edge cases. The netted fast path assumes each tid
// appears as an adjacent run of at most one -1 row then at most one +1
// row — the shape the engine's netting emits — and must agree with the
// general ToDelta on every input of that shape.

func TestToDeltaNettedEmptyWindow(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	d := s.ToDeltaNetted(3)
	if d.Len() != 0 {
		t.Fatalf("empty window produced %d rows", d.Len())
	}
	if got := d.Schema(); !got.TypesEqual(stockSchema()) {
		t.Fatalf("empty conversion lost the schema: %v", got)
	}
}

// TestToDeltaNettedCancellingPair: a -1/+1 run with identical values is
// a refresh that re-derived the same tuple — it must vanish rather than
// surface as a no-op modification (a downstream cascade would otherwise
// commit it, tick the clock, and wake its readers for nothing).
func TestToDeltaNettedCancellingPair(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	v := row(7, "G", 70)
	s.Rows = append(s.Rows,
		SignedRow{TID: 7, Values: v, Sign: -1},
		SignedRow{TID: 7, Values: v, Sign: +1},
	)
	if d := s.ToDeltaNetted(1); d.Len() != 0 {
		t.Fatalf("cancelling pair should vanish, got %d rows", d.Len())
	}
	// Fully-cancelling window: every tid a no-op pair.
	s.Rows = append(s.Rows,
		SignedRow{TID: 8, Values: row(8, "H", 80), Sign: -1},
		SignedRow{TID: 8, Values: row(8, "H", 80), Sign: +1},
	)
	if d := s.ToDeltaNetted(1); d.Len() != 0 {
		t.Fatalf("fully-cancelling window should vanish, got %d rows", d.Len())
	}
}

func TestToDeltaNettedPairsAndSingles(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	s.Rows = append(s.Rows,
		SignedRow{TID: 1, Values: row(1, "A", 10), Sign: -1}, // lone delete
		SignedRow{TID: 2, Values: row(2, "B", 20), Sign: -1}, // modify pair...
		SignedRow{TID: 2, Values: row(2, "B", 25), Sign: +1},
		SignedRow{TID: 3, Values: row(3, "C", 30), Sign: +1}, // lone insert
	)
	d := s.ToDeltaNetted(4)
	ins, del, mod := d.Counts()
	if ins != 1 || del != 1 || mod != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 1/1/1", ins, del, mod)
	}
	for _, r := range d.Rows() {
		if r.TS != 4 {
			t.Errorf("row ts = %d, want 4", r.TS)
		}
	}
	// The netted fast path and the general pairing must agree.
	if want := s.ToDelta(4); !relEq(d, want) {
		t.Fatalf("netted %v != general %v", d.Rows(), want.Rows())
	}
}

// TestToDeltaNettedDuplicateTIDResubmission: a tid resubmitted as two
// non-adjacent +1 runs (a delete-then-reinsert split across the window
// by an interleaved tid) is outside the netted contract for PAIRING,
// but every row must still be preserved — the conversion may emit two
// rows for the tid, never drop one.
func TestToDeltaNettedDuplicateTIDResubmission(t *testing.T) {
	s := &Signed{Schema: stockSchema()}
	s.Rows = append(s.Rows,
		SignedRow{TID: 5, Values: row(5, "E", 50), Sign: -1},
		SignedRow{TID: 9, Values: row(9, "I", 90), Sign: +1}, // interleaver
		SignedRow{TID: 5, Values: row(5, "E", 55), Sign: +1}, // resubmission
	)
	d := s.ToDeltaNetted(2)
	if d.Len() != 3 {
		t.Fatalf("resubmission dropped rows: %v", d.Rows())
	}
	var sawDel, sawIns bool
	for _, r := range d.Rows() {
		if r.TID == 5 && r.Kind() == Delete {
			sawDel = true
		}
		if r.TID == 5 && r.Kind() == Insert && r.New[2].AsFloat() == 55 {
			sawIns = true
		}
	}
	if !sawDel || !sawIns {
		t.Fatalf("resubmitted tid lost a half: %v", d.Rows())
	}
	// Adjacent duplicate +1 runs for one tid: the second must survive as
	// its own insert, not be swallowed by the first pairing.
	s2 := &Signed{Schema: stockSchema()}
	s2.Rows = append(s2.Rows,
		SignedRow{TID: 6, Values: row(6, "F", 60), Sign: +1},
		SignedRow{TID: 6, Values: row(6, "F", 65), Sign: +1},
	)
	d2 := s2.ToDeltaNetted(2)
	if d2.Len() != 2 {
		t.Fatalf("duplicate +1 resubmission collapsed: %v", d2.Rows())
	}
}

// relEq compares two deltas row-by-row ignoring order.
func relEq(a, b *Delta) bool {
	if a.Len() != b.Len() {
		return false
	}
	used := make([]bool, b.Len())
	for _, ra := range a.Rows() {
		found := false
		for j, rb := range b.Rows() {
			if used[j] || ra.TID != rb.TID || ra.Kind() != rb.Kind() || ra.TS != rb.TS {
				continue
			}
			used[j] = true
			found = true
			break
		}
		if !found {
			return false
		}
	}
	return true
}

// TestApplySignedInPlaceMatchesDeleteThenInsert: on netted signed deltas
// — each tid once, as a lone row or an adjacent -old/+new pair — applying
// in row order with pairs overwritten in place leaves the same tid →
// values set as removing every -1 row's tid and then inserting every +1
// row, and a modified tuple keeps its position.
func TestApplySignedInPlaceMatchesDeleteThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rel := relation.New(stockSchema())
		for tid := relation.TID(1); tid <= 10; tid++ {
			if rng.Intn(3) > 0 {
				_ = rel.Insert(relation.Tuple{TID: tid, Values: row(int64(tid), "S", float64(rng.Intn(50)))})
			}
		}
		s := &Signed{Schema: stockSchema()}
		paired := map[relation.TID]bool{}
		for _, tid := range rng.Perm(14) {
			tid := relation.TID(tid + 1)
			old, present := rel.Lookup(tid)
			now := row(int64(tid), "S", float64(50+rng.Intn(50)))
			switch k := rng.Intn(4); {
			case k == 0:
				// untouched
			case present && k == 1:
				s.Rows = append(s.Rows, SignedRow{TID: tid, Values: old.Values, Sign: -1})
			case present:
				paired[tid] = true
				s.Rows = append(s.Rows,
					SignedRow{TID: tid, Values: old.Values, Sign: -1},
					SignedRow{TID: tid, Values: now, Sign: +1})
			default:
				s.Rows = append(s.Rows, SignedRow{TID: tid, Values: now, Sign: +1})
			}
		}
		want := rel.Clone()
		for _, r := range s.Rows {
			if r.Sign < 0 && want.Has(r.TID) {
				_ = want.Delete(r.TID)
			}
		}
		for _, r := range s.Rows {
			if r.Sign > 0 {
				_ = want.Upsert(relation.Tuple{TID: r.TID, Values: r.Values})
			}
		}
		// Positions of the paired tids, up to the first lone delete: a
		// swap-remove before them may legitimately move a tuple.
		at := map[relation.TID]int{}
		for i, tu := range rel.Tuples() {
			at[tu.TID] = i
		}
		loneDelete := false
		for i, r := range s.Rows {
			if r.Sign < 0 && !(i+1 < len(s.Rows) && s.Rows[i+1].TID == r.TID) {
				loneDelete = true
			}
		}
		ApplySigned(rel, s)
		if !rel.EqualByTID(want) {
			t.Fatalf("trial %d: in-place apply\n%s\ndiffers from delete-then-insert\n%s\ndelta: %+v", trial, rel, want, s.Rows)
		}
		for i, tu := range rel.Tuples() {
			if got, ok := rel.Lookup(tu.TID); !ok || !valuesEqual(got.Values, tu.Values) {
				t.Fatalf("trial %d: tid index out of step at position %d", trial, i)
			}
			if paired[tu.TID] && !loneDelete && at[tu.TID] != i {
				t.Fatalf("trial %d: modified tid %d moved from %d to %d", trial, tu.TID, at[tu.TID], i)
			}
		}
	}
}
