package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

func imageSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
}

// randomImageRow draws from a small domain, so that updates often move
// a row's key (k) and often restore a tid's earlier values.
func randomImageRow(rng *rand.Rand) []relation.Value {
	price := relation.Float(float64(rng.Intn(3)))
	if rng.Intn(6) == 0 {
		price = relation.TypedNull(relation.TFloat)
	}
	return []relation.Value{relation.Int(int64(rng.Intn(2))), relation.Str([]string{"a", "b"}[rng.Intn(2)]), price}
}

// randomHistory commits a random history over eight tids written with
// InsertWithTID, so a deleted tid is inserted again in a later commit,
// and returns the timestamps the store read before and after each
// commit.
func randomHistory(t *testing.T, rng *rand.Rand, s *Store) []vclock.Timestamp {
	t.Helper()
	live := map[relation.TID]bool{}
	marks := []vclock.Timestamp{s.Now()}
	for c := 0; c < 2+rng.Intn(7); c++ {
		tx := s.Begin()
		for op := 0; op < 1+rng.Intn(5); op++ {
			tid := relation.TID(1 + rng.Intn(8))
			var err error
			switch {
			case !live[tid]:
				if _, pending := tx.pendingRow("t", tid); pending {
					continue // deleted in this tx: re-inserting is a fresh op
				}
				err = tx.InsertWithTID("t", tid, randomImageRow(rng))
				live[tid] = true
			case rng.Intn(3) == 0:
				err = tx.Delete("t", tid)
				live[tid] = false
			default:
				err = tx.Update("t", tid, randomImageRow(rng))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		marks = append(marks, mustCommit(t, tx))
	}
	return marks
}

// sameImage reports where two ordered signed batches differ: tids,
// signs, timestamps and every column, row by row.
func sameImage(got, want *batch.Batch) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.TIDs[i] != want.TIDs[i] || got.Signs[i] != want.Signs[i] || got.TS[i] != want.TS[i] {
			return fmt.Errorf("row %d: tid/sign/ts %d/%d/%d, want %d/%d/%d", i,
				got.TIDs[i], got.Signs[i], got.TS[i], want.TIDs[i], want.Signs[i], want.TS[i])
		}
		for c := range got.Cols {
			if g, w := got.Value(i, c), want.Value(i, c); !g.Equal(w) || g.Null != w.Null {
				return fmt.Errorf("row %d col %d: %v, want %v", i, c, g, w)
			}
		}
	}
	return nil
}

// TestWindowImageMatchesRowFormProperty: over random windows — several
// commits, key-moving updates, insert and delete of one tid inside the
// window, modifications back to the original values, tid reuse across
// commits — the store's one-pass image equals the row-form reference,
// DeltaSince windowed, Compact()ed and converted with FromDelta, for
// both compact settings. A compacted image also carries the window's
// net effect: replayed onto the state at from, it gives the state at to.
func TestWindowImageMatchesRowFormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		s := NewStore()
		if err := s.CreateTable("t", imageSchema()); err != nil {
			t.Fatal(err)
		}
		marks := randomHistory(t, rng, s)
		i := rng.Intn(len(marks))
		j := i + rng.Intn(len(marks)-i)
		from, to := marks[i], marks[j]
		for _, compact := range []bool{false, true} {
			img, err := s.WindowImage("t", from, to, compact)
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.DeltaSince("t", from)
			if err != nil {
				t.Fatal(err)
			}
			w := d.Window(from, to)
			if compact {
				w = w.Compact()
			}
			ref, ok := batch.FromDelta(nil, w)
			if !ok {
				t.Fatal("reference window unrepresentable")
			}
			if err := sameImage(img, ref); err != nil {
				t.Fatalf("trial %d (%d, %d] compact=%v: %v\nwindow: %+v", trial, from, to, compact, err, d.Window(from, to).Rows())
			}
			if !compact {
				continue
			}
			net, err := img.ToDeltaOrdered()
			if err != nil {
				t.Fatal(err)
			}
			pre, err := s.SnapshotAt("t", from)
			if err != nil {
				t.Fatal(err)
			}
			post, err := s.SnapshotAt("t", to)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Apply(pre); err != nil {
				t.Fatalf("trial %d: replaying the compacted image: %v", trial, err)
			}
			if !pre.EqualByTID(post) {
				t.Fatalf("trial %d (%d, %d]: compacted image does not carry the window's net effect", trial, from, to)
			}
		}
	}
}

// TestCommittedValuesAreTheStoresOwn: the write boundary's copy shields
// the store from the caller. Writing the slice passed to Insert or
// Update, after the call or after the commit, changes nothing the store
// already holds or hands out: its contents, a reconstruction at an
// earlier timestamp, a cached image, DeltaSince, and the logged record.
func TestCommittedValuesAreTheStoresOwn(t *testing.T) {
	s := newStockStore(t)
	sink := &recSink{}
	s.SetWALSink(sink)
	t0 := s.Now()

	ins := sv("DEC", 150)
	tx := s.Begin()
	tid, err := tx.Insert("stocks", ins)
	if err != nil {
		t.Fatal(err)
	}
	ins[1] = relation.Float(-1) // after Insert
	t1 := mustCommit(t, tx)
	ins[0] = relation.Str("after commit")

	upd := sv("DEC", 160)
	tx = s.Begin()
	if err := tx.Update("stocks", tid, upd); err != nil {
		t.Fatal(err)
	}
	upd[1] = relation.Float(-2) // after Update
	t2 := mustCommit(t, tx)
	c := s.NewWindowCache()
	img, err := c.WindowBatch("stocks", t0, t2, false)
	if err != nil {
		t.Fatal(err)
	}
	upd[0] = relation.Str("after commit")

	check := func(what string, got []relation.Value, want float64) {
		t.Helper()
		if got[0].AsString() != "DEC" || got[1].AsFloat() != want {
			t.Errorf("%s = %v, want DEC %v", what, got, want)
		}
	}
	snap, err := s.Snapshot("stocks")
	if err != nil {
		t.Fatal(err)
	}
	tu, _ := snap.Lookup(tid)
	check("Snapshot", tu.Values, 160)
	at, err := s.At(t1).Relation("stocks")
	if err != nil {
		t.Fatal(err)
	}
	tu, _ = at.Lookup(tid)
	check("At(t1)", tu.Values, 150)
	vals := make([]relation.Value, 2)
	for i, want := range []float64{150, 150, 160} { // +150, then -150 +160
		img.ReadRow(i, vals)
		check(fmt.Sprintf("image row %d", i), vals, want)
	}
	d, err := s.DeltaSince("stocks", t0)
	if err != nil {
		t.Fatal(err)
	}
	check("DeltaSince insert", d.Rows()[0].New, 150)
	check("DeltaSince modify old", d.Rows()[1].Old, 150)
	check("DeltaSince modify new", d.Rows()[1].New, 160)
	check("logged insert", sink.txs[0][0].Row.New, 150)
	check("logged modify old", sink.txs[1][0].Row.Old, 150)
	check("logged modify new", sink.txs[1][0].Row.New, 160)
}

// renderImage prints an image for before/after comparison.
func renderImage(b *batch.Batch) string {
	var sb strings.Builder
	for i := 0; i < b.Len(); i++ {
		fmt.Fprintf(&sb, "%d %+d %d", b.TIDs[i], b.Signs[i], b.TS[i])
		for c := range b.Cols {
			fmt.Fprintf(&sb, " %v", b.Value(i, c))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSharedWindowsOutliveGCAndLaterCommits: images and row-form
// windows share the committed values of the live log. Taken before the
// log is collected and before later commits modify and delete the same
// tids, they read exactly the same afterwards.
func TestSharedWindowsOutliveGCAndLaterCommits(t *testing.T) {
	s := newStockStore(t)
	t0 := s.Now()
	var tids []relation.TID
	tx := s.Begin()
	for i := 0; i < 4; i++ {
		tid, err := tx.Insert("stocks", sv(fmt.Sprintf("S%d", i), float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	mustCommit(t, tx)
	tx = s.Begin()
	for i, tid := range tids[:2] {
		if err := tx.Update("stocks", tid, sv(fmt.Sprintf("S%d", i), float64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	var before []string
	render := func() []string {
		var out []string
		for _, compact := range []bool{false, true} {
			img, err := c.WindowBatch("stocks", t0, t1, compact)
			if err != nil {
				t.Fatal(err)
			}
			w, err := c.Window("stocks", t0, t1, compact)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, renderImage(img), fmt.Sprint(w.Rows()))
		}
		return out
	}
	before = render()
	d, err := s.DeltaSince("stocks", t0)
	if err != nil {
		t.Fatal(err)
	}
	deltaBefore := fmt.Sprint(d.Rows())

	// A commit to the same tids, a collection that shifts its rows to
	// the front of the log — over the very row storage a window sharing
	// it would read — and a commit appended behind them.
	tx = s.Begin()
	for i, tid := range tids[:2] {
		var err error
		if i%2 == 0 {
			err = tx.Update("stocks", tid, sv("moved", 99))
		} else {
			err = tx.Delete("stocks", tid)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	s.CollectGarbage(t1)
	tx = s.Begin()
	if err := tx.Update("stocks", tids[0], sv("again", 7)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	after := render() // served from the cache: the store has collected them
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("window %d changed under GC and later commits:\nbefore %s\nafter  %s", i, before[i], after[i])
		}
	}
	if got := fmt.Sprint(d.Rows()); got != deltaBefore {
		t.Errorf("DeltaSince result changed:\nbefore %s\nafter  %s", deltaBefore, got)
	}
}

// TestWindowImageAllocsDoNotGrowWithRows: the image of a single-commit
// window is a fixed number of allocations, whatever its row count —
// its columns are sized once and the fold's scratch is reused — raw or
// compacted.
func TestWindowImageAllocsDoNotGrowWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	allocs := func(rows int, compact bool) float64 {
		s := newStockStore(t)
		t0 := s.Now()
		tx := s.Begin()
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert("stocks", sv("S", float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		t1 := mustCommit(t, tx)
		return testing.AllocsPerRun(50, func() {
			if _, err := s.WindowImage("stocks", t0, t1, compact); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, compact := range []bool{false, true} {
		small, large := allocs(64, compact), allocs(1024, compact)
		if small != large {
			t.Errorf("compact=%v: a 64-row image costs %v allocations, a 1,024-row one %v", compact, small, large)
		}
	}
}

// TestUpdateCommitAllocsPerRow: a committed modification keeps its new
// values in one slice — the write boundary's copy, which the base
// relation and the differential row share, with the row's Old aliasing
// the value it replaces — so a commit of Tx.Update costs at most one
// allocation per row beyond what does not grow with the row count.
func TestUpdateCommitAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	allocs := func(rows int) float64 {
		s := newStockStore(t)
		tx := s.Begin()
		tids := make([]relation.TID, rows)
		for i := range tids {
			var err error
			if tids[i], err = tx.Insert("stocks", sv("S", float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		vals := sv("S", 0)
		price := 0.0
		return testing.AllocsPerRun(20, func() {
			tx := s.Begin()
			for _, tid := range tids {
				price++
				vals[1] = relation.Float(price)
				if err := tx.Update("stocks", tid, vals); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
			s.CollectGarbage(s.Now())
		})
	}
	small, large := allocs(64), allocs(128)
	if perRow := (large - small) / 64; perRow > 1.2 {
		t.Errorf("a Tx.Update commit costs %.2f allocations per row (64 rows: %v, 128 rows: %v), want at most one slice per row",
			perRow, small, large)
	}
}

// TestTableImageIsTheStateAtTS: over random histories — key-moving
// updates, insert and delete of one tid between two timestamps,
// modifications back to earlier values, tid reuse across commits —
// the table image as of every timestamp holds exactly the rows
// SnapshotAt reconstructs, each once and signed +1; the cache's shared
// image is the same, and an image below the low water fails like a
// window.
func TestTableImageIsTheStateAtTS(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		s := NewStore()
		if err := s.CreateTable("t", imageSchema()); err != nil {
			t.Fatal(err)
		}
		marks := randomHistory(t, rng, s)
		cache := s.NewWindowCache()
		for _, ts := range marks {
			want, err := s.SnapshotAt("t", ts)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []HistoricView{s.At(ts), cache.At(ts)} {
				img, err := src.TableImage("t")
				if err != nil {
					t.Fatal(err)
				}
				got := relation.New(want.Schema())
				for i := 0; i < img.Len(); i++ {
					vals := make([]relation.Value, img.Schema.Len())
					img.ReadRow(i, vals)
					if img.Signs[i] != +1 {
						t.Fatalf("trial %d ts %d: row sign %d", trial, ts, img.Signs[i])
					}
					if err := got.Insert(relation.Tuple{TID: img.TIDs[i], Values: vals}); err != nil {
						t.Fatalf("trial %d ts %d: %v", trial, ts, err)
					}
				}
				if !got.EqualByTID(want) {
					t.Fatalf("trial %d ts %d:\nimage:\n%s\nsnapshot:\n%s", trial, ts, got, want)
				}
			}
		}
		if last := marks[len(marks)-1]; last > marks[0] {
			s.CollectGarbage(last)
			if _, err := s.TableImage("t", last-1); !errors.Is(err, ErrStaleWindow) {
				t.Fatalf("trial %d: image below the low water: %v, want ErrStaleWindow", trial, err)
			}
		}
	}
}
