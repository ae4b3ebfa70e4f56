package dra_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// groupMaint is what the aggregate and DISTINCT maintainers share.
type groupMaint interface {
	Step(ctx *dra.Context, execTS vclock.Timestamp) (*dra.Result, error)
	Result() *relation.Relation
	Groups() int
	Close()
}

var groupTableSchema = relation.MustSchema(
	relation.Column{Name: "k", Type: relation.TInt},
	relation.Column{Name: "b", Type: relation.TInt},
	relation.Column{Name: "v", Type: relation.TInt},
	relation.Column{Name: "f", Type: relation.TFloat},
	relation.Column{Name: "s", Type: relation.TString},
)

// groupRow draws a row from domains small enough that groups fill up,
// empty out and come back; v and f are NULL about one time in six.
// Floats are multiples of 0.25, so every sum is exact and the
// maintained result must equal complete re-evaluation bit for bit.
func groupRow(rng *rand.Rand) []relation.Value {
	row := []relation.Value{
		relation.Int(int64(rng.Intn(4))),
		relation.Int(int64(rng.Intn(3))),
		relation.Int(int64(rng.Intn(50) - 10)),
		relation.Float(float64(rng.Intn(400)) / 4),
		relation.Str(fmt.Sprintf("s%d", rng.Intn(3))),
	}
	if rng.Intn(6) == 0 {
		row[2] = relation.TypedNull(relation.TInt)
	}
	if rng.Intn(6) == 0 {
		row[3] = relation.TypedNull(relation.TFloat)
	}
	return row
}

// TestGroupTableTranscriptEquivalence steps the aggregate and DISTINCT
// maintainers beside complete re-evaluation (baseline.Full) over seeded
// histories: every round the reported change must be the one
// delta.Diff finds between the two complete results — same rows, same
// ascending-tid order — and the result maintained from it, the result
// rendered on demand and the group count must match the complete one.
//
// Histories cover groups being born and dying, modifications that move
// a row between groups, a row inserted and deleted inside one window (a
// quiet round of only that must report nothing), NULL arguments,
// COUNT(*) / COUNT(x) / SUM / AVG over int and float columns, the table
// draining to empty — a global aggregate then reports COUNT 0 and SUM
// NULL — and refilling, DISTINCT values held by several rows, and two
// planted rows written with a value of another kind than its column (an
// INT into the FLOAT column, an untyped NULL), which the store's write
// boundary conforms and which, for the DISTINCT over that column, become
// group keys.
func TestGroupTableTranscriptEquivalence(t *testing.T) {
	queries := []string{
		"SELECT k, b, SUM(v) AS sv, COUNT(*) AS n, COUNT(v) AS nv, AVG(v) AS av FROM t GROUP BY k, b",
		"SELECT s, SUM(f) AS sf, AVG(f) AS af, COUNT(f) AS nf FROM t WHERE v > 2 GROUP BY s",
		"SELECT SUM(v) AS sv, COUNT(*) AS n, SUM(f) AS sf, AVG(f) AS af, COUNT(v) AS nv FROM t",
		"SELECT k, SUM(v * 2) AS sv2, AVG(f + 1) AS af1, COUNT(v + b) AS nvb, SUM(NULL) AS z FROM t WHERE b > 0 GROUP BY k",
		"SELECT DISTINCT k, b FROM t",
		"SELECT DISTINCT s, f FROM t WHERE k < 3",
	}
	variants := []struct {
		name    string
		compact bool // engine compacts; false feeds in-window insert+delete to the fold
		image   bool // manager-style prebuilt compacted images
	}{
		{"columnar_images", true, true},
		{"columnar_raw", false, false},
	}
	for qi, q := range queries {
		for _, va := range variants {
			t.Run(fmt.Sprintf("q%d_%s", qi, va.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31*qi + len(va.name))))
				store := storage.NewStore()
				if err := store.CreateTable("t", groupTableSchema); err != nil {
					t.Fatal(err)
				}
				var live []relation.TID
				commit := func(tx *storage.Tx) {
					t.Helper()
					if _, err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				insert := func(tx *storage.Tx, row []relation.Value) relation.TID {
					t.Helper()
					tid, err := tx.Insert("t", row)
					if err != nil {
						t.Fatal(err)
					}
					return tid
				}
				fill := func(n int) {
					tx := store.Begin()
					for i := 0; i < n; i++ {
						live = append(live, insert(tx, groupRow(rng)))
					}
					commit(tx)
				}
				fill(14)

				plan, err := algebra.PlanSQL(q, store.Live())
				if err != nil {
					t.Fatal(err)
				}
				plan = algebra.Optimize(plan)
				reg := obs.NewRegistry()
				eng := dra.NewEngine()
				eng.CompactDeltas = va.compact
				eng.Instrument(reg)
				var maint groupMaint
				if _, distinct := plan.(*algebra.DistinctPlan); distinct {
					maint, err = dra.NewIncrementalDistinct(eng, plan, store.Live())
				} else {
					maint, err = dra.NewIncrementalAggregate(eng, plan, store.Live())
				}
				if err != nil {
					t.Fatal(err)
				}
				full, err := baseline.NewFull(plan, store.Live())
				if err != nil {
					t.Fatal(err)
				}
				prev := maint.Result()
				if !prev.EqualByTID(full.Result()) {
					t.Fatalf("initial results diverge:\n%s\nvs\n%s", prev, full.Result())
				}
				lastTS := store.Now()

				var planted relation.TID
				for round := 0; round < 16; round++ {
					quiet := false
					switch round {
					case 3, 9: // plant: an INT for the FLOAT column, then an untyped NULL
						bad := groupRow(rng)
						bad[3] = relation.Int(7)
						if round == 9 {
							bad[3] = relation.NullValue()
						}
						tx := store.Begin()
						planted = insert(tx, bad)
						commit(tx)
					case 5, 11: // and take it out again
						tx := store.Begin()
						if err := tx.Delete("t", planted); err != nil {
							t.Fatal(err)
						}
						commit(tx)
					case 6: // drain the table
						tx := store.Begin()
						for _, tid := range live {
							if err := tx.Delete("t", tid); err != nil {
								t.Fatal(err)
							}
						}
						commit(tx)
						live = live[:0]
					case 7: // and refill it
						fill(10)
					case 13: // only a row that comes and goes within the window
						quiet = true
					}
					if !quiet && round != 6 {
						for n := 1 + rng.Intn(3); n > 0; n-- {
							tx := store.Begin()
							for op := 1 + rng.Intn(4); op > 0; op-- {
								switch k := rng.Intn(4); {
								case k == 0 || len(live) == 0:
									live = append(live, insert(tx, groupRow(rng)))
								case k == 1:
									i := rng.Intn(len(live))
									if err := tx.Delete("t", live[i]); err != nil {
										t.Fatal(err)
									}
									live = append(live[:i], live[i+1:]...)
								default: // redraws the keys too: the row changes group
									if err := tx.Update("t", live[rng.Intn(len(live))], groupRow(rng)); err != nil {
										t.Fatal(err)
									}
								}
							}
							commit(tx)
						}
					}
					if quiet || rng.Intn(2) == 0 {
						passing := groupRow(rng)
						passing[0], passing[4] = relation.Int(99), relation.Str("passing") // a group of its own
						tx := store.Begin()
						tid := insert(tx, passing)
						commit(tx)
						tx = store.Begin()
						if err := tx.Delete("t", tid); err != nil {
							t.Fatal(err)
						}
						commit(tx)
					}

					ts := store.Now()
					ctx := &dra.Context{
						Pre: store.At(lastTS), Post: store.Live(), LastTS: lastTS,
						Batches:   images(t, store, []string{"t"}, lastTS, ts, va.image),
						Compacted: va.image, Versions: store.ChangeCounts(),
					}
					label := fmt.Sprintf("round %d", round)
					res, err := maint.Step(ctx, ts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := full.Step(store.Live(), ts)
					if err != nil {
						t.Fatal(err)
					}
					dra.AssertSameNet(t, label, want.ToSigned(), res.Delta.ToSigned())
					if len(res.Delta.Rows()) != len(want.Rows()) {
						t.Fatalf("%s: %d delta rows, complete re-evaluation has %d", label, len(res.Delta.Rows()), len(want.Rows()))
					}
					for i, r := range res.Delta.Rows() {
						if w := want.Rows()[i]; r.TID != w.TID || r.Kind() != w.Kind() {
							t.Fatalf("%s: delta row %d is %v of tid %d, delta.Diff has %v of tid %d", label, i, r.Kind(), r.TID, w.Kind(), w.TID)
						}
					}
					if quiet && res.Delta.Len() != 0 {
						t.Fatalf("%s: a row inserted and deleted within the window reported %+v", label, res.Delta.Rows())
					}
					if in := ctx.Batches["t"].Len(); res.Stats.GroupRowsEmitted != res.Delta.ToSigned().Len() || res.Stats.GroupsTouched > in {
						t.Fatalf("%s: stats %+v for %d signed input rows, %d emitted", label, res.Stats, in, res.Delta.ToSigned().Len())
					}
					if same := res.ApplyTo(prev); same != prev {
						t.Fatalf("%s: ApplyTo replaced the caller's result instead of maintaining it", label)
					}
					if !prev.EqualByTID(full.Result()) || !maint.Result().EqualByTID(full.Result()) {
						t.Fatalf("%s: complete results diverge:\nmaintained:\n%s\nrendered:\n%s\ncomplete:\n%s", label, prev, maint.Result(), full.Result())
					}
					if maint.Groups() != full.Result().Len() {
						t.Fatalf("%s: %d groups, complete result has %d rows", label, maint.Groups(), full.Result().Len())
					}
					if round == 6 && qi == 2 {
						if vals := prev.At(0).Values; !vals[0].IsNull() || vals[1].AsInt() != 0 {
							t.Fatalf("drained global aggregate = %v, want SUM NULL and COUNT 0", vals)
						}
					}
					lastTS = ts
				}

				snap := reg.Snapshot()
				if got := snap.Gauge("dra.agg.groups"); got != int64(maint.Groups()) {
					t.Errorf("dra.agg.groups = %d with %d groups held", got, maint.Groups())
				}
				if snap.Counter("dra.agg.rows_folded") == 0 || snap.Counter("dra.agg.groups_touched") == 0 || snap.Counter("dra.agg.rows_emitted") == 0 {
					t.Errorf("fold counters never moved: %+v", snap)
				}
				if steps := snap.Counter("dra.vector_steps"); steps != 16 {
					t.Errorf("dra.vector_steps = %d over 16 rounds", steps)
				}
				maint.Close()
				if got := reg.Snapshot().Gauge("dra.agg.groups"); got != 0 {
					t.Errorf("dra.agg.groups = %d after Close", got)
				}
			})
		}
	}
}

// TestGroupTableOverJoin: an aggregate or DISTINCT over a join is a
// standing query like any other — its fold input's join group keeps
// operand replicas and telescopes over them, seeded with the table, so
// no refresh reads the pre-state and each costs its window. Beside
// complete re-evaluation (baseline.Full), through modifications that
// move a row's join key (and with it its group), windows that change
// both operands, the tables draining to empty and refilling.
func TestGroupTableOverJoin(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
	)
	for name, q := range map[string]string{
		"aggregate": "SELECT a.k, SUM(b.v) AS sv, COUNT(*) AS n FROM a JOIN b ON a.k = b.k GROUP BY a.k",
		"distinct":  "SELECT DISTINCT a.k, b.v FROM a JOIN b ON a.k = b.k",
	} {
		for _, image := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/image=%v", name, image), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(q))))
				store := storage.NewStore()
				live := map[string][]relation.TID{}
				tables := []string{"a", "b"}
				for _, name := range tables {
					if err := store.CreateTable(name, schema); err != nil {
						t.Fatal(err)
					}
				}
				row := func() []relation.Value {
					return []relation.Value{relation.Int(int64(rng.Intn(5))), relation.Int(int64(rng.Intn(40)))}
				}
				// mutate runs n random operations on the table within tx;
				// updates redraw k, so rows change join partner and group.
				mutate := func(tx *storage.Tx, table string, n int) {
					t.Helper()
					for ; n > 0; n-- {
						l := live[table]
						var err error
						switch k := rng.Intn(4); {
						case k == 0 || len(l) == 0:
							var tid relation.TID
							tid, err = tx.Insert(table, row())
							live[table] = append(l, tid)
						case k == 1:
							i := rng.Intn(len(l))
							err = tx.Delete(table, l[i])
							live[table] = append(l[:i], l[i+1:]...)
						default:
							err = tx.Update(table, l[rng.Intn(len(l))], row())
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				commit := func(tx *storage.Tx) {
					t.Helper()
					if _, err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				tx := store.Begin()
				mutate(tx, "a", 12)
				mutate(tx, "b", 12)
				commit(tx)

				plan, err := algebra.PlanSQL(q, store.Live())
				if err != nil {
					t.Fatal(err)
				}
				plan = algebra.Optimize(plan)
				reg := obs.NewRegistry()
				eng := dra.NewEngine()
				eng.Instrument(reg)
				var maint groupMaint
				if _, distinct := plan.(*algebra.DistinctPlan); distinct {
					maint, err = dra.NewIncrementalDistinct(eng, plan, store.Live())
				} else {
					maint, err = dra.NewIncrementalAggregate(eng, plan, store.Live())
				}
				if err != nil {
					t.Fatal(err)
				}
				full, err := baseline.NewFull(plan, store.Live())
				if err != nil {
					t.Fatal(err)
				}
				prev := maint.Result()
				lastTS := store.Now()

				for round := 0; round < 14; round++ {
					tx := store.Begin()
					switch {
					case round == 6: // drain both operands
						for _, table := range tables {
							for _, tid := range live[table] {
								if err := tx.Delete(table, tid); err != nil {
									t.Fatal(err)
								}
							}
							live[table] = nil
						}
					case round == 7: // and refill them
						mutate(tx, "a", 8)
						mutate(tx, "b", 8)
					case round%2 == 0: // one operand
						mutate(tx, tables[round/2%2], 1+rng.Intn(4))
					default: // every operand
						mutate(tx, "a", 1+rng.Intn(3))
						mutate(tx, "b", 1+rng.Intn(3))
					}
					commit(tx)

					ts := store.Now()
					ctx := &dra.Context{
						Pre: store.At(lastTS), Post: store.Live(), LastTS: lastTS,
						Batches:   images(t, store, tables, lastTS, ts, image),
						Compacted: image, Versions: store.ChangeCounts(),
					}
					label := fmt.Sprintf("round %d", round)
					res, err := maint.Step(ctx, ts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := full.Step(store.Live(), ts)
					if err != nil {
						t.Fatal(err)
					}
					dra.AssertSameNet(t, label, want.ToSigned(), res.Delta.ToSigned())
					res.ApplyTo(prev)
					if !prev.EqualByTID(full.Result()) || !maint.Result().EqualByTID(full.Result()) {
						t.Fatalf("%s: complete results diverge:\nmaintained:\n%s\nrendered:\n%s\ncomplete:\n%s", label, prev, maint.Result(), full.Result())
					}
					// The maintainer's state, replicas included, is taken to
					// be at the first refresh's LastTS: no round re-seeds.
					if scanned := res.Stats.PreTuplesScanned; scanned != 0 {
						t.Fatalf("%s: %d pre-state tuples scanned", label, scanned)
					}
					if res.Stats.Terms == 0 {
						t.Fatalf("%s: no join term counted", label)
					}
					if got, held := reg.Snapshot().Gauge("dra.replica.rows"), int64(len(live["a"])+len(live["b"])); got != held {
						t.Fatalf("%s: dra.replica.rows = %d with %d operand rows", label, got, held)
					}
					lastTS = ts
				}
				maint.Close()
				if got := reg.Snapshot().Gauge("dra.replica.rows"); got != 0 {
					t.Errorf("dra.replica.rows = %d after Close", got)
				}
			})
		}
	}
}
