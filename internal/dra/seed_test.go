package dra

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// seedRow is randomRow with NULLs: about one value in eight.
func seedRow(rng *rand.Rand, schema relation.Schema) []relation.Value {
	row := randomRow(rng, schema)
	for i := range row {
		if rng.Intn(8) == 0 {
			row[i] = relation.NullValue()
		}
	}
	return row
}

// seedHistory commits a random history over the fixture's tables —
// inserts, deletes, key-moving updates, and deleted tids re-inserted
// with InsertWithTID in a later commit — and returns the timestamp after
// every commit, 0 (all tables empty) first.
func seedHistory(t *testing.T, f *fixture, rng *rand.Rand, commits int) []vclock.Timestamp {
	t.Helper()
	tables := f.store.TableNames()
	live := liveSet{}
	type gone struct {
		table string
		tid   relation.TID
	}
	var dead []gone
	stamps := []vclock.Timestamp{0}
	for c := 0; c < commits; c++ {
		tx := f.store.Begin()
		touched := map[relation.TID]bool{}
		for op := 0; op < 1+rng.Intn(6); op++ {
			table := tables[rng.Intn(len(tables))]
			schema, err := f.store.Schema(table)
			if err != nil {
				t.Fatal(err)
			}
			tids := live[table]
			k := rng.Intn(10)
			switch {
			case k == 0 && len(dead) > 0:
				// Reuse a tid deleted by an earlier commit.
				i := rng.Intn(len(dead))
				g := dead[i]
				if touched[g.tid] {
					continue
				}
				gs, _ := f.store.Schema(g.table)
				if err := tx.InsertWithTID(g.table, g.tid, seedRow(rng, gs)); err != nil {
					t.Fatal(err)
				}
				dead = append(dead[:i], dead[i+1:]...)
				live[g.table] = append(live[g.table], g.tid)
				touched[g.tid] = true
			case k < 5 || len(tids) == 0:
				tid, err := tx.Insert(table, seedRow(rng, schema))
				if err != nil {
					t.Fatal(err)
				}
				live[table] = append(tids, tid)
				touched[tid] = true
			case k < 8:
				// A fresh row: join and group keys move as often as not.
				tid := tids[rng.Intn(len(tids))]
				if err := tx.Update(table, tid, seedRow(rng, schema)); err != nil {
					t.Fatal(err)
				}
				touched[tid] = true
			default:
				i := rng.Intn(len(tids))
				tid := tids[i]
				if touched[tid] {
					continue
				}
				if err := tx.Delete(table, tid); err != nil {
					t.Fatal(err)
				}
				live[table] = append(tids[:i], tids[i+1:]...)
				dead = append(dead, gone{table, tid})
				touched[tid] = true
			}
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	return stamps
}

// TestSeedMatchesInitialResult holds the initial execution — one step
// from the empty state over columnar table images — to the row
// executor's InitialResult, by tid, for every plan shape a standing
// query can have, at timestamps with later commits behind them, from
// every kind of source: the store's images as of ts, a window cache's
// shared ones, and sources without images of their own (the live store,
// a map of relations). The first Step after Seed must find its join
// replicas current: it reads no pre-state.
func TestSeedMatchesInitialResult(t *testing.T) {
	queries := []string{
		// Selections: bare, with a duplicated and a computed projection.
		"SELECT * FROM r WHERE a > 50",
		"SELECT s1, a, s1 AS s1b FROM r WHERE a > 20 AND k < 6",
		"SELECT s1, a * 2 AS dbl, k + 1 AS k1 FROM r WHERE k < 5",
		"SELECT * FROM r",
		// Joins: 2- and 3-way equi, composite, float and string keys,
		// cross and theta.
		"SELECT * FROM r JOIN u ON r.s1 = u.s2",
		"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
		"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 AND r.k = u.x",
		"SELECT u.s2, w.x FROM u JOIN w ON u.b = w.c",
		"SELECT r.s1, w.c FROM r, w WHERE w.c < 30 AND r.a > 150",
		"SELECT r.s1, u.b FROM r JOIN u ON r.a < u.b WHERE u.x < 3",
		"SELECT r.s1, u.b, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON r.a > w.c WHERE w.x = 1",
		// Group tables: SUM / COUNT / AVG, composite keys, a global
		// aggregate (empty at ts 0 and under the filter), DISTINCT, and a
		// rollup over a join.
		"SELECT s1, SUM(a) AS sa, COUNT(*) AS n, AVG(a) AS av, COUNT(a) AS na FROM r GROUP BY s1",
		"SELECT k, s1, COUNT(*) AS n, SUM(k) AS sk FROM r GROUP BY k, s1",
		"SELECT SUM(a) AS sa, COUNT(*) AS n, AVG(a) AS av FROM r WHERE a > 1000",
		"SELECT COUNT(*) AS n, SUM(b) AS sb FROM u",
		"SELECT DISTINCT s1 FROM r",
		"SELECT DISTINCT s2, x FROM u WHERE b > 40",
		"SELECT u.x, SUM(r.a) AS s, COUNT(*) AS n FROM r JOIN u ON r.s1 = u.s2 GROUP BY u.x",
		"SELECT DISTINCT w.c FROM u JOIN w ON u.x = w.x",
		// Complete re-evaluation seeds through the executor.
		"SELECT s1, MIN(a) AS lo FROM r GROUP BY s1",
	}
	schemas := map[string]relation.Schema{
		"r": relation.MustSchema(
			relation.Column{Name: "s1", Type: relation.TString},
			relation.Column{Name: "a", Type: relation.TFloat},
			relation.Column{Name: "k", Type: relation.TInt},
		),
		"u": relation.MustSchema(
			relation.Column{Name: "s2", Type: relation.TString},
			relation.Column{Name: "b", Type: relation.TFloat},
			relation.Column{Name: "x", Type: relation.TInt},
		),
		"w": relation.MustSchema(
			relation.Column{Name: "x", Type: relation.TInt},
			relation.Column{Name: "c", Type: relation.TFloat},
		),
	}
	rng := rand.New(rand.NewSource(32))
	f := newFixture(t, schemas)
	stamps := seedHistory(t, f, rng, 120)
	now := f.store.Now()
	cache := f.store.NewWindowCache()

	sources := []struct {
		name string
		at   func(ts vclock.Timestamp) algebra.Source
	}{
		{"image", func(ts vclock.Timestamp) algebra.Source { return f.store.At(ts) }},
		{"shared", func(ts vclock.Timestamp) algebra.Source { return cache.At(ts) }},
		{"relations", func(ts vclock.Timestamp) algebra.Source {
			src := algebra.MapSource{}
			for name := range schemas {
				rel, err := f.store.SnapshotAt(name, ts)
				if err != nil {
					t.Fatal(err)
				}
				src[name] = rel
			}
			return src
		}},
	}
	// Early, middle and late timestamps, each with commits after it, and
	// the head itself.
	var points []vclock.Timestamp
	for _, i := range []int{0, 1, 7, 30, 61, 100, len(stamps) - 2} {
		points = append(points, stamps[i])
	}

	e := NewEngine()
	for qi, q := range queries {
		plan := f.plan(t, q)
		check := func(t *testing.T, got, want *relation.Relation) {
			t.Helper()
			equal := got.EqualByTID(want)
			if _, agg := plan.(*algebra.AggregatePlan); agg {
				equal = aggEqual(got, want) // float sums fold in another order
			}
			if !equal {
				t.Fatalf("%s:\nseed:\n%s\ninitial result:\n%s", q, got, want)
			}
		}
		for _, src := range sources {
			for _, ts := range points {
				t.Run(fmt.Sprintf("q%d/%s/ts%d", qi, src.name, ts), func(t *testing.T) {
					want, err := InitialResult(plan, f.store.At(ts))
					if err != nil {
						t.Fatal(err)
					}
					p, err := e.Prepare(plan, StrategyAuto)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					got, err := p.Seed(src.at(ts), ts)
					if err != nil {
						t.Fatal(err)
					}
					check(t, got.Relation(), want)

					// The first Step, from ts to the head.
					f.lastTS = ts
					ctx := f.ctx(t)
					ctx.Prev = got.Relation()
					res, err := p.Step(ctx, now)
					if err != nil {
						t.Fatal(err)
					}
					if n := res.Stats.PreTuplesScanned; n != 0 {
						t.Errorf("first Step after Seed scanned %d pre-state tuples, want 0", n)
					}
					head, err := InitialResult(plan, f.store.Live())
					if err != nil {
						t.Fatal(err)
					}
					if err := res.Fits(got); err != nil {
						t.Fatal(err)
					}
					got = res.Maintain(got)
					check(t, got.Relation(), head)
				})
			}
		}
		t.Run(fmt.Sprintf("q%d/live", qi), func(t *testing.T) {
			want, err := InitialResult(plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Prepare(plan, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			got, err := p.Seed(f.store.Live(), now)
			if err != nil {
				t.Fatal(err)
			}
			check(t, got.Relation(), want)
		})
	}
}

// TestSeedRowsOwnTheirValues: a seeded result is a typed copy in its
// own slots — scribbling over every column of the images it was seeded
// from, once the seed has returned, changes none of its rows.
func TestSeedRowsOwnTheirValues(t *testing.T) {
	f := newFixture(t, map[string]relation.Schema{"stocks": stockSchema()})
	for i := 0; i < 64; i++ {
		f.insert(t, "stocks", sv(fmt.Sprintf("S%02d", i), float64(100+i)))
	}
	for _, q := range []string{
		"SELECT name FROM stocks WHERE price > 110",
		"SELECT * FROM stocks WHERE price > 110",
		"SELECT a.name, b.price FROM stocks a JOIN stocks b ON a.name = b.name",
	} {
		plan := f.plan(t, q)
		want, err := InitialResult(plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewEngine().Prepare(plan, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		src := &scribbled{HistoricView: f.store.At(f.store.Now())}
		got, err := p.Seed(src, f.store.Now())
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range src.images {
			for c := range b.Cols {
				col := &b.Cols[c]
				for i := range col.Str {
					col.Str[i] = "scribbled"
				}
				for i := range col.F64 {
					col.F64[i] = -1
				}
			}
			for i := range b.TIDs {
				b.TIDs[i] = 0
			}
		}
		if !got.Relation().EqualByTID(want) {
			t.Fatalf("%s: the seeded result changed with the images it was seeded from:\n%s", q, got.Relation())
		}
	}
}

// scribbled is a store view whose table images are private copies the
// test may overwrite once the seed has read them.
type scribbled struct {
	storage.HistoricView
	images []*batch.Batch
}

func (s *scribbled) TableImage(table string) (*batch.Batch, error) {
	im, err := s.HistoricView.TableImage(table)
	if err != nil {
		return nil, err
	}
	cp := batch.New(im.Schema, im.Len())
	for i := 0; i < im.Len(); i++ {
		cp.AppendFrom(im, i)
	}
	s.images = append(s.images, cp)
	return cp, nil
}

// TestRebuildNestedJoinOperand: a join operand that is itself a join
// under a projection (a plan only the algebra API builds) has no one
// table to read an arrangement of, so the plan is completely
// re-evaluated: prepared Steps without a Seed and after one, and a plan
// prepared afresh per step, match the executor.
func TestRebuildNestedJoinOperand(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "x", Type: relation.TInt},
	)
	f := newFixture(t, map[string]relation.Schema{"a": s, "b": s, "c": s})
	rng := rand.New(rand.NewSource(5))
	seedHistory(t, f, rng, 40)
	inner := f.plan(t, "SELECT a.k AS ak, b.x AS bx FROM a JOIN b ON a.k = b.k")
	c := f.plan(t, "SELECT * FROM c")
	on, err := sql.ParseExpr("bx = x")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.NewJoinPlan(inner, c, on)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"prepared", "seeded", "fresh"} {
		kind := "auto"
		if name == "fresh" {
			kind = "fresh"
		}
		p := subjectFor(t, NewEngine(), plan, kind)
		if pp, ok := p.(*Prepared); ok && pp.Strategy() != StrategyPropagate {
			t.Fatalf("a join over a join operand prepared %v, want propagate", pp.Strategy())
		}
		f.mark()
		prev, err := InitialResult(plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		if name == "seeded" {
			seeded, err := p.(*Prepared).Seed(f.store.At(f.lastTS), f.lastTS)
			if err != nil {
				t.Fatal(err)
			}
			prev = seeded.Relation()
		}
		for round := 0; round < 4; round++ {
			seedHistory(t, f, rng, 5)
			_, prev = stepPrepared(t, f, p, plan, prev)
		}
	}
}
