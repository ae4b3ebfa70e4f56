package dra

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// sameValues reports whether two rows carry equal values position by
// position.
func sameValues(a, b []relation.Value) bool {
	return slices.EqualFunc(a, b, relation.Value.Equal)
}

// netKey identifies one row of a netted signed delta: at most one
// negative and one positive row per tid, so (tid, sign) is a unique key
// within one result.
type netKey struct {
	tid  relation.TID
	sign int
}

// assertSameNet compares two netted signed deltas as sets: same keys,
// value-equal rows (relation.Value.Equal semantics, so NULL kind tags —
// which the engine normalizes to the column type — don't count).
func assertSameNet(t *testing.T, label string, want, got *delta.Signed) {
	t.Helper()
	index := func(s *delta.Signed) map[netKey][]relation.Value {
		m := make(map[netKey][]relation.Value, len(s.Rows))
		for _, r := range s.Rows {
			k := netKey{tid: r.TID, sign: r.Sign}
			if _, dup := m[k]; dup {
				t.Fatalf("%s: duplicate net key %+v", label, k)
			}
			m[k] = r.Values
		}
		return m
	}
	wm, gm := index(want), index(got)
	if len(wm) != len(gm) {
		t.Fatalf("%s: oracle emitted %d rows, engine %d", label, len(wm), len(gm))
	}
	for k, wv := range wm {
		gv, ok := gm[k]
		if !ok {
			t.Fatalf("%s: engine missing row %+v", label, k)
		}
		if !sameValues(wv, gv) {
			t.Fatalf("%s: values diverge at %+v:\noracle: %v\nengine: %v", label, k, wv, gv)
		}
	}
}

// oracle is the paper's yardstick for one window: the signed change by
// complete re-evaluation of the plan on both states.
func oracle(t *testing.T, plan algebra.Plan, ctx *Context) *delta.Signed {
	t.Helper()
	want, err := Propagate(plan, ctx.Pre, ctx.Post, 0)
	if err != nil {
		t.Fatal(err)
	}
	return want.ToSigned()
}

// assertComplete checks a maintained result against running the query
// from scratch.
func assertComplete(t *testing.T, label string, plan algebra.Plan, f *fixture, got *relation.Relation) {
	t.Helper()
	want, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualByTID(want) {
		t.Fatalf("%s: maintained result diverges from full re-evaluation.\nDRA:\n%s\nfull:\n%s", label, got, want)
	}
}

// vecQueries is the SPJ shape pool for the transcript-equivalence
// checks: selections, computed and duplicated projections, equi and
// non-equi joins, three-way joins.
var vecQueries = []string{
	"SELECT * FROM r WHERE a > 100",
	"SELECT s1, a FROM r WHERE a > 50 AND s1 != 'k0'",
	"SELECT s1, s1, a FROM r WHERE a > 30",
	"SELECT s1, a * 2 AS a2 FROM r WHERE a > 40",
	"SELECT * FROM r JOIN u ON r.s1 = u.s2",
	"SELECT r.s1, u.b FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 80",
	"SELECT * FROM r, u WHERE r.s1 = u.s2 AND u.b < 150 AND r.a > 20",
	"SELECT * FROM r JOIN u ON r.a > u.b WHERE u.x < 5",
	"SELECT * FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x WHERE w.c > 10",
	"SELECT r.a, w.c FROM r JOIN u ON r.s1 = u.s2 JOIN w ON u.x = w.x",
}

func vecFixtureSchemas() map[string]relation.Schema {
	return map[string]relation.Schema{
		"r": relation.MustSchema(
			relation.Column{Name: "s1", Type: relation.TString},
			relation.Column{Name: "a", Type: relation.TFloat},
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
}

// TestVectorizedMatchesPropagate is the transcript-equivalence gate
// inside the engine: over random histories, a standing prepared plan
// and a plan prepared afresh per step must each produce,
// round after round, exactly the net signed delta of complete
// re-evaluation (Propagate) and maintain exactly the from-scratch
// result, with and without delta compaction.
func TestVectorizedMatchesPropagate(t *testing.T) {
	// default and no-compact run one history per query with and without
	// delta compaction. no-hash, no-heuristics and no-skip name engine
	// switches since removed (every engine hashes equi joins, orders
	// terms by size and reports skipped windows), so they run the default
	// engine, each on a history of its own.
	type variant struct {
		name    string
		compact bool
		history int
	}
	variants := []variant{
		{"default", true, 0},
		{"no-compact", false, 0},
		{"no-hash", true, 1},
		{"no-heuristics", true, 2},
		{"no-skip", true, 3},
	}
	for qi, q := range vecQueries {
		for _, va := range variants {
			t.Run(fmt.Sprintf("q%d_%s", qi, va.name), func(t *testing.T) {
				// The telescoping kernel from its last position and from a
				// re-seed of the pre-state every step.
				for _, kernel := range []string{"auto", "fresh"} {
					rng := rand.New(rand.NewSource(int64(qi*31 + 7 + 1000*va.history)))
					f := newFixture(t, vecFixtureSchemas())
					live := liveSet{}
					applyRandomBatch(t, f, rng, live, 8, 3)

					plan := f.plan(t, q)
					eng := NewEngine()
					eng.CompactDeltas = va.compact
					p := subjectFor(t, eng, plan, kernel)
					prev, err := InitialResult(plan, f.store.Live())
					if err != nil {
						t.Fatal(err)
					}
					f.mark()
					for round := 0; round < 6; round++ {
						applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
						ctx := f.ctx(t)
						ctx.Prev = prev
						res, err := p.Step(ctx, f.store.Now())
						label := fmt.Sprintf("%s round %d", kernel, round)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						assertSameNet(t, label, oracle(t, plan, ctx), res.Delta.ToSigned())
						prev = res.ApplyTo(prev)
						assertComplete(t, label, plan, f, prev)
						f.mark()
					}
				}
			})
		}
	}
}

// TestVectorizedPrebuiltWindow drives the zero-copy scan entry: the
// context carries prebuilt columnar windows (as the cq scheduler's
// shared window cache does), compacted once and shared read-only, and
// the result must match complete re-evaluation over the same window.
// Two steps share the same prebuilt batches to prove the views never
// mutate them.
func TestVectorizedPrebuiltWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := newFixture(t, vecFixtureSchemas())
	live := liveSet{}
	applyRandomBatch(t, f, rng, live, 8, 3)

	q := "SELECT * FROM r JOIN u ON r.s1 = u.s2 WHERE r.a > 20"
	plan := f.plan(t, q)
	eng := NewEngine()
	vecA := subjectFor(t, eng, plan, "auto")
	vecB := subjectFor(t, eng, plan, "fresh")
	prev, err := InitialResult(plan, f.store.Live())
	if err != nil {
		t.Fatal(err)
	}
	f.mark()
	pool := batch.NewPool()
	for round := 0; round < 5; round++ {
		applyRandomBatch(t, f, rng, live, 2, 3)
		ctx := f.ctx(t)
		// Compact once, as the shared window cache does, into pooled
		// images of the test's own, recycled after both steps.
		for name := range ctx.Batches {
			d, err := f.store.DeltaSince(name, ctx.LastTS)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := batch.FromDelta(pool, d.Compact())
			if !ok {
				t.Fatalf("window of %q has no columnar image", name)
			}
			ctx.Batches[name] = b
		}
		ctx.Prev = prev
		ts := f.store.Now()
		want := oracle(t, plan, ctx)
		aRes, err := vecA.Step(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		bRes, err := vecB.Step(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNet(t, fmt.Sprintf("round %d A", round), want, aRes.Delta.ToSigned())
		assertSameNet(t, fmt.Sprintf("round %d B", round), want, bRes.Delta.ToSigned())
		for _, b := range ctx.Batches {
			pool.Put(b)
		}
		prev = aRes.ApplyTo(prev)
		assertComplete(t, fmt.Sprintf("round %d", round), plan, f, prev)
		f.mark()
	}
}

// TestNonConformingWindowFailsStep hands each kind of standing plan —
// and a plan prepared afresh per step — a hand-built window holding a
// value its column cannot (a STRING in a
// FLOAT column — the store's write boundary would have rejected it): the
// Step must fail with the relation.ErrTypeMismatch sentinel, never
// evaluate a second way, and clear the evaluator's position, so the next
// Step over the clean window re-seeds and equals complete
// re-evaluation. The last case fails ABOVE a join group that has already
// advanced its replicas.
func TestNonConformingWindowFailsStep(t *testing.T) {
	badWindow := func(t *testing.T, f *fixture, ctx *Context) {
		t.Helper()
		schema, err := f.store.Schema("r")
		if err != nil {
			t.Fatal(err)
		}
		// A STRING column where the schema has a FLOAT: no batch built
		// through AppendRow can hold the value, so the image is adopted.
		cols := []batch.Col{
			{Type: schema.Col(0).Type, Str: []string{"k1"}},
			{Type: relation.TString, Str: []string{"oops"}},
		}
		ctx.Batches["r"] = batch.Adopt(schema, []relation.TID{1 << 40}, []int8{1}, []vclock.Timestamp{f.store.Now()}, cols)
	}
	named := func(name string) func(*testing.T, *fixture, algebra.Plan) subject {
		return func(t *testing.T, _ *fixture, plan algebra.Plan) subject {
			return subjectFor(t, NewEngine(), plan, name)
		}
	}
	cases := []struct {
		name, query string
		build       func(*testing.T, *fixture, algebra.Plan) subject
		// poison makes the next Step fail; nil hand-builds a bad window.
		poison func(*testing.T, *fixture)
	}{
		{"fresh", "SELECT * FROM r JOIN u ON r.s1 = u.s2", named("fresh"), nil},
		{"telescoping", "SELECT * FROM r JOIN u ON r.s1 = u.s2", named("incremental"), nil},
		{"group-table", "SELECT s1, SUM(a) AS total, COUNT(*) AS n FROM r GROUP BY s1", func(t *testing.T, f *fixture, plan algebra.Plan) subject {
			ia, err := NewIncrementalAggregate(NewEngine(), plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			return ia
		}, nil},
		{"error-above-advanced-join", "SELECT r.s1, u.x / (u.x - 99) AS q FROM r JOIN u ON r.s1 = u.s2", named("auto"), func(t *testing.T, f *fixture) {
			// Both operands change and the joined row divides by zero in
			// the projection, after the join group advanced.
			f.insert(t, "r", []relation.Value{relation.Str("kz"), relation.Float(1)})
			f.insert(t, "u", []relation.Value{relation.Str("kz"), relation.Float(1), relation.Int(99)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			f := newFixture(t, vecFixtureSchemas())
			live := liveSet{}
			applyRandomBatch(t, f, rng, live, 8, 3)

			plan := f.plan(t, tc.query)
			s := tc.build(t, f, plan)
			prev, err := InitialResult(plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			f.mark()
			clean := func(label string) {
				t.Helper()
				ctx := f.ctx(t)
				ctx.Prev = prev
				res, err := s.Step(ctx, f.store.Now())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameNet(t, label, oracle(t, plan, ctx), res.Delta.ToSigned())
				prev = res.ApplyTo(prev)
				f.mark()
			}

			// Round 1: clean data; join plans build and advance replicas.
			applyRandomBatch(t, f, rng, live, 2, 3)
			clean("clean-1")

			// Round 2: the failing Step.
			applyRandomBatch(t, f, rng, live, 2, 3)
			if tc.poison != nil {
				tc.poison(t, f)
			}
			ctx := f.ctx(t)
			ctx.Prev = prev
			if tc.poison == nil {
				badWindow(t, f, ctx)
			}
			_, err = s.Step(ctx, f.store.Now())
			if err == nil {
				t.Fatal("Step over the failing window succeeded")
			}
			if tc.poison == nil && !errors.Is(err, relation.ErrTypeMismatch) {
				t.Fatalf("Step error = %v, want relation.ErrTypeMismatch", err)
			}
			if s, ok := s.(*IncrementalAggregate); ok && s.pos.ok {
				t.Fatalf("a failed Step left the position at %d", s.pos.ts)
			}

			// Round 3: the same window, clean (the poison rows leave
			// again), must equal complete re-evaluation.
			if tc.poison != nil {
				tx := f.store.Begin()
				for _, table := range []string{"r", "u"} {
					rel, err := f.store.Snapshot(table)
					if err != nil {
						t.Fatal(err)
					}
					for _, tu := range rel.Tuples() {
						if tu.Values[0].AsString() == "kz" {
							if err := tx.Delete(table, tu.TID); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			clean("clean-2")
			assertComplete(t, "clean-2", plan, f, prev)
		})
	}
}

// TestVectorizedBothKernels runs the telescoping kernel over the same
// window from both of its starting states, for every query shape: a
// Prepared seeded at the window's start, and one never seeded, stepped
// twice — the first run re-seeds at the window's start, the second finds
// its position moved past the start by the first and re-seeds again.
// All three must equal complete re-evaluation.
func TestVectorizedBothKernels(t *testing.T) {
	for qi, q := range vecQueries {
		rng := rand.New(rand.NewSource(int64(qi)))
		f := newFixture(t, vecFixtureSchemas())
		live := liveSet{}
		applyRandomBatch(t, f, rng, live, 6, 3)

		plan := f.plan(t, q)
		e := NewEngine()
		seeded := subjectFor(t, e, plan, "auto").(*Prepared)
		p := subjectFor(t, e, plan, "auto")
		prev, err := InitialResult(plan, f.store.Live())
		if err != nil {
			t.Fatal(err)
		}
		f.mark()
		if _, err := seeded.Seed(f.store.Live(), f.lastTS); err != nil {
			t.Fatal(err)
		}
		applyRandomBatch(t, f, rng, live, 3, 3)
		ctx := f.ctx(t)
		ctx.Prev = prev
		want := oracle(t, plan, ctx)
		for i := 0; i < 3; i++ {
			var res *Result
			if i == 0 {
				res, err = seeded.Step(ctx, f.store.Now())
			} else {
				res, err = p.Step(ctx, f.store.Now())
			}
			if err != nil {
				t.Fatalf("q%d run %d: %v", qi, i, err)
			}
			assertSameNet(t, fmt.Sprintf("q%d run %d", qi, i), want, res.Delta.ToSigned())
		}
	}
}

// TestVectorizedCompleteResult chains refreshes, each by a plan seeded
// at its round's start, maintaining the complete result, and checks
// each round against full re-evaluation — the paper's
// functional-equivalence statement.
func TestVectorizedCompleteResult(t *testing.T) {
	for qi, q := range vecQueries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + qi)))
			f := newFixture(t, vecFixtureSchemas())
			live := liveSet{}
			applyRandomBatch(t, f, rng, live, 8, 3)

			plan := f.plan(t, q)
			prev, err := InitialResult(plan, f.store.Live())
			if err != nil {
				t.Fatal(err)
			}
			f.mark()
			for round := 0; round < 6; round++ {
				applyRandomBatch(t, f, rng, live, 1+rng.Intn(3), 1+rng.Intn(4))
				_, complete := f.reval(t, NewEngine(), plan, prev)
				prev = complete
				f.mark()
			}
		})
	}
}
