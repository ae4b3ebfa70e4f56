package dra_test

import (
	"errors"
	"testing"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// TestDeadlineStopsAnywhere: a step stopped at its deadline fails with
// guard.ErrBudgetExceeded wherever the kernels found it passed and
// leaves nothing to undo: the next step, with no deadline, reports the
// change complete re-evaluation (baseline.Full) reports. A group table
// clears its position and re-seeds at its LastTS; a join plan has no
// position — the stop left the shared arrangements past LastTS — and
// steps from LastTS again with a correction, reading no pre-state.
//
// The "past" cases step a join, a GROUP BY over it, a DISTINCT and a
// HAVING query (complete re-evaluation on the row executor) with a
// deadline already past: the first check (a join step, the fold, a
// plan node) stops them before any state moved. The "cross" cases run
// the same shapes over a `<`-theta join whose window inserts one row
// into a and many into b: the first term (Δa against b) is tiny, the
// second (a' against Δb) enumerates a product far larger than the
// deadline allows, so the cross step stops mid-telescope; the HAVING
// query's nested loop stops partway through the product. Its b rows are
// deleted again before the next step, so that step's window nets them
// away. The "hot" case's window inserts into a one row whose key
// matches many b rows: a single probe of the hash step emits far more
// rows than the deadline allows, so the step stops mid-probe.
func TestDeadlineStopsAnywhere(t *testing.T) {
	const (
		join     = "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k"
		having   = " GROUP BY a.k HAVING COUNT(*) > 1"
		crossFrm = " FROM a, b WHERE a.x < b.y"
	)
	for _, tc := range []struct {
		name, query, kind string
	}{
		{"past/join", join, "past"},
		{"past/group", "SELECT a.k, SUM(b.y) AS s, COUNT(*) AS n FROM a JOIN b ON a.k = b.k GROUP BY a.k", "past"},
		{"past/distinct", "SELECT DISTINCT k FROM a", "past"},
		{"past/complete", "SELECT a.k, COUNT(*) AS n FROM a JOIN b ON a.k = b.k" + having, "past"},
		{"cross/join", "SELECT a.k, a.x, b.y" + crossFrm, "cross"},
		{"cross/group", "SELECT a.k, SUM(b.y) AS s, COUNT(*) AS n" + crossFrm + " GROUP BY a.k", "cross"},
		{"cross/distinct", "SELECT DISTINCT a.k" + crossFrm, "cross"},
		{"cross/complete", "SELECT a.k, COUNT(*) AS n" + crossFrm + having, "cross"},
		{"hot/join", join, "hot"},
	} {
		t.Run(tc.name, func(t *testing.T) { stopAndResume(t, tc.query, tc.kind) })
	}
}

// hotRows is how many b rows the hot case's one probe matches.
const hotRows = 60000

// stopAndResume is one case of TestDeadlineStopsAnywhere.
func stopAndResume(t *testing.T, q, kind string) {
	cross := kind == "cross"
	schema := relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TString},
		relation.Column{Name: "x", Type: relation.TInt},
	)
	bSchema := relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TString},
		relation.Column{Name: "y", Type: relation.TInt},
	)
	row := func(k string, v int) []relation.Value {
		return []relation.Value{relation.Str(k), relation.Int(int64(v))}
	}
	keys := []string{"DEC", "IBM", "SUN"}
	s := storage.NewStore()
	for name, schema := range map[string]relation.Schema{"a": schema, "b": bSchema} {
		if err := s.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(f func(tx *storage.Tx) error) {
		t.Helper()
		tx := s.Begin()
		if err := f(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(tx *storage.Tx, table string, vals []relation.Value) relation.TID {
		tid, err := tx.Insert(table, vals)
		if err != nil {
			t.Fatal(err)
		}
		return tid
	}
	var a0, b1 relation.TID
	commit(func(tx *storage.Tx) error {
		for i := 0; i < 2000; i++ {
			if tid := insert(tx, "a", row(keys[i%3], i)); i == 0 {
				a0 = tid
			}
		}
		for i := 0; i < 5; i++ {
			if tid := insert(tx, "b", row(keys[i%3], 1000*i)); i == 1 {
				b1 = tid
			}
		}
		for i := 0; kind == "hot" && i < hotRows; i++ {
			insert(tx, "b", row("HOT", i))
		}
		return nil
	})

	parsed, err := algebra.PlanSQL(q, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.Optimize(parsed)
	p, err := dra.NewEngine().Prepare(plan, dra.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	complete := p.Strategy() == dra.StrategyPropagate
	_, grouped := p.Groups()
	lastTS := s.Now()
	seeded, err := p.Seed(s.Live(), lastTS)
	if err != nil {
		t.Fatal(err)
	}
	full, err := baseline.NewFull(plan, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	// window is the step's context from lastTS: the raw windows, which
	// the engine compacts, the pre-state a re-seed reads, the window
	// images a correction reads, and the result at lastTS complete
	// re-evaluation diffs against.
	window := func() *dra.Context {
		ctx := &dra.Context{Pre: s.At(lastTS), Post: s.Live(), Prev: seeded.Relation(), LastTS: lastTS,
			Deltas: map[string]*delta.Delta{}, Windows: s.NewWindowCache()}
		for _, table := range []string{"a", "b"} {
			d, err := s.DeltaSince(table, lastTS)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Deltas[table] = d
		}
		return ctx
	}

	// The window: a modification on each side, a new row in a, for the
	// cross cases a burst of rows in b. The hot case modifies only a and
	// adds a row on the hot key: its step runs one term, Δa against b.
	var burst []relation.TID
	commit(func(tx *storage.Tx) error {
		if err := tx.Update("a", a0, row("DEC", 7)); err != nil {
			return err
		}
		if kind != "hot" { // the hot step is one term, one probe stopping it
			if err := tx.Update("b", b1, row("IBM", 4500)); err != nil {
				return err
			}
		}
		insert(tx, "a", row("SUN", 42))
		if kind == "hot" {
			insert(tx, "a", row("HOT", 1))
		}
		for i := 0; cross && i < 300; i++ {
			burst = append(burst, insert(tx, "b", row(keys[i%3], 3000+i)))
		}
		return nil
	})

	ctx := window()
	var res dra.Result
	switch kind {
	case "cross":
		// The second term's product is 2002 × 300 rows: far more than
		// 20 ms of cross step, so the deadline stops it.
		ctx.Deadline = time.Now().Add(20 * time.Millisecond)
	case "hot":
		// The join step starts well inside 100 µs; its one hot probe
		// emits hotRows rows, which takes milliseconds.
		ctx.Deadline = time.Now().Add(100 * time.Microsecond)
	default:
		ctx.Deadline = time.Now().Add(-time.Millisecond)
	}
	err = p.StepInto(ctx, s.Now(), &res)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("step under the deadline: err = %v, want ErrBudgetExceeded", err)
	}
	if cross && !complete && res.Stats.Terms != 2 {
		t.Fatalf("stopped after %d terms, want in the second (mid-telescope)", res.Stats.Terms)
	}

	if !complete {
		// A re-seed runs outside the deadline: from the current
		// timestamp, where the window is empty, a step under a deadline
		// already past re-seeds a group table and succeeds. A join plan
		// has nothing to re-seed: its empty window runs no term.
		now := s.Now()
		var r dra.Result
		ctx := &dra.Context{Pre: s.At(now), Post: s.Live(), LastTS: now, Deadline: time.Now().Add(-time.Millisecond)}
		if err := p.StepInto(ctx, now, &r); err != nil {
			t.Fatalf("empty window under a past deadline: %v", err)
		}
		if reseeded := r.Stats.PreTuplesScanned > 0; reseeded != grouped {
			t.Errorf("the step after the stop read %d pre-state tuples (group table: %v)", r.Stats.PreTuplesScanned, grouped)
		}
	}
	if cross {
		commit(func(tx *storage.Tx) error {
			for _, tid := range burst {
				if err := tx.Delete("b", tid); err != nil {
					return err
				}
			}
			return nil
		})
	}
	execTS := s.Now()
	res.Clear()
	if err := p.StepInto(window(), execTS, &res); err != nil {
		t.Fatalf("step after the stop: %v", err)
	}
	if reseeded := res.Stats.PreTuplesScanned > 0; !complete && reseeded != grouped {
		t.Errorf("the step from lastTS read %d pre-state tuples (group table: %v)", res.Stats.PreTuplesScanned, grouped)
	}
	if _, err := full.Step(s.Live(), execTS); err != nil {
		t.Fatal(err)
	}
	if got := res.ApplyTo(seeded.Relation()); !got.EqualByTID(full.Result()) {
		t.Fatalf("after the stop:\n%s\ncomplete re-evaluation:\n%s", got, full.Result())
	}
}
