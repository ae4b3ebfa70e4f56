package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
)

func readingSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TInt},
		relation.Column{Name: "f", Type: relation.TFloat},
		relation.Column{Name: "s", Type: relation.TString},
	)
}

// readingsWorkload drives table t through random rounds of inserts,
// modifications and deletes (NULLs included), emptying group k = 1 at
// round 8 and the whole table in the last round, and calls check after
// every commit.
func readingsWorkload(t *testing.T, s *storage.Store, check func(round int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var live []relation.TID
	group := map[relation.TID]int64{} // tid → k
	row := func() []relation.Value {
		vals := []relation.Value{
			relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(12))),
			relation.Float(float64(rng.Intn(1000)) / 8), relation.Str(fmt.Sprintf("s%d", rng.Intn(5))),
		}
		if rng.Intn(8) == 0 {
			vals[1+rng.Intn(3)] = relation.NullValue()
		}
		return vals
	}
	const rounds = 16
	for round := 0; round < rounds; round++ {
		commit(t, s, func(tx *storage.Tx) error {
			switch round {
			case 8, rounds - 1:
				keep := live[:0]
				for _, tid := range live {
					if round == rounds-1 || group[tid] == 1 {
						if err := tx.Delete("t", tid); err != nil {
							return err
						}
						continue
					}
					keep = append(keep, tid)
				}
				live = keep
				return nil
			}
			for op := 0; op < 6; op++ {
				switch n := rng.Intn(10); {
				case n < 5 || len(live) == 0:
					vals := row()
					tid, err := tx.Insert("t", vals)
					if err != nil {
						return err
					}
					live, group[tid] = append(live, tid), vals[0].AsInt()
				case n < 8:
					tid, vals := live[rng.Intn(len(live))], row()
					if err := tx.Update("t", tid, vals); err != nil {
						return err
					}
					group[tid] = vals[0].AsInt()
				default:
					i := rng.Intn(len(live))
					if err := tx.Delete("t", live[i]); err != nil {
						return err
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			return nil
		})
		check(round)
	}
}

// TestResultsMatchCompleteReevaluation holds every kind of maintained
// result — a private CQ's on each evaluator arm, a template member's and
// a client mirror's — to complete re-evaluation (baseline.Full) after
// every refresh, from registration over an empty table through its
// emptying.
func TestResultsMatchCompleteReevaluation(t *testing.T) {
	for _, tc := range []struct {
		name, query, mate, strategy string
		mirror                      bool
	}{
		{name: "global aggregate over an empty input", strategy: "incremental",
			query: "SELECT SUM(v) AS total, COUNT(*) AS n, AVG(f) AS mean FROM t"},
		{name: "MIN over an emptied group", strategy: "propagate",
			query: "SELECT k, MIN(v) AS lo, MAX(s) AS hi FROM t GROUP BY k"},
		{name: "computed projection", strategy: "incremental",
			query: "SELECT k, v * 2 + 1 AS w, f / 2 AS h FROM t WHERE v > 3"},
		{name: "ORDER BY LIMIT", strategy: "propagate",
			query: "SELECT k, v, s FROM t WHERE v >= 0 ORDER BY v DESC LIMIT 3"},
		{name: "template member", strategy: "incremental",
			query: "SELECT k, v, s FROM t WHERE v > 5", mate: "SELECT k, v, s FROM t WHERE v > 2"},
		{name: "mirror", mirror: true,
			query: "SELECT k, v * 2 AS w, s FROM t WHERE v > 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStoreWith(t, map[string]relation.Schema{"t": readingSchema()})
			m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, ShareTemplates: tc.mate != ""})
			defer func() { _ = m.Close() }()
			full, err := baseline.NewFull(mustPlan(t, tc.query, s), s.Live())
			if err != nil {
				t.Fatal(err)
			}
			var got func() *relation.Relation
			if tc.mirror {
				srv := remote.NewServer(s)
				addr, err := srv.Serve("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = srv.Close() }()
				client, err := remote.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = client.Close() }()
				mirror, err := remote.NewMirrorCQ(client, tc.query)
				if err != nil {
					t.Fatal(err)
				}
				got = func() *relation.Relation {
					if _, err := mirror.Refresh(); err != nil {
						t.Fatal(err)
					}
					return mirror.Result()
				}
			} else {
				if _, err := m.Register(Def{Name: "q", Query: tc.query}); err != nil {
					t.Fatal(err)
				}
				if tc.mate != "" {
					if _, err := m.Register(Def{Name: "mate", Query: tc.mate}); err != nil {
						t.Fatal(err)
					}
				}
				st, err := m.State("q")
				if err != nil {
					t.Fatal(err)
				}
				if st.Strategy != tc.strategy || (tc.mate != "") != (st.Template != 0) {
					t.Fatalf("strategy %q, template %d; want %q, shared %v", st.Strategy, st.Template, tc.strategy, tc.mate != "")
				}
				got = func() *relation.Relation {
					if _, err := m.Poll(); err != nil {
						t.Fatal(err)
					}
					res, err := m.Result("q")
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
			}
			if res := got(); !res.EqualByTID(full.Result()) {
				t.Fatalf("initial result\n%s\nwant\n%s", res, full.Result())
			}
			readingsWorkload(t, s, func(round int) {
				if _, err := full.Step(s.Live(), s.Now()); err != nil {
					t.Fatal(err)
				}
				if res := got(); !res.EqualByTID(full.Result()) {
					t.Fatalf("round %d: maintained result\n%s\nwant\n%s", round, res, full.Result())
				}
			})
		})
	}
}

// TestMaterializeBesideClientWriter: a materializing CQ refreshes while a
// client commits its own rows into the same INTO target. The producer's
// reconciliation reads the target's rows under the store's lock, never
// the live relation a commit is mutating (run under -race), and its own
// rows in the target stay exactly its result.
func TestMaterializeBesideClientWriter(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "mid", Query: "SELECT name, price INTO hot FROM stocks WHERE price > 100"}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mine []relation.TID
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := s.Begin()
			tid, err := tx.Insert("hot", []relation.Value{relation.Str(fmt.Sprintf("client%d", i)), relation.Float(float64(i))})
			if err == nil && len(mine) > 8 {
				err = tx.Delete("hot", mine[0])
				mine = mine[1:]
			}
			if err == nil {
				_, err = tx.Commit()
			}
			if err != nil {
				werr = err
				return
			}
			mine = append(mine, tid)
		}
	}()
	rng := rand.New(rand.NewSource(3))
	var tids []relation.TID
	for i := 0; i < 500; i++ {
		if len(tids) < 20 || rng.Intn(2) == 0 {
			tids = append(tids, insertStock(t, s, fmt.Sprintf("S%03d", i), float64(50+rng.Intn(100))))
		} else {
			tid := tids[rng.Intn(len(tids))]
			commit(t, s, func(tx *storage.Tx) error {
				return tx.Update("stocks", tid, []relation.Value{relation.Str(fmt.Sprintf("U%03d", i)), relation.Float(float64(50 + rng.Intn(100)))})
			})
		}
		if _, err := m.Poll(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	res, err := m.Result("mid")
	if err != nil {
		t.Fatal(err)
	}
	target, err := s.Snapshot("hot")
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range res.Tuples() {
		row, ok := target.Lookup(tu.TID)
		if !ok || !slices.EqualFunc(row.Values, tu.Values, relation.Value.Equal) {
			t.Fatalf("target row %d = %v, want the result's %v", tu.TID, row.Values, tu.Values)
		}
	}
}

// TestStateReportsResultBytes: CQState.ResultBytes tells which CQ holds
// memory — nonzero for a private CQ and a template member, larger for
// the larger result, and falling once deletes free most of a result's
// rows.
func TestStateReportsResultBytes(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	var tids []relation.TID
	commit(t, s, func(tx *storage.Tx) error {
		for i := 0; i < 400; i++ {
			tid, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("S%03d", i)), relation.Float(float64(i))})
			if err != nil {
				return err
			}
			tids = append(tids, tid)
		}
		return nil
	})
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, ShareTemplates: true})
	defer func() { _ = m.Close() }()
	for name, query := range map[string]string{
		"wide":   "SELECT * FROM stocks WHERE price > 10",
		"narrow": "SELECT * FROM stocks WHERE price > 390",
		"joined": "SELECT a.name, b.price FROM stocks a JOIN stocks b ON a.name = b.name",
	} {
		if _, err := m.Register(Def{Name: name, Query: query}); err != nil {
			t.Fatal(err)
		}
	}
	bytes := func(name string) int {
		t.Helper()
		st, err := m.State(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.ResultBytes <= 0 {
			t.Fatalf("%s: ResultBytes = %d with %d rows", name, st.ResultBytes, st.ResultLen)
		}
		return st.ResultBytes
	}
	if st, _ := m.State("wide"); st.Template == 0 {
		t.Fatal("wide did not join a template group")
	}
	wide, narrow := bytes("wide"), bytes("narrow")
	if wide <= narrow {
		t.Fatalf("ResultBytes: %d for 389 rows, %d for 9", wide, narrow)
	}
	joined := bytes("joined")
	commit(t, s, func(tx *storage.Tx) error {
		for _, tid := range tids[:300] {
			if err := tx.Delete("stocks", tid); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if after := bytes("wide"); after >= wide {
		t.Fatalf("template member: ResultBytes %d after deleting 300 of its 389 rows, %d before", after, wide)
	}
	if after := bytes("joined"); after >= joined {
		t.Fatalf("join: ResultBytes %d after deleting 300 of its 400 rows, %d before", after, joined)
	}
}

// TestOrderByResultKeepsOrder: a sorted CQ's result stays in ORDER BY
// order through refreshes that change which rows are in the top k — the
// result, the Complete notification and a client mirror's result alike —
// though rows leaving the top k free slots the rows entering it could
// take.
func TestOrderByResultKeepsOrder(t *testing.T) {
	const query = "SELECT name, price FROM stocks ORDER BY price DESC LIMIT 3"
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	tids := map[string]relation.TID{}
	for i, name := range []string{"A", "B", "C", "D"} {
		tids[name] = insertStock(t, s, name, float64(10*(i+1)))
	}
	// No AutoGC: the mirror reads the same store's delta log.
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "top", Query: query, Mode: sql.ModeComplete}); err != nil {
		t.Fatal(err)
	}
	notes, cancel, err := subscribeChan(m, "top", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	srv := remote.NewServer(s)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	mirror, err := remote.NewMirrorCQ(client, query)
	if err != nil {
		t.Fatal(err)
	}
	full, err := baseline.NewFull(mustPlan(t, query, s), s.Live())
	if err != nil {
		t.Fatal(err)
	}

	inOrder := func(what string, got *relation.Relation) {
		t.Helper()
		want := full.Result()
		if !got.EqualByTID(want) {
			t.Fatalf("%s\n%s\nwant\n%s", what, got, want)
		}
		for i, tu := range got.Tuples() {
			if w := want.At(i); tu.TID != w.TID {
				t.Fatalf("%s: row %d is tid %d, want tid %d in ORDER BY order\n%s", what, i, tu.TID, w.TID, got)
			}
		}
	}
	for round, change := range []func(tx *storage.Tx) error{
		// E enters between D and C; B leaves and frees its slot.
		func(tx *storage.Tx) error {
			_, err := tx.Insert("stocks", []relation.Value{relation.Str("E"), relation.Float(35)})
			return err
		},
		// A rises to the top; C leaves.
		func(tx *storage.Tx) error {
			return tx.Update("stocks", tids["A"], []relation.Value{relation.Str("A"), relation.Float(50)})
		},
		// D leaves the table; C comes back last.
		func(tx *storage.Tx) error { return tx.Delete("stocks", tids["D"]) },
	} {
		commit(t, s, change)
		if _, err := full.Step(s.Live(), s.Now()); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
		res, err := m.Result("top")
		if err != nil {
			t.Fatal(err)
		}
		inOrder(fmt.Sprintf("round %d: Result", round), res)
		got := drain(notes)
		if len(got) != 1 {
			t.Fatalf("round %d: %d notifications, want 1", round, len(got))
		}
		inOrder(fmt.Sprintf("round %d: Complete", round), got[0].Complete)
		if _, err := mirror.Refresh(); err != nil {
			t.Fatal(err)
		}
		inOrder(fmt.Sprintf("round %d: mirror", round), mirror.Result())
	}
}
