package cq

// Cascading-CQ tests: a materializing query (SELECT ... INTO) commits
// its refresh deltas into a derived table, a downstream CQ consumes
// them, and the pipeline must stay transcript-equivalent to a flat
// query composing both predicates — under poll, push, and mixed
// scheduling, and across registration churn.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/cascade"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
)

// cascadeFixture registers the standard two-stage pipeline over stocks:
// mid materializes the >100 slice into hot, leaf reads hot for the >200
// slice, and flat computes the composed predicate directly — the
// recomputation oracle.
func cascadeFixture(t *testing.T, cfg Config) (*storage.Store, *Manager) {
	t.Helper()
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, cfg)
	t.Cleanup(func() { _ = m.Close() })
	if _, err := m.Register(Def{Name: "mid", Query: `SELECT name, price INTO hot FROM stocks WHERE price > 100`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "leaf", Query: `SELECT name, price FROM hot WHERE price > 200`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "flat", Query: `SELECT name, price FROM stocks WHERE price > 200`}); err != nil {
		t.Fatal(err)
	}
	return s, m
}

// cascadeScript drives a batch sequence of inserts, updates and deletes
// through the fixture, quiescing with sync and checking leaf == flat
// after every batch.
func cascadeScript(t *testing.T, s *storage.Store, m *Manager, sync func(batch int)) {
	t.Helper()
	tids := map[string]relation.TID{}
	put := func(name string, price float64) {
		commit(t, s, func(tx *storage.Tx) error {
			id, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Float(price)})
			tids[name] = id
			return err
		})
	}
	set := func(name string, price float64) {
		commit(t, s, func(tx *storage.Tx) error {
			return tx.Update("stocks", tids[name], []relation.Value{relation.Str(name), relation.Float(price)})
		})
	}
	del := func(name string) {
		commit(t, s, func(tx *storage.Tx) error {
			return tx.Delete("stocks", tids[name])
		})
	}

	batches := []func(){
		func() { put("DEC", 150); put("IBM", 250); put("HP", 80) },
		func() { set("DEC", 300); put("SUN", 220) },       // crosses both thresholds
		func() { del("IBM"); set("SUN", 120) },            // falls back below 200
		func() { set("HP", 500); set("DEC", 90) },         // swap membership
		func() { del("HP"); del("SUN"); put("MAC", 201) }, // near-boundary
		func() { set("MAC", 200) },                        // exits by one cent of margin
	}
	for i, b := range batches {
		b()
		sync(i)
		leaf, err := m.Result("leaf")
		if err != nil {
			t.Fatal(err)
		}
		flat, err := m.Result("flat")
		if err != nil {
			t.Fatal(err)
		}
		if !leaf.EqualContents(flat) {
			t.Fatalf("batch %d: leaf %v != flat %v", i, leaf, flat)
		}
		// The derived table itself must track mid's result exactly.
		hot, err := s.Contents("hot")
		if err != nil {
			t.Fatal(err)
		}
		midRes, err := m.Result("mid")
		if err != nil {
			t.Fatal(err)
		}
		if !hot.EqualContents(midRes) {
			t.Fatalf("batch %d: hot table %v != mid result %v", i, hot, midRes)
		}
	}
}

func TestCascadeEquivalencePoll(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true, AutoGC: true, Parallelism: 4})
	s := m.store
	cascadeScript(t, s, m, func(int) {
		// One staged round propagates the batch through both stages.
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCascadeEquivalencePush(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true, AutoGC: true, Parallelism: 4, Push: true})
	s := m.store
	cascadeScript(t, s, m, func(int) {
		// The commit hook already dispatched stage by stage; drain twice
		// so a leaf dispatch enqueued by mid's materialize commit is
		// covered even if it raced the first flush.
		m.FlushPush()
		m.FlushPush()
	})
}

func TestCascadeEquivalenceMixed(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true, AutoGC: true, Parallelism: 4, Push: true})
	s := m.store
	cascadeScript(t, s, m, func(batch int) {
		if batch%2 == 0 {
			m.FlushPush()
			m.FlushPush()
		}
		// Poll after (or instead of) the push drain: refreshes already
		// delivered by push are skipped by the monotonicity guard, and
		// whatever push has not covered yet is folded differentially.
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCascadeBaselineFullReevaluation runs the pipeline with UseDRA off:
// materialization must compose with complete re-evaluation too.
func TestCascadeBaselineFullReevaluation(t *testing.T) {
	_, m := cascadeFixture(t, Config{})
	s := m.store
	cascadeScript(t, s, m, func(int) {
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCascadeThreeStageRollup(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true})
	defer m.Close()
	for _, def := range []Def{
		{Name: "s1", Query: `SELECT name, price INTO d1 FROM stocks WHERE price > 10`},
		{Name: "s2", Query: `SELECT name, price INTO d2 FROM d1 WHERE price > 20`},
		{Name: "s3", Query: `SELECT name, price INTO d3 FROM d2 WHERE price > 30`},
		{Name: "end", Query: `SELECT name, price FROM d3`},
	} {
		if _, err := m.Register(def); err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
	}
	if got := []int{m.dag.Stage("s1"), m.dag.Stage("s2"), m.dag.Stage("s3"), m.dag.Stage("end")}; got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("stages = %v", got)
	}
	for i := 0; i < 50; i++ {
		insertStock(t, s, fmt.Sprintf("T%d", i), float64(i))
	}
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	res, err := m.Result("end")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dra.InitialResult(mustPlan(t, `SELECT name, price FROM stocks WHERE price > 30`, s), s.Live())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EqualContents(oracle) {
		t.Fatalf("end %v != oracle %v", res, oracle)
	}
}

func TestCascadeCycleRejected(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{
		"stocks": stockSchema(),
		"orphan": stockSchema(), // producerless table: the self-feed path
	})
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer m.Close()
	if _, err := m.Register(Def{Name: "self", Query: `SELECT name, price INTO orphan FROM orphan`}); !errors.Is(err, cascade.ErrCycle) {
		t.Fatalf("self-feed: %v", err)
	}
	// Transitive: stocks -> d1 -> d2, then d2 -> stocks closes the loop.
	if _, err := m.Register(Def{Name: "a", Query: `SELECT name, price INTO d1 FROM stocks`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "b", Query: `SELECT name, price INTO d2 FROM d1`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "c", Query: `SELECT name, price INTO stocks FROM d2`}); !errors.Is(err, cascade.ErrCycle) {
		t.Fatalf("transitive: %v", err)
	}
	// The rejected registrations left no instance and no DAG residue.
	if _, err := m.Result("self"); !errors.Is(err, ErrNoSuchCQ) {
		t.Fatalf("self leaked: %v", err)
	}
	if deps := m.dag.TableDependents("d2"); deps != nil {
		t.Fatalf("c leaked reader edges: %v", deps)
	}
}

// TestCascadeDepthBound: a materialization pipeline may be
// cascade.DefaultMaxDepth stages deep and no deeper, and a terminal
// reader of its last stage stays registrable.
func TestCascadeDepthBound(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer m.Close()
	from := "stocks"
	for stage := 1; stage <= cascade.DefaultMaxDepth; stage++ {
		into := fmt.Sprintf("d%d", stage)
		if _, err := m.Register(Def{Name: "p" + into, Query: "SELECT name, price INTO " + into + " FROM " + from}); err != nil {
			t.Fatalf("stage %d: %v", stage, err)
		}
		from = into
	}
	if _, err := m.Register(Def{Name: "deeper", Query: "SELECT name, price INTO past FROM " + from}); !errors.Is(err, cascade.ErrTooDeep) {
		t.Fatalf("stage %d at bound %d: %v", cascade.DefaultMaxDepth+1, cascade.DefaultMaxDepth, err)
	}
	// Terminal readers at the same depth stay registrable.
	if _, err := m.Register(Def{Name: "leaf", Query: "SELECT name, price FROM " + from}); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeNamespaceCollisions(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{
		"stocks": stockSchema(),
		"taken": relation.MustSchema( // shape differs from the query output
			relation.Column{Name: "name", Type: relation.TString},
			relation.Column{Name: "shares", Type: relation.TInt},
		),
	})
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer m.Close()

	// A CQ may not take a base table's name.
	if _, err := m.Register(Def{Name: "stocks", Query: `SELECT name FROM stocks`}); !errors.Is(err, ErrNameCollision) {
		t.Fatalf("cq shadowing table: %v", err)
	}
	// An INTO target may not collide with a differently-shaped table.
	if _, err := m.Register(Def{Name: "q", Query: `SELECT name, price INTO taken FROM stocks`}); !errors.Is(err, ErrNameCollision) {
		t.Fatalf("into mismatched table: %v", err)
	}
	// Nor with the query's own name, nor a registered CQ.
	if _, err := m.Register(Def{Name: "q", Query: `SELECT name, price INTO q FROM stocks`}); !errors.Is(err, ErrNameCollision) {
		t.Fatalf("into self: %v", err)
	}
	if _, err := m.Register(Def{Name: "watch", Query: `SELECT name FROM stocks`}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "q", Query: `SELECT name, price INTO watch FROM stocks`}); !errors.Is(err, ErrNameCollision) {
		t.Fatalf("into cq name: %v", err)
	}
	// CREATE TABLE through the manager may not shadow a CQ.
	if err := m.CreateTable("watch", stockSchema()); !errors.Is(err, ErrNameCollision) {
		t.Fatalf("table shadowing cq: %v", err)
	}
}

func TestCascadeDropDependents(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true})
	s := m.store

	var de *cascade.DependentsError
	if err := m.Drop("mid"); !errors.As(err, &de) {
		t.Fatalf("drop producer with reader: %v", err)
	} else if len(de.Dependents) != 1 || de.Dependents[0] != "leaf" {
		t.Fatalf("dependents = %v", de.Dependents)
	}
	// Base tables with readers refuse too, listing every reader.
	de = nil
	if err := m.DropTable("stocks"); !errors.As(err, &de) {
		t.Fatalf("drop read table: %v", err)
	} else if len(de.Dependents) != 2 { // mid and flat
		t.Fatalf("dependents = %v", de.Dependents)
	}
	// A derived table is dropped via its producer, never directly.
	if err := m.DropTable("hot"); err == nil {
		t.Fatal("derived table dropped directly")
	}
	// Dropping leaf frees mid; dropping mid takes the derived table.
	if err := m.Drop("leaf"); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("mid"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schema("hot"); err == nil {
		t.Fatal("derived table survived its producer")
	}
}

// TestCascadeOrphanAdoption re-registers a producer over a target table
// left behind by a crashed registration: same shape, no producer — the
// registration adopts it and reconciles its contents to the initial
// result instead of failing or double-creating.
func TestCascadeOrphanAdoption(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{
		"stocks": stockSchema(),
		"hot":    stockSchema(), // the orphan, with stale contents
	})
	commit(t, s, func(tx *storage.Tx) error {
		_, err := tx.Insert("hot", []relation.Value{relation.Str("STALE"), relation.Float(999)})
		return err
	})
	insertStock(t, s, "DEC", 150)
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer m.Close()
	initial, err := m.Register(Def{Name: "mid", Query: `SELECT name, price INTO hot FROM stocks WHERE price > 100`})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := s.Contents("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !hot.EqualContents(initial) {
		t.Fatalf("adopted target %v != initial %v", hot, initial)
	}
}

// TestCascadeReaderBeforeProducer registers a terminal CQ over an
// orphan table FIRST, then a producer INTO that table: the reader must
// be promoted to stage 1 retroactively so one staged Poll still
// propagates base-table commits through to it.
func TestCascadeReaderBeforeProducer(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{
		"stocks": stockSchema(),
		"hot":    stockSchema(), // orphan target, readers arrive first
	})
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer m.Close()
	if _, err := m.Register(Def{Name: "leaf", Query: `SELECT name, price FROM hot WHERE price > 200`}); err != nil {
		t.Fatal(err)
	}
	if got := m.dag.Stage("leaf"); got != 0 {
		t.Fatalf("leaf stage before producer = %d", got)
	}
	if _, err := m.Register(Def{Name: "mid", Query: `SELECT name, price INTO hot FROM stocks WHERE price > 100`}); err != nil {
		t.Fatal(err)
	}
	if got := m.dag.Stage("leaf"); got != 1 {
		t.Fatalf("leaf stage after producer = %d", got)
	}
	insertStock(t, s, "DEC", 250)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	leaf, err := m.Result("leaf")
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Len() != 1 {
		t.Fatalf("one poll did not propagate through the adopted target: %v", leaf)
	}
}

// TestCascadeChurnDAG registers and drops pipeline segments while
// writers commit and refreshes run — the `make chaos` cascade case; run
// it under -race.
func TestCascadeChurnDAG(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true, AutoGC: true, Parallelism: 4, Push: true})
	s := m.store

	var wg sync.WaitGroup
	wg.Add(3)
	// guarded: test goroutine, joined by wg.Wait below.
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			tx := s.Begin()
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("W%d", i)), relation.Float(float64(i * 3))}); err != nil {
				tx.Abort()
				t.Error(err)
				return
			}
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// guarded: test goroutine, joined by wg.Wait below.
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			mid := fmt.Sprintf("churn_mid_%d", i%3)
			tgt := fmt.Sprintf("churn_tmp_%d", i%3)
			leaf := fmt.Sprintf("churn_leaf_%d", i%3)
			if _, err := m.Register(Def{Name: mid, Query: fmt.Sprintf(`SELECT name, price INTO %s FROM stocks WHERE price > 50`, tgt)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Register(Def{Name: leaf, Query: fmt.Sprintf(`SELECT name, price FROM %s WHERE price > 100`, tgt)}); err != nil {
				t.Error(err)
				return
			}
			if err := m.Drop(leaf); err != nil {
				t.Error(err)
				return
			}
			if err := m.Drop(mid); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// guarded: test goroutine, joined by wg.Wait below.
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_, _ = m.Poll()
		}
	}()
	wg.Wait()

	// Quiesce and verify the stable pipeline against recomputation.
	m.FlushPush()
	m.FlushPush()
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	leaf, err := m.Result("leaf")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dra.InitialResult(mustPlan(t, `SELECT name, price FROM stocks WHERE price > 200`, s), s.Live())
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.EqualContents(oracle) {
		t.Fatalf("after churn: leaf %v != oracle %v", leaf, oracle)
	}
}

// TestCascadeDeps checks the DAG snapshot surfaces stages in
// topological order.
func TestCascadeDeps(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true})
	nodes := m.Deps()
	if len(nodes) != 3 {
		t.Fatalf("nodes = %+v", nodes)
	}
	byName := map[string]cascade.Node{}
	for _, n := range nodes {
		byName[n.CQ] = n
	}
	if n := byName["mid"]; n.Target != "hot" || n.Stage != 0 {
		t.Fatalf("mid = %+v", n)
	}
	if n := byName["leaf"]; n.Target != "" || n.Stage != 1 {
		t.Fatalf("leaf = %+v", n)
	}
	if nodes[len(nodes)-1].CQ != "leaf" {
		t.Fatalf("topological order violated: %+v", nodes)
	}
}

// TestCascadePerTableGC: a lagging terminal reader must pin only its own
// operand (the derived table), not the base table other CQs have long
// caught up on.
func TestCascadePerTableGC(t *testing.T) {
	_, m := cascadeFixture(t, Config{UseDRA: true}) // no AutoGC: collect explicitly
	s := m.store
	cascadeScript(t, s, m, func(int) {
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	})
	// Everyone is caught up: a collection should strip both tables'
	// windows to (at most) their final refresh horizon.
	m.CollectGarbage()
	n, err := s.DeltaLen("stocks")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("stocks delta rows after GC = %d", n)
	}
	if n, err = s.DeltaLen("hot"); err != nil || n != 0 {
		t.Fatalf("hot delta rows after GC = %d (%v)", n, err)
	}
}

// mustPlan compiles a SELECT against the live store, for oracle
// evaluation in tests.
func mustPlan(t *testing.T, query string, s *storage.Store) algebra.Plan {
	t.Helper()
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.PlanSelect(stmt, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Optimize(plan)
}
