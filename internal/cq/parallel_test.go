package cq

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// TestPollIsolatesFailingCQ: one CQ whose trigger window has been
// garbage collected out from under it (ErrStaleWindow on every poll)
// must not starve the healthy CQs — the round continues, the error is
// aggregated into Poll's return and recorded in the failing CQ's state.
func TestPollIsolatesFailingCQ(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, Metrics: reg})
	defer func() { _ = m.Close() }()

	insertStock(t, s, "DEC", 150)
	if _, err := m.Register(Def{Name: "poisoned", Query: "SELECT * FROM stocks WHERE price > 120"}); err != nil {
		t.Fatal(err)
	}
	// Poison it: advance the low-water mark past its observation point,
	// so its next trigger evaluation needs a discarded window.
	insertStock(t, s, "IBM", 75)
	s.CollectGarbage(s.Now())
	if _, err := m.Register(Def{Name: "healthy", Query: "SELECT * FROM stocks WHERE price > 50"}); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		insertStock(t, s, fmt.Sprintf("R%d", round), 130)
		n, err := m.Poll()
		if !errors.Is(err, storage.ErrStaleWindow) {
			t.Fatalf("round %d: Poll err = %v, want ErrStaleWindow in the join", round, err)
		}
		if n != 1 {
			t.Fatalf("round %d: Poll refreshed %d CQs, want 1 (healthy continues)", round, n)
		}
		healthy, err := m.State("healthy")
		if err != nil {
			t.Fatal(err)
		}
		if healthy.Seq != 1+round || healthy.LastErr != nil {
			t.Fatalf("round %d: healthy state = %+v, want seq %d and no error", round, healthy, 1+round)
		}
		poisoned, err := m.State("poisoned")
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(poisoned.LastErr, storage.ErrStaleWindow) {
			t.Fatalf("round %d: poisoned LastErr = %v, want ErrStaleWindow", round, poisoned.LastErr)
		}
	}
	if got := reg.Snapshot().Counters["cq.refresh.errors"]; got < 2 {
		t.Errorf("cq.refresh.errors = %d, want >= 2", got)
	}
}

func TestRefreshOnClosedManager(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	if _, err := m.Register(Def{Name: "exp", Query: "SELECT * FROM stocks"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("exp"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Refresh on closed manager = %v, want ErrClosed", err)
	}
}

func TestCollectGarbageOnClosedManager(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true}) // no AutoGC
	if _, err := m.Register(Def{Name: "exp", Query: "SELECT * FROM stocks"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("exp"); err != nil {
		t.Fatal(err)
	}
	insertStock(t, s, "DEC", 150)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := m.CollectGarbage(); n != 0 {
		t.Fatalf("CollectGarbage on closed manager collected %d rows, want 0", n)
	}
	if n, _ := s.DeltaLen("stocks"); n == 0 {
		t.Fatal("closed manager must not have truncated the delta")
	}
}

// TestParallelPollMatchesSerial drives two managers — serial and
// 8-worker — through an identical update script over identical stores
// and demands identical results, sequence numbers, and refresh counts
// every round: the scheduler must be a pure throughput change.
func TestParallelPollMatchesSerial(t *testing.T) {
	type world struct {
		s *storage.Store
		m *Manager
	}
	mkWorld := func(parallelism int) world {
		s := storage.NewStore()
		for name, schema := range map[string]relation.Schema{
			"stocks":   stockSchema(),
			"accounts": accountSchema(),
		} {
			if err := s.CreateTable(name, schema); err != nil {
				t.Fatal(err)
			}
		}
		return world{s: s, m: NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Parallelism: parallelism})}
	}
	serial, parallel := mkWorld(1), mkWorld(8)
	defer func() { _ = serial.m.Close() }()
	defer func() { _ = parallel.m.Close() }()

	defs := []Def{
		{Name: "hi", Query: "SELECT * FROM stocks WHERE price > 120"},
		{Name: "lo", Query: "SELECT * FROM stocks WHERE price <= 120"},
		{Name: "all", Query: "SELECT * FROM stocks"},
		{Name: "names", Query: "SELECT name FROM stocks WHERE price > 60"},
		{Name: "total", Query: "SELECT SUM(amount) FROM accounts"},
		{Name: "rich", Query: "SELECT * FROM accounts WHERE amount > 500"},
		{Name: "join", Query: "SELECT stocks.name, accounts.amount FROM stocks, accounts WHERE stocks.name = accounts.owner"},
	}
	for _, w := range []world{serial, parallel} {
		for _, def := range defs {
			if _, err := w.m.Register(def); err != nil {
				t.Fatalf("register %s: %v", def.Name, err)
			}
		}
	}

	apply := func(w world, round int) {
		tx := w.s.Begin()
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("S%d_%d", round, i)
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Float(float64(40 + 17*i + round))}); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if _, err := tx.Insert("accounts", []relation.Value{relation.Str(name), relation.Float(float64(200*i + round))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 5; round++ {
		apply(serial, round)
		apply(parallel, round)
		ns, err := serial.m.Poll()
		if err != nil {
			t.Fatalf("serial poll: %v", err)
		}
		np, err := parallel.m.Poll()
		if err != nil {
			t.Fatalf("parallel poll: %v", err)
		}
		if ns != np {
			t.Fatalf("round %d: refreshes serial=%d parallel=%d", round, ns, np)
		}
		for _, def := range defs {
			rs, err := serial.m.Result(def.Name)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := parallel.m.Result(def.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !rs.EqualByTID(rp) {
				t.Fatalf("round %d: %s diverged.\nserial:\n%s\nparallel:\n%s", round, def.Name, rs, rp)
			}
			ss, _ := serial.m.State(def.Name)
			sp, _ := parallel.m.State(def.Name)
			if ss.Seq != sp.Seq {
				t.Fatalf("round %d: %s seq serial=%d parallel=%d", round, def.Name, ss.Seq, sp.Seq)
			}
		}
	}
}

// TestSeqOrderPreservedUnderParallelism asserts the per-CQ notification
// contract under a multi-worker pool: each CQ's subscribers see Seq
// strictly increasing by one, whatever order the workers ran in.
func TestSeqOrderPreservedUnderParallelism(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Parallelism: 8})
	defer func() { _ = m.Close() }()

	const nCQs, rounds = 16, 6
	chans := make([]<-chan Notification, nCQs)
	for i := 0; i < nCQs; i++ {
		name := fmt.Sprintf("cq%d", i)
		if _, err := m.Register(Def{Name: name, Query: "SELECT * FROM stocks"}); err != nil {
			t.Fatal(err)
		}
		ch, _, err := subscribeChan(m, name, rounds+2)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}

	for round := 0; round < rounds; round++ {
		insertStock(t, s, fmt.Sprintf("R%d", round), float64(100+round))
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	}

	for i, ch := range chans {
		notes := drain(ch)
		if len(notes) != rounds {
			t.Fatalf("cq%d: %d notifications, want %d", i, len(notes), rounds)
		}
		for j, n := range notes {
			if want := j + 2; n.Seq != want { // initial execution is Seq 1
				t.Fatalf("cq%d: notification %d has Seq %d, want %d", i, j, n.Seq, want)
			}
		}
	}
}

// TestConcurrentManagerStress runs Poll, Register, Drop, Subscribe,
// Refresh, reads, and commits concurrently. Its assertions are weak by
// design — the value is running the whole surface under -race.
func TestConcurrentManagerStress(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Parallelism: 4})

	for i := 0; i < 4; i++ {
		if _, err := m.Register(Def{Name: fmt.Sprintf("base%d", i), Query: "SELECT * FROM stocks WHERE price > 100"}); err != nil {
			t.Fatal(err)
		}
	}

	const commits = 150
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // committer: drives the clock, then signals shutdown
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			tx := s.Begin()
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("C%d", i)), relation.Float(float64(i % 250))}); err != nil {
				t.Error(err)
				return
			}
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	loop := func(f func()) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				f()
			}
		}
	}
	wg.Add(5)
	go loop(func() { _, _ = m.Poll() })
	go loop(func() { _ = m.Refresh("base0") })
	go loop(func() {
		name := "transient"
		if _, err := m.Register(Def{Name: name, Query: "SELECT * FROM stocks"}); err == nil {
			_ = m.Drop(name)
		}
	})
	go loop(func() {
		if ch, cancel, err := subscribeChan(m, "base1", 4); err == nil {
			drain(ch)
			cancel()
		}
	})
	go loop(func() {
		_, _ = m.State("base2")
		_ = m.Names()
		_, _ = m.Result("base3")
		_ = m.CollectGarbage()
	})
	wg.Wait()

	// The manager must still be coherent: one more commit and poll.
	insertStock(t, s, "FINAL", 200)
	if _, err := m.Poll(); err != nil {
		t.Fatalf("final poll: %v", err)
	}
	for i := 0; i < 4; i++ {
		st, err := m.State(fmt.Sprintf("base%d", i))
		if err != nil || st.Seq < 2 {
			t.Fatalf("base%d state = %+v err = %v", i, st, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelismDefaultIsParallel pins the contract that Parallelism 0
// resolves to GOMAXPROCS-many workers, so the parallel path is the
// default in every instrumented run.
func TestParallelismDefaultIsParallel(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if got := m.workerCount(1000); got < 1 {
		t.Fatalf("workerCount = %d", got)
	}
	if got := m.workerCount(2); got > 2 {
		t.Fatalf("workerCount must be capped by the round size, got %d", got)
	}
	m.cfg.Parallelism = 3
	if got := m.workerCount(1000); got != 3 {
		t.Fatalf("workerCount = %d, want 3", got)
	}
}
