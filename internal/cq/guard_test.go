package cq

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// faultMaint is an injectable step fault: it panics or errors.
type faultMaint struct {
	panics bool
	err    error
}

func (f *faultMaint) step() error {
	if f.panics {
		panic("injected refresh panic")
	}
	if f.err != nil {
		return f.err
	}
	return errors.New("faultMaint: no failure configured")
}

func getInst(t *testing.T, m *Manager, name string) *instance {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	inst := m.cqs[name]
	if inst == nil {
		t.Fatalf("no instance %q", name)
	}
	return inst
}

// maintained reports whether the CQ's evaluator keeps a group table.
func maintained(t *testing.T, m *Manager, name string) bool {
	t.Helper()
	inst := getInst(t, m, name)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	_, ok := inst.eval.Groups()
	return ok
}

// injectMaint makes every step of the instance fail with the fault; a nil
// fault restores the evaluator the CQ registered with.
func injectMaint(t *testing.T, m *Manager, name string, f *faultMaint) {
	t.Helper()
	inst := getInst(t, m, name)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	inst.fault = nil
	if f != nil {
		inst.fault = f.step
	}
}

func updatesTrigger() sql.TriggerSpec {
	return sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 1}
}

// renderNote is a canonical textual form of a notification for
// transcript comparison; row order is sorted so it is insensitive to
// relation iteration order.
func renderNote(n Notification) string {
	rows := func(r *relation.Relation) string {
		if r == nil {
			return "-"
		}
		var vs []string
		for _, tu := range r.Tuples() {
			vs = append(vs, fmt.Sprintf("%v", tu.Values))
		}
		sort.Strings(vs)
		return strings.Join(vs, ",")
	}
	return fmt.Sprintf("seq=%d ts=%d term=%v dropped=%d ins=[%s] del=[%s] full=[%s]",
		n.Seq, n.ExecTS, n.Terminated, n.Dropped,
		rows(n.Inserted()), rows(n.Deleted()), rows(n.Complete))
}

// chaosRun drives a fixed workload against three healthy CQs and, when
// withFaults is set, a panicking and an erroring CQ alongside, under the
// refresh budget given (0: none). It returns the healthy CQs' full
// notification transcripts.
func chaosRun(t *testing.T, withFaults bool, budget time.Duration) map[string][]string {
	t.Helper()
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 4,
		Metrics: obs.NewRegistry(),
		Guard:   guard.Policy{Budget: budget, FailureThreshold: 3, BackoffBase: time.Hour},
	})
	defer func() { _ = m.Close() }()

	healthy := map[string]string{
		"hi":  "SELECT * FROM stocks WHERE price > 100",
		"lo":  "SELECT * FROM stocks WHERE price < 50",
		"mid": "SELECT name FROM stocks WHERE price >= 50 AND price <= 100",
	}
	transcripts := make(map[string][]string)
	var tmu sync.Mutex
	for name, q := range healthy {
		if _, err := m.Register(Def{Name: name, Query: q, Trigger: updatesTrigger()}); err != nil {
			t.Fatal(err)
		}
		name := name
		if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
			if closed {
				return
			}
			tmu.Lock()
			transcripts[name] = append(transcripts[name], renderNote(n))
			tmu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if withFaults {
		for name, f := range map[string]*faultMaint{
			"boom": {panics: true},
			"sick": {err: errors.New("injected refresh error")},
		} {
			if _, err := m.Register(Def{
				Name: name, Query: "SELECT * FROM stocks WHERE price > 0",
				Trigger: updatesTrigger(),
			}); err != nil {
				t.Fatal(err)
			}
			injectMaint(t, m, name, f)
		}
	}

	sawError := false
	for i := 0; i < 30; i++ {
		insertStock(t, s, fmt.Sprintf("S%02d", i), float64((i*37)%150))
		if _, err := m.Poll(); err != nil {
			sawError = true
			if !withFaults {
				t.Fatalf("fault-free poll %d: %v", i, err)
			}
		}
	}
	if withFaults {
		if !sawError {
			t.Fatal("fault run never surfaced a refresh error")
		}
		for _, name := range []string{"boom", "sick"} {
			st, err := m.State(name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Health != "quarantined" {
				t.Errorf("%s health = %q, want quarantined", name, st.Health)
			}
			if st.LastErr == nil {
				t.Errorf("%s has no LastErr", name)
			}
		}
		var pe *guard.PanicError
		st, _ := m.State("boom")
		if !errors.As(st.LastErr, &pe) {
			t.Errorf("boom LastErr = %v, want PanicError", st.LastErr)
		}
		snap := m.Stats()
		if snap.Counters["cq.refresh.panics"] == 0 {
			t.Error("cq.refresh.panics not counted")
		}
		if snap.Counters["cq.quarantines"] < 2 {
			t.Errorf("cq.quarantines = %d, want >= 2", snap.Counters["cq.quarantines"])
		}
	}
	return transcripts
}

// TestChaosFaultIsolation is the E19 acceptance property at unit scale:
// healthy CQs' notification transcripts are byte-identical whether or
// not faulty CQs (panicking, erroring) run alongside them, and whether
// or not a refresh budget is set — a budgeted refresh runs on the same
// path and a panic under it is isolated the same way — and the runs
// leak no goroutines.
func TestChaosFaultIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	clean := chaosRun(t, false, 0)
	for _, run := range []struct {
		faults bool
		budget time.Duration
	}{{true, 0}, {false, time.Minute}, {true, time.Minute}} {
		got := chaosRun(t, run.faults, run.budget)
		for name, want := range clean {
			if !slices.Equal(got[name], want) {
				t.Errorf("%s with faults=%v under budget %v:\n got:  %v\n want: %v",
					name, run.faults, run.budget, got[name], want)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestQuarantineLifecycle walks the full breaker state machine:
// healthy -> (consecutive failures) -> quarantined (polls skip it) ->
// (backoff elapses, fault removed) -> probe succeeds -> healthy again,
// with the probe's notification covering the whole missed window
// differentially and Seq staying gap-free.
func TestQuarantineLifecycle(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	advance := func(d time.Duration) { nowMu.Lock(); now = now.Add(d); nowMu.Unlock() }

	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 1, Metrics: reg,
		Guard: guard.Policy{FailureThreshold: 2, BackoffBase: time.Second, BackoffMax: time.Minute, Now: clock},
	})
	defer func() { _ = m.Close() }()

	if _, err := m.Register(Def{
		Name: "bad", Query: "SELECT * FROM stocks WHERE price > 100",
		Trigger: updatesTrigger(),
	}); err != nil {
		t.Fatal(err)
	}
	injectMaint(t, m, "bad", &faultMaint{err: errors.New("injected")})

	// Two failing polls trip the threshold-2 breaker.
	insertStock(t, s, "F1", 150)
	if _, err := m.Poll(); err == nil {
		t.Fatal("first failing poll returned nil error")
	}
	st, _ := m.State("bad")
	if st.Health != "healthy" || st.Failures != 1 {
		t.Fatalf("after 1 failure: health=%q failures=%d", st.Health, st.Failures)
	}
	insertStock(t, s, "F2", 160)
	if _, err := m.Poll(); err == nil {
		t.Fatal("second failing poll returned nil error")
	}
	st, _ = m.State("bad")
	if st.Health != "quarantined" || st.Failures != 2 {
		t.Fatalf("after 2 failures: health=%q failures=%d", st.Health, st.Failures)
	}

	// While quarantined (backoff not served), polls skip the CQ: no
	// refresh attempt, no new error, skip counter advances.
	skipsBefore := m.Stats().Counters["cq.quarantine.skips"]
	insertStock(t, s, "F3", 170)
	if _, err := m.Poll(); err != nil {
		t.Fatalf("poll over quarantined CQ errored: %v", err)
	}
	if skips := m.Stats().Counters["cq.quarantine.skips"]; skips != skipsBefore+1 {
		t.Errorf("quarantine skips = %d, want %d", skips, skipsBefore+1)
	}
	st, _ = m.State("bad")
	if st.Seq != 1 {
		t.Fatalf("quarantined CQ refreshed: seq=%d", st.Seq)
	}

	// Heal the fault, serve the backoff, and let the probe through. The
	// single probe must catch up differentially: one notification, one
	// Seq increment, covering every row missed during quarantine.
	injectMaint(t, m, "bad", nil)
	advance(10 * time.Second)
	probeCh, cancelProbe, err := subscribeChan(m, "bad", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelProbe()
	insertStock(t, s, "F4", 180)
	if _, err := m.Poll(); err != nil {
		t.Fatalf("probe poll: %v", err)
	}
	st, _ = m.State("bad")
	if st.Health != "healthy" || st.Failures != 0 || st.LastErr != nil {
		t.Fatalf("after probe: %+v", st)
	}
	if st.Seq != 2 {
		t.Fatalf("probe seq = %d, want 2 (gap-free)", st.Seq)
	}
	notes := drain(probeCh)
	if len(notes) != 1 {
		t.Fatalf("probe notifications = %d", len(notes))
	}
	if notes[0].Inserted().Len() != 4 {
		t.Errorf("catch-up covered %d rows, want 4 (F1-F4)", notes[0].Inserted().Len())
	}
}

// TestManualRefreshProbesQuarantined: an operator Refresh bypasses the
// backoff gate — it is the manual probe — and a success heals the CQ
// immediately.
func TestManualRefreshProbesQuarantined(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true,
		Guard: guard.Policy{FailureThreshold: 1, BackoffBase: time.Hour},
	})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name: "bad", Query: "SELECT * FROM stocks WHERE price > 100",
		Trigger: updatesTrigger(),
	}); err != nil {
		t.Fatal(err)
	}
	injectMaint(t, m, "bad", &faultMaint{err: errors.New("injected")})
	insertStock(t, s, "A", 150)
	if _, err := m.Poll(); err == nil {
		t.Fatal("failing poll returned nil")
	}
	if st, _ := m.State("bad"); st.Health != "quarantined" {
		t.Fatalf("health = %q", st.Health)
	}
	// Backoff is an hour out, but the operator probe goes through.
	injectMaint(t, m, "bad", nil)
	if err := m.Refresh("bad"); err != nil {
		t.Fatalf("manual refresh: %v", err)
	}
	st, _ := m.State("bad")
	if st.Health != "healthy" || st.Seq != 2 {
		t.Fatalf("after manual probe: %+v", st)
	}
}

// The poison CQs of TestBudgetTimeout run a `<`-theta join, which can
// only be enumerated in full: each step pairs the probe rows with every
// one of the poisonWide rows of wide and runs the predicate, which no
// pair passes. The differential one pairs the poisonProbe rows one
// commit inserts (crossStepVec, a chunk of the product at a time);
// unbudgeted, that step takes about 110 ms and allocates under 1 MiB on
// a 2-core x86-64 box (TestPoisonStepMemory): at least 10× poisonBudget.
// The complete one (HAVING puts it on complete re-evaluation) runs the
// row executor's nested loop over all of probe, one poll's worth more
// each time.
const (
	poisonProbe, poisonWide = 100, 10000
	poisonBudget            = 10 * time.Millisecond
	poisonJoin              = " FROM probe p, wide w WHERE p.x < w.y"
)

// TestBudgetTimeout: a refresh whose step cannot finish inside the
// budget stops at the deadline inside the kernels or the row executor,
// on its worker. The Poll returns within about twice the budget with
// the instance lock free, the healthy CQ refreshed in the same Poll is
// not held up, the verdict is the poison CQ's LastErr, and the breaker
// quarantines the CQ after FailureThreshold polls: a step that cannot
// finish inside the budget fails every attempt.
func TestBudgetTimeout(t *testing.T) {
	for _, tc := range []struct{ name, query string }{
		{"differential", "SELECT p.x, w.y" + poisonJoin},
		{"complete", "SELECT p.x, COUNT(*) AS n" + poisonJoin + " GROUP BY p.x HAVING COUNT(*) > 0"},
	} {
		t.Run(tc.name, func(t *testing.T) { budgetTimeout(t, tc.query) })
	}
}

// newPoisonStore is a store with the stocks table, an empty probe and
// the poisonWide rows of wide.
func newPoisonStore(t *testing.T) *storage.Store {
	t.Helper()
	probeSchema := relation.MustSchema(relation.Column{Name: "x", Type: relation.TInt})
	wideSchema := relation.MustSchema(relation.Column{Name: "y", Type: relation.TInt})
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "probe": probeSchema, "wide": wideSchema})
	commit(t, s, func(tx *storage.Tx) error {
		for i := 0; i < poisonWide; i++ {
			if _, err := tx.Insert("wide", []relation.Value{relation.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	return s
}

// insertProbes inserts n probe rows from x on, past every y of wide.
func insertProbes(tx *storage.Tx, x, n int) ([]relation.TID, error) {
	tids := make([]relation.TID, 0, n)
	for i := 0; i < n; i++ {
		tid, err := tx.Insert("probe", []relation.Value{relation.Int(int64(poisonWide + x + i))})
		if err != nil {
			return nil, err
		}
		tids = append(tids, tid)
	}
	return tids, nil
}

// budgetTimeout is one case of TestBudgetTimeout.
func budgetTimeout(t *testing.T, poison string) {
	s := newPoisonStore(t)
	const threshold = 3
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 1, Metrics: obs.NewRegistry(),
		Guard: guard.Policy{Budget: poisonBudget, FailureThreshold: threshold, BackoffBase: time.Hour},
	})
	defer func() { _ = m.Close() }()
	for _, def := range []Def{
		{Name: "poison", Query: poison, Trigger: updatesTrigger()},
		{Name: "healthy", Query: "SELECT * FROM stocks WHERE price > 0", Trigger: updatesTrigger()},
	} {
		if _, err := m.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	var delivered atomic.Int64 // nanoseconds from the Poll's start, 0 before delivery
	var pollStart time.Time
	if _, err := m.SubscribeFunc("healthy", func(n Notification, closed bool) {
		if !closed {
			delivered.Store(int64(time.Since(pollStart)))
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Under -race on 2 cores a check every few thousand rows, the round
	// around the two refreshes and the healthy one's delivery need a
	// little more than the budget's second half.
	const within = 2*poisonBudget + 50*time.Millisecond
	for poll := 1; poll <= threshold; poll++ {
		commit(t, s, func(tx *storage.Tx) error {
			if _, err := insertProbes(tx, poll*poisonProbe, poisonProbe); err != nil {
				return err
			}
			_, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("S%d", poll)), relation.Float(10)})
			return err
		})
		delivered.Store(0)
		pollStart = time.Now()
		_, err := m.Poll()
		took := time.Since(pollStart)
		t.Logf("poll %d: %v", poll, took)
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("poll %d: error = %v, want ErrBudgetExceeded", poll, err)
		}
		if took > within {
			t.Errorf("poll %d took %v under a %v budget", poll, took, poisonBudget)
		}
		if d := time.Duration(delivered.Load()); d == 0 || d > within {
			t.Errorf("poll %d: the healthy CQ delivered %v after the poll began (0: not at all)", poll, d)
		}
		inst := getInst(t, m, "poison")
		if !inst.mu.TryLock() {
			t.Fatalf("poll %d returned with the poison CQ's instance lock held", poll)
		}
		inst.mu.Unlock()
		st, err := m.State("poison")
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(st.LastErr, guard.ErrBudgetExceeded) {
			t.Errorf("poll %d: LastErr = %v, want ErrBudgetExceeded", poll, st.LastErr)
		}
		if n := m.Stats().Counters["cq.refresh.timeouts"]; n != int64(poll) {
			t.Errorf("poll %d: cq.refresh.timeouts = %d", poll, n)
		}
		if want := map[bool]string{false: "healthy", true: "quarantined"}[poll == threshold]; st.Health != want {
			t.Errorf("poll %d: health %q, want %q", poll, st.Health, want)
		}
		if st.Seq != 1 {
			t.Errorf("poll %d: the poison CQ advanced to Seq %d", poll, st.Seq)
		}
	}
	if st, _ := m.State("healthy"); st.Seq != 1+threshold || st.LastErr != nil {
		t.Errorf("healthy CQ at Seq %d (LastErr %v), want %d", st.Seq, st.LastErr, 1+threshold)
	}
}

// TestPoisonStepMemory: a poison step, unbudgeted, runs to the end and
// emits nothing, holding what survives its predicate plus a chunk of
// candidates, not the product. The differential step allocates under a
// tenth of the 206 MiB the materialized product took; complete
// re-evaluation, whose row executor evaluates ON on one scratch pair,
// under a tenth of the 64 MiB it took when it built every pair first.
func TestPoisonStepMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	for _, tc := range []struct {
		name, query string
		limit       uint64
	}{
		{"differential", "SELECT p.x, w.y" + poisonJoin, 206 << 20 / 10},
		{"complete", "SELECT p.x, COUNT(*) AS n" + poisonJoin + " GROUP BY p.x HAVING COUNT(*) > 0", 64 << 20 / 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newPoisonStore(t)
			m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Parallelism: 1})
			defer func() { _ = m.Close() }()
			if _, err := m.Register(Def{Name: "poison", Query: tc.query, Trigger: updatesTrigger()}); err != nil {
				t.Fatal(err)
			}
			commit(t, s, func(tx *storage.Tx) error {
				_, err := insertProbes(tx, 0, poisonProbe)
				return err
			})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if n, err := m.Poll(); err != nil || n != 1 {
				t.Fatalf("poll refreshed %d, %v; want 1", n, err)
			}
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("unbudgeted poison step: %v, %.1f MiB allocated", took, float64(alloc)/(1<<20))
			if st, _ := m.State("poison"); st.Seq != 2 || st.ResultLen != 0 {
				t.Errorf("poison CQ after its step: %+v, want Seq 2 and no rows", st)
			}
			if alloc > tc.limit {
				t.Errorf("the step allocated %d bytes, want under %d", alloc, tc.limit)
			}
		})
	}
}

// TestBudgetSharedTemplate: a template group's step stopped at its
// deadline fails the round once. The first member of the round pays the
// budget; the others get its error without stepping (and re-seeding)
// the group again, so a Poll over many members returns within about one
// budget, not one per member, and the breaker quarantines every member
// after FailureThreshold polls.
func TestBudgetSharedTemplate(t *testing.T) {
	s := newPoisonStore(t)
	const members, threshold = 16, 3
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 1, ShareTemplates: true, Metrics: obs.NewRegistry(),
		Guard: guard.Policy{Budget: poisonBudget, FailureThreshold: threshold, BackoffBase: time.Hour},
	})
	defer func() { _ = m.Close() }()
	for i := 0; i < members; i++ {
		q := fmt.Sprintf("SELECT p.x, w.y%s AND p.x > %d", poisonJoin, i)
		if _, err := m.Register(Def{Name: fmt.Sprintf("t%02d", i), Query: q, Trigger: updatesTrigger()}); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Stats().Gauges["cq.templates"]; n != 1 {
		t.Fatalf("cq.templates = %d, want the members in one group", n)
	}
	// Stepping the group once per member would take members × budget.
	const within = 2*poisonBudget + 50*time.Millisecond
	for poll := 1; poll <= threshold; poll++ {
		commit(t, s, func(tx *storage.Tx) error {
			_, err := insertProbes(tx, poll*poisonProbe, poisonProbe)
			return err
		})
		start := time.Now()
		_, err := m.Poll()
		took := time.Since(start)
		t.Logf("poll %d: %v", poll, took)
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("poll %d: error = %v, want ErrBudgetExceeded", poll, err)
		}
		if took > within {
			t.Errorf("poll %d took %v under a %v budget: the group stepped more than once", poll, took, poisonBudget)
		}
		if n := m.Stats().Counters["cq.refresh.timeouts"]; n != int64(poll*members) {
			t.Errorf("poll %d: cq.refresh.timeouts = %d, want %d", poll, n, poll*members)
		}
	}
	for i := 0; i < members; i++ {
		st, err := m.State(fmt.Sprintf("t%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Health != "quarantined" || !errors.Is(st.LastErr, guard.ErrBudgetExceeded) {
			t.Errorf("t%02d: health %q, LastErr %v", i, st.Health, st.LastErr)
		}
	}
}

// TestBudgetReseedOutsideDeadline: the re-seed after a stopped step runs
// outside the budget, as registration's seed does, so a CQ whose seed
// alone outlasts its budget recovers once a window fits. The poison
// CQ's seed pairs reseedProbe rows with all of wide (about three
// budgets' work); one window's burst overruns and clears the position;
// the burst is deleted again, so the next window nets to nothing, and
// that refresh re-seeds and succeeds.
func TestBudgetReseedOutsideDeadline(t *testing.T) {
	const reseedProbe = 20
	s := newPoisonStore(t)
	commit(t, s, func(tx *storage.Tx) error {
		_, err := insertProbes(tx, 0, reseedProbe)
		return err
	})
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 1, Metrics: obs.NewRegistry(),
		Guard: guard.Policy{Budget: poisonBudget, FailureThreshold: 3, BackoffBase: time.Hour},
	})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "poison", Query: "SELECT p.x, w.y" + poisonJoin, Trigger: updatesTrigger()}); err != nil {
		t.Fatal(err)
	}
	var burst []relation.TID
	commit(t, s, func(tx *storage.Tx) error {
		var err error
		burst, err = insertProbes(tx, reseedProbe, poisonProbe)
		return err
	})
	if _, err := m.Poll(); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("poll over the burst: error = %v, want ErrBudgetExceeded", err)
	}
	commit(t, s, func(tx *storage.Tx) error {
		for _, tid := range burst {
			if err := tx.Delete("probe", tid); err != nil {
				return err
			}
		}
		return nil
	})
	start := time.Now()
	if _, err := m.Poll(); err != nil {
		t.Fatalf("poll after the burst (re-seed, then an empty window): %v", err)
	}
	t.Logf("re-seed and step: %v", time.Since(start))
	st, err := m.State("poison")
	if err != nil {
		t.Fatal(err)
	}
	if st.LastErr != nil || st.Failures != 0 {
		t.Errorf("after the re-seed: LastErr %v, %d failures", st.LastErr, st.Failures)
	}
}

// TestHealthCounts: Manager.Health aggregates per-CQ breaker states and
// names the degraded queries.
func TestHealthCounts(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Metrics: obs.NewRegistry(),
		Guard: guard.Policy{FailureThreshold: 1, BackoffBase: time.Hour},
	})
	defer func() { _ = m.Close() }()
	for _, def := range []Def{
		{Name: "good", Query: "SELECT * FROM stocks WHERE price > 100", Trigger: updatesTrigger()},
		{Name: "bad", Query: "SELECT * FROM stocks WHERE price > 0", Trigger: updatesTrigger()},
	} {
		if _, err := m.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	injectMaint(t, m, "bad", &faultMaint{err: errors.New("injected")})
	insertStock(t, s, "A", 150)
	_, _ = m.Poll()

	h := m.Health()
	if h.Healthy != 1 || h.Quarantined != 1 || h.Probation != 0 {
		t.Fatalf("health = %+v", h)
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != "bad" {
		t.Fatalf("degraded = %v", h.Degraded)
	}
	snap := m.Stats()
	if snap.Gauges["cq.health.healthy"] != 1 || snap.Gauges["cq.health.quarantined"] != 1 {
		t.Errorf("health gauges = healthy:%d quarantined:%d",
			snap.Gauges["cq.health.healthy"], snap.Gauges["cq.health.quarantined"])
	}
}

// refreshOnce inserts a row and polls, failing the test on error.
func refreshOnce(t *testing.T, s *storage.Store, m *Manager, name string, price float64) {
	t.Helper()
	insertStock(t, s, name, price)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriberPanicDisconnects: a panicking callback subscriber is
// detached; the other subscribers on the same CQ keep receiving.
func TestSubscriberPanicDisconnects(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Metrics: reg, Logf: func(string, ...any) {}})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name: "q", Query: "SELECT * FROM stocks WHERE price > 0",
		Trigger: updatesTrigger(),
	}); err != nil {
		t.Fatal(err)
	}
	var fnCalls atomic.Int64
	cancelFn, err := m.SubscribeFunc("q", func(n Notification, closed bool) {
		if closed {
			return
		}
		fnCalls.Add(1)
		panic("subscriber bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancelFn()
	ch, cancelCh, err := subscribeChan(m, "q", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelCh()

	refreshOnce(t, s, m, "A", 10)
	refreshOnce(t, s, m, "B", 20)

	if got := fnCalls.Load(); got != 1 {
		t.Errorf("panicking subscriber called %d times, want 1 (detached after panic)", got)
	}
	if notes := drain(ch); len(notes) != 2 {
		t.Errorf("channel subscriber got %d notifications, want 2", len(notes))
	}
	if got := reg.Snapshot().Counters["cq.subscriber_panics"]; got != 1 {
		t.Errorf("cq.subscriber_panics = %d", got)
	}
}

// blockJournal records registry operations in order and, once armed,
// parks CQExecuted on a gate so the test can race a Drop against an
// in-flight refresh that is journaling.
type blockJournal struct {
	mu      sync.Mutex
	ops     []string
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func newBlockJournal() *blockJournal {
	return &blockJournal{entered: make(chan struct{}), gate: make(chan struct{})}
}

func (j *blockJournal) record(op string) {
	j.mu.Lock()
	j.ops = append(j.ops, op)
	j.mu.Unlock()
}

func (j *blockJournal) snapshot() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.ops...)
}

func (j *blockJournal) CQRegistered(e wal.CQEntry) error {
	j.record("register:" + e.Name)
	return nil
}

func (j *blockJournal) CQExecuted(name string, seq int, ts vclock.Timestamp, terminated bool) error {
	if j.armed.Load() {
		j.once.Do(func() { close(j.entered) })
		<-j.gate
	}
	j.record(fmt.Sprintf("exec:%s:%d", name, seq))
	return nil
}

// CQStaged records like CQExecuted: the test's CQ is private, so
// nothing stages.
func (j *blockJournal) CQStaged(name string, seq int, ts vclock.Timestamp, terminated bool) error {
	return j.CQExecuted(name, seq, ts, terminated)
}

func (j *blockJournal) Flush() error { return nil }

func (j *blockJournal) CQDropped(name string) error {
	j.record("drop:" + name)
	return nil
}

// TestDropRaceKeepsJournalOrder is the WAL-order regression test for
// satellite (b): a Drop racing an in-flight refresh must not write its
// drop record before the refresh's execution record (recovery refuses
// an execution for an unregistered CQ), and the dropped CQ must not be
// resurrected by the still-running refresh.
func TestDropRaceKeepsJournalOrder(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	j := newBlockJournal()
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Journal: j})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name: "q", Query: "SELECT * FROM stocks WHERE price > 0",
		Trigger: updatesTrigger(),
	}); err != nil {
		t.Fatal(err)
	}
	j.armed.Store(true)
	insertStock(t, s, "A", 10)

	pollDone := make(chan error, 1)
	go func() {
		_, err := m.Poll()
		pollDone <- err
	}()
	<-j.entered // the refresh is inside CQExecuted, holding the CQ's lock

	dropDone := make(chan error, 1)
	go func() { dropDone <- m.Drop("q") }()

	// The drop must block behind the in-flight refresh: give it time to
	// misbehave, then check no drop record has been journaled.
	time.Sleep(50 * time.Millisecond)
	for _, op := range j.snapshot() {
		if strings.HasPrefix(op, "drop:") {
			t.Fatal("drop journaled while a refresh was mid-execution")
		}
	}
	close(j.gate)
	if err := <-pollDone; err != nil {
		t.Fatalf("poll: %v", err)
	}
	if err := <-dropDone; err != nil {
		t.Fatalf("drop: %v", err)
	}

	ops := j.snapshot()
	execAt, dropAt := -1, -1
	for i, op := range ops {
		switch {
		case strings.HasPrefix(op, "exec:q:"):
			execAt = i
		case op == "drop:q":
			dropAt = i
		}
	}
	if execAt == -1 || dropAt == -1 || execAt > dropAt {
		t.Fatalf("journal order %v: want exec before drop", ops)
	}
	if _, err := m.State("q"); !errors.Is(err, ErrNoSuchCQ) {
		t.Fatalf("dropped CQ resurrected: State err = %v", err)
	}
	// A later poll must not touch the dropped instance.
	insertStock(t, s, "B", 20)
	if _, err := m.Poll(); err != nil {
		t.Fatalf("post-drop poll: %v", err)
	}
	for _, op := range j.snapshot()[dropAt+1:] {
		if strings.HasPrefix(op, "exec:q:") {
			t.Fatalf("execution journaled after drop: %v", j.snapshot())
		}
	}
}

// TestSubscribeDropChurnStress races Subscribe/Cancel (all three
// policies), Register/Drop, and commits driving push dispatch. Run
// under -race this is the satellite (c) concurrency suite; correctness
// here is "no race, no deadlock, no panic escapes".
func TestSubscribeDropChurnStress(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Push: true, Parallelism: 4,
		Guard: guard.Policy{FailureThreshold: -1},
		Logf:  func(string, ...any) {},
	})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name: "watch", Query: "SELECT * FROM stocks WHERE price > 50",
		Trigger: updatesTrigger(),
	}); err != nil {
		t.Fatal(err)
	}

	const iters = 150
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // committer: drives push dispatch
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tx := s.Begin()
			if _, err := tx.Insert("stocks", []relation.Value{
				relation.Str(fmt.Sprintf("c%d", i)), relation.Float(float64(i % 120)),
			}); err == nil {
				_, _ = tx.Commit()
			}
		}
	}()
	go func() { // resubscribe churn: attach with a catch-up snapshot
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cancel, catch, err := m.ResubscribeFunc(ResumeToken{CQ: "watch", Seq: i}, func(n Notification, closed bool) {})
			if err != nil {
				continue
			}
			if catch.Complete == nil || catch.Dropped < 0 {
				t.Errorf("catch-up %d: %s", i, renderNote(catch))
			}
			cancel()
		}
	}()
	go func() { // subscribe churn
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cancel, err := m.SubscribeFunc("watch", func(n Notification, closed bool) {})
			if err != nil {
				continue
			}
			cancel()
		}
	}()
	go func() { // register/drop churn during dispatch
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			name := fmt.Sprintf("temp%d", i)
			if _, err := m.Register(Def{
				Name: name, Query: "SELECT * FROM stocks WHERE price > 100",
				Trigger: updatesTrigger(),
			}); err != nil {
				continue
			}
			_ = m.Drop(name)
		}
	}()
	wg.Wait()
	m.FlushPush()
	if _, err := m.Poll(); err != nil {
		t.Fatalf("final poll: %v", err)
	}
	st, err := m.State("watch")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != "healthy" {
		t.Errorf("watch health = %q after stress", st.Health)
	}
}
