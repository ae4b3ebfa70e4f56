package cq

import (
	"errors"
	"fmt"
	"runtime"
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

// faultMaint is an injectable step fault: it panics, errors, or sleeps
// past the refresh budget. Fields are set before injection and never
// mutated, so an abandoned (late) step may read them concurrently with
// the test goroutine.
type faultMaint struct {
	panics bool
	err    error
	sleep  time.Duration
}

func (f *faultMaint) step() error {
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
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
// withFaults is set, a panicking and an erroring CQ alongside. It
// returns the healthy CQs' full notification transcripts.
func chaosRun(t *testing.T, withFaults bool) map[string][]string {
	t.Helper()
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 4,
		Metrics: obs.NewRegistry(),
		Guard:   guard.Policy{FailureThreshold: 3, BackoffBase: time.Hour},
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
// not faulty CQs (panicking, erroring) run alongside them, and the run
// leaks no goroutines.
func TestChaosFaultIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	clean := chaosRun(t, false)
	faulty := chaosRun(t, true)
	for name, want := range clean {
		got := faulty[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %d notifications with faults, %d without\nwith:    %v\nwithout: %v",
				name, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]:\n with faults: %s\n fault-free:  %s", name, i, got[i], want[i])
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

// TestBudgetTimeout: a refresh that overruns its budget is abandoned
// (the poll returns promptly), the verdict surfaces as ErrBudgetExceeded
// in CQState.LastErr, and the late completion is counted when the
// abandoned goroutine finally finishes.
func TestBudgetTimeout(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Metrics: reg,
		Guard: guard.Policy{Budget: 25 * time.Millisecond, FailureThreshold: -1},
	})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name: "slow", Query: "SELECT * FROM stocks WHERE price > 0",
		Trigger: updatesTrigger(),
	}); err != nil {
		t.Fatal(err)
	}
	injectMaint(t, m, "slow", &faultMaint{sleep: 150 * time.Millisecond, err: errors.New("late anyway")})

	insertStock(t, s, "A", 10)
	start := time.Now()
	_, err := m.Poll()
	if err == nil || !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("poll error = %v, want ErrBudgetExceeded", err)
	}
	if took := time.Since(start); took > 120*time.Millisecond {
		t.Errorf("poll blocked %v on an abandoned refresh", took)
	}
	st, _ := m.State("slow")
	if !errors.Is(st.LastErr, guard.ErrBudgetExceeded) {
		t.Errorf("LastErr = %v, want ErrBudgetExceeded", st.LastErr)
	}
	if n := m.Stats().Counters["cq.refresh.timeouts"]; n != 1 {
		t.Errorf("cq.refresh.timeouts = %d", n)
	}
	// The late completion is observed by the reaper once the sleep ends.
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Counters["cq.refresh.late"] == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := m.Stats().Counters["cq.refresh.late"]; n != 1 {
		t.Errorf("cq.refresh.late = %d", n)
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
