package cq

import (
	"fmt"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
)

func newInstrumentedManager(t *testing.T) (*Manager, *storage.Store, *obs.Registry) {
	t.Helper()
	store := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	store.Instrument(reg)
	mgr := NewManagerConfig(store, Config{UseDRA: true, AutoGC: true, Metrics: reg})
	t.Cleanup(func() { _ = mgr.Close() })
	return mgr, store, reg
}

func TestManagerMetrics(t *testing.T) {
	mgr, store, _ := newInstrumentedManager(t)
	insertStock(t, store, "DEC", 150)
	insertStock(t, store, "IBM", 75)

	if _, err := mgr.Register(Def{Name: "expensive", Query: "SELECT * FROM stocks WHERE price > 120"}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := subscribeChan(mgr, "expensive", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	insertStock(t, store, "MAC", 130)
	if _, err := mgr.Poll(); err != nil {
		t.Fatal(err)
	}
	<-ch

	snap := mgr.Stats()
	for name, min := range map[string]int64{
		"cq.registered":     1,
		"cq.polls":          1,
		"cq.trigger_evals":  1,
		"cq.refreshes":      1,
		"cq.notifications":  1,
		"dra.reevaluations": 1,
	} {
		if got := snap.Counters[name] + snap.Gauges[name]; got < min {
			t.Errorf("%s = %d, want >= %d", name, got, min)
		}
	}
	if got := snap.Histograms["cq.refresh_ns"].Count; got < 1 {
		t.Errorf("cq.refresh_ns count = %d, want >= 1", got)
	}
	if mgr.Traces().Len() == 0 {
		t.Error("no refresh spans recorded")
	}

	if err := mgr.Drop("expensive"); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Gauge("cq.registered"); got != 0 {
		t.Errorf("cq.registered after drop = %d, want 0", got)
	}
}

// TestConcurrentPollSubscribeDropMetrics races Poll against
// Subscribe/Drop/Register churn and concurrent snapshot reads, all with
// metric emission on. Run under -race this checks the instrumentation
// hooks introduce no data races on the notification or refresh paths.
func TestConcurrentPollSubscribeDropMetrics(t *testing.T) {
	mgr, store, reg := newInstrumentedManager(t)
	insertStock(t, store, "DEC", 150)
	if _, err := mgr.Register(Def{Name: "steady", Query: "SELECT * FROM stocks WHERE price > 100"}); err != nil {
		t.Fatal(err)
	}

	const rounds = 50
	var wg sync.WaitGroup

	// Writer: a stream of committed updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			insertStock(t, store, fmt.Sprintf("W%d", i), float64(50+i%200))
		}
	}()

	// Poller: refreshes whatever triggers fired.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := mgr.Poll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Subscriber churn: attach, drain a little, detach.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ch, cancel, err := subscribeChan(mgr, "steady", 1)
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-ch:
			default:
			}
			cancel()
		}
	}()

	// Register/Drop churn on a second CQ.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("churn%d", i)
			if _, err := mgr.Register(Def{
				Name:    name,
				Query:   "SELECT * FROM stocks WHERE price > 180",
				Trigger: sql.TriggerSpec{Kind: sql.TriggerEvery, Every: 2},
			}); err != nil {
				t.Error(err)
				return
			}
			if err := mgr.Drop(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Snapshot readers: Stats and trace reads race the writers above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = mgr.Stats()
			_ = reg.Snapshot()
			_ = mgr.Traces().Recent()
		}
	}()

	wg.Wait()

	// One deterministic fire: if the scheduler drained every poll before
	// the writer's first commit landed, no trigger ever fired above, and
	// the refresh-counter assertion below would flake.
	insertStock(t, store, "FINAL", 199)
	if _, err := mgr.Poll(); err != nil {
		t.Fatal(err)
	}

	snap := mgr.Stats()
	if got := snap.Counter("cq.polls"); got != rounds+1 {
		t.Errorf("cq.polls = %d, want %d", got, rounds+1)
	}
	if got := snap.Gauge("cq.registered"); got != 1 {
		t.Errorf("cq.registered = %d, want 1 (steady only)", got)
	}
	if snap.Counter("cq.refreshes") < 1 {
		t.Error("no refreshes recorded under concurrent churn")
	}
}

// TestMaintainerRefreshInPlace: an aggregate state keeper's Result
// carries no materialized relation, so a refresh maintains inst.prev in
// place — the same *relation.Relation before and after, changed by the
// delta alone — and the running system can say how many groups the
// refresh touched out of how many: CQState.Groups, the refresh span's
// fields, and the dra.agg.* instruments, the gauge released by Drop.
func TestMaintainerRefreshInPlace(t *testing.T) {
	store := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	mgr := NewManagerConfig(store, Config{UseDRA: true, AutoGC: true, Metrics: reg})
	defer func() { _ = mgr.Close() }()
	for i := 0; i < 6; i++ {
		insertStock(t, store, fmt.Sprintf("S%d", i%3), float64(10*i))
	}
	const query = "SELECT name, SUM(price) AS total, COUNT(*) AS n FROM stocks GROUP BY name"
	if _, err := mgr.Register(Def{Name: "totals", Query: query}); err != nil {
		t.Fatal(err)
	}
	if !maintained(t, mgr, "totals") {
		t.Fatal("aggregate CQ registered without a state keeper")
	}
	inst := getInst(t, mgr, "totals")
	before := inst.prev

	insertStock(t, store, "S1", 5)  // touches one of three groups
	insertStock(t, store, "NEW", 7) // and adds a fourth
	if _, err := mgr.Poll(); err != nil {
		t.Fatal(err)
	}
	if inst.prev != before {
		t.Fatal("the refresh replaced inst.prev instead of maintaining it in place")
	}
	want, err := dra.InitialResult(mustPlan(t, query, store), store.Live())
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.prev.Relation(); !got.EqualByTID(want) {
		t.Fatalf("maintained result\n%s\nwant\n%s", got, want)
	}

	if st, err := mgr.State("totals"); err != nil || st.Groups != 4 {
		t.Fatalf("State = %+v, %v; want 4 groups", st, err)
	}
	fields := map[string]int64{}
	for _, sp := range mgr.Traces().Recent() {
		if sp.Name == "cq.refresh:totals" {
			for _, f := range sp.Fields {
				fields[f.Key] = f.Value
			}
		}
	}
	if fields["groups"] != 4 || fields["groups_touched"] != 2 || fields["group_rows_emitted"] != 3 {
		t.Errorf("refresh span fields = %v, want 4 groups, 2 touched, 3 rows emitted (-old +new, +new)", fields)
	}
	snap := mgr.Stats()
	if snap.Counter("dra.agg.rows_folded") != 2 || snap.Counter("dra.agg.groups_touched") != 2 ||
		snap.Counter("dra.agg.rows_emitted") != 3 || snap.Gauge("dra.agg.groups") != 4 {
		t.Errorf("dra.agg instruments = %v / %v", snap.Filter("dra.agg").Counters, snap.Filter("dra.agg").Gauges)
	}
	if err := mgr.Drop("totals"); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Gauge("dra.agg.groups"); got != 0 {
		t.Errorf("dra.agg.groups after drop = %d, want 0", got)
	}
}

// TestRefreshesEmptyCounter: cq.refreshes_empty counts the refreshes
// whose netted change has no row, of private CQs and template members
// alike.
func TestRefreshesEmptyCounter(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			store := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
			reg := obs.NewRegistry()
			mgr := NewManagerConfig(store, Config{UseDRA: true, ShareTemplates: share, Metrics: reg})
			defer func() { _ = mgr.Close() }()
			for name, q := range map[string]string{
				"never": "SELECT * FROM stocks WHERE price > 1000",
				"rich":  "SELECT * FROM stocks WHERE price > 120",
			} {
				if _, err := mgr.Register(Def{Name: name, Query: q}); err != nil {
					t.Fatal(err)
				}
			}
			if got := reg.Snapshot().Gauge("cq.templates"); share && got != 1 {
				t.Fatalf("cq.templates = %d, want 1", got)
			}
			// 150 changes rich only; 50 changes neither.
			for _, price := range []float64{150, 50} {
				insertStock(t, store, "X", price)
				if _, err := mgr.Poll(); err != nil {
					t.Fatal(err)
				}
			}
			snap := reg.Snapshot()
			if got := snap.Counter("cq.refreshes"); got != 4 {
				t.Fatalf("cq.refreshes = %d, want 4", got)
			}
			if got := snap.Counter("cq.refreshes_empty"); got != 3 {
				t.Fatalf("cq.refreshes_empty = %d, want 3", got)
			}
		})
	}
}
