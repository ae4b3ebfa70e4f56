package cq

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
)

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
}

func accountSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "owner", Type: relation.TString},
		relation.Column{Name: "amount", Type: relation.TFloat},
	)
}

func newStoreWith(t *testing.T, tables map[string]relation.Schema) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	for name, schema := range tables {
		if err := s.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func commit(t *testing.T, s *storage.Store, f func(tx *storage.Tx) error) {
	t.Helper()
	tx := s.Begin()
	if err := f(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func insertStock(t *testing.T, s *storage.Store, name string, price float64) relation.TID {
	t.Helper()
	var tid relation.TID
	commit(t, s, func(tx *storage.Tx) error {
		id, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Float(price)})
		tid = id
		return err
	})
	return tid
}

// subscribeChan adapts the manager's one subscriber kind — a synchronous
// callback (SubscribeFunc) — to a buffered channel for tests that read
// notifications after the fact. A full buffer discards (no test fills
// one on purpose: backpressure lives in, and is tested on,
// continual.Subscription); the channel closes when the CQ is dropped or
// the manager closes.
func subscribeChan(m *Manager, name string, buf int) (<-chan Notification, func(), error) {
	ch := make(chan Notification, buf)
	cancel, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
		if closed {
			close(ch)
			return
		}
		select {
		case ch <- n:
		default:
		}
	})
	return ch, cancel, err
}

func drain(ch <-chan Notification) []Notification {
	var out []Notification
	for {
		select {
		case n, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, n)
		default:
			return out
		}
	}
}

func TestRegisterRunsInitialExecution(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	insertStock(t, s, "DEC", 150)
	insertStock(t, s, "IBM", 75)

	m := NewManager(s)
	defer func() { _ = m.Close() }()
	initial, err := m.Register(Def{Name: "exp", Query: "SELECT * FROM stocks WHERE price > 120"})
	if err != nil {
		t.Fatal(err)
	}
	if initial.Len() != 1 {
		t.Fatalf("initial result = %d rows", initial.Len())
	}
	st, err := m.State("exp")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.ResultLen != 1 {
		t.Errorf("state = %+v", st)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "", Query: "SELECT * FROM stocks"}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM nosuch"}); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := m.Register(Def{Name: "q", Query: "not sql"}); err == nil {
		t.Error("bad SQL should fail")
	}
	if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM stocks"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM stocks"}); !errors.Is(err, ErrDuplicateCQ) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestUpdateTriggerAndDifferentialNotification(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	insertStock(t, s, "DEC", 150)

	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:    "exp",
		Query:   "SELECT * FROM stocks WHERE price > 120",
		Trigger: sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := subscribeChan(m, "exp", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	insertStock(t, s, "MAC", 130)
	fired, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	notes := drain(ch)
	if len(notes) != 1 {
		t.Fatalf("notifications = %d", len(notes))
	}
	n := notes[0]
	if n.Seq != 2 || n.Inserted().Len() != 1 || n.Deleted().Len() != 0 {
		t.Errorf("notification = %+v", n)
	}
	if n.Inserted().At(0).Values[0].AsString() != "MAC" {
		t.Errorf("inserted = %v", n.Inserted().At(0))
	}

	// Irrelevant update (below predicate): no notification by default.
	insertStock(t, s, "PENNY", 1)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if extra := drain(ch); len(extra) != 0 {
		t.Errorf("irrelevant update produced notifications: %+v", extra)
	}
}

func TestEveryTriggerUsesLogicalTime(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:        "periodic",
		Query:       "SELECT * FROM stocks WHERE price > 0",
		Trigger:     sql.TriggerSpec{Kind: sql.TriggerEvery, Every: 3},
		NotifyEmpty: true,
	}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := subscribeChan(m, "periodic", 16)
	defer cancel()

	insertStock(t, s, "A", 10) // tick 1
	if fired, _ := m.Poll(); fired != 0 {
		t.Error("should not fire before 3 ticks")
	}
	insertStock(t, s, "B", 20) // tick 2
	insertStock(t, s, "C", 30) // tick 3
	if fired, _ := m.Poll(); fired != 1 {
		t.Error("should fire at 3 ticks")
	}
	notes := drain(ch)
	if len(notes) != 1 || notes[0].Inserted().Len() != 3 {
		t.Errorf("notes = %+v", notes)
	}
}

func TestEpsilonTriggerBankExample(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"CheckingAccounts": accountSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	// Section 5.3: SUM(amount) with |deposits - withdrawals| >= 0.5M.
	if _, err := m.RegisterSQL(`CREATE CONTINUAL QUERY banksum AS
		SELECT SUM(amount) AS total FROM CheckingAccounts
		TRIGGER EPSILON 500000 ON amount
		MODE COMPLETE`); err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := subscribeChan(m, "banksum", 16)
	defer cancel()

	deposit := func(owner string, amt float64) {
		commit(t, s, func(tx *storage.Tx) error {
			_, err := tx.Insert("CheckingAccounts", []relation.Value{relation.Str(owner), relation.Float(amt)})
			return err
		})
	}
	deposit("alice", 200_000)
	deposit("bob", 200_000)
	if fired, _ := m.Poll(); fired != 0 {
		t.Fatal("400k accumulated should not fire a 500k epsilon")
	}
	deposit("carol", 150_000)
	fired, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("550k accumulated should fire")
	}
	notes := drain(ch)
	if len(notes) != 1 || notes[0].Complete == nil {
		t.Fatalf("notes = %+v", notes)
	}
	if got := notes[0].Complete.At(0).Values[0].AsFloat(); got != 550_000 {
		t.Errorf("sum = %v", got)
	}
	// Divergence resets after refresh.
	st, _ := m.State("banksum")
	if st.Divergence != 0 {
		t.Errorf("divergence after refresh = %v", st.Divergence)
	}
}

func TestStopAfterNTerminates(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:  "short",
		Query: "SELECT * FROM stocks WHERE price > 0",
		Stop:  sql.StopSpec{AfterN: 2}, // initial + 1 refresh
	}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := subscribeChan(m, "short", 16)
	defer cancel()

	insertStock(t, s, "A", 10)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	notes := drain(ch)
	if len(notes) != 1 || !notes[0].Terminated {
		t.Fatalf("expected terminating notification, got %+v", notes)
	}
	// Further updates never fire it again.
	insertStock(t, s, "B", 20)
	if fired, _ := m.Poll(); fired != 0 {
		t.Error("terminated CQ fired")
	}
	if err := m.Refresh("short"); !errors.Is(err, ErrTerminated) {
		t.Errorf("refresh terminated err = %v", err)
	}
}

func TestDeletionsMode(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	tid := insertStock(t, s, "DEC", 150)
	insertStock(t, s, "QLI", 145)

	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:  "gone",
		Query: "SELECT * FROM stocks WHERE price > 120",
		Mode:  sql.ModeDeletions,
	}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := subscribeChan(m, "gone", 16)
	defer cancel()

	commit(t, s, func(tx *storage.Tx) error { return tx.Delete("stocks", tid) })
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	notes := drain(ch)
	if len(notes) != 1 {
		t.Fatalf("notes = %d", len(notes))
	}
	if notes[0].Deleted().Len() != 1 || notes[0].Inserted() != nil {
		t.Errorf("deletions-mode notification = %+v", notes[0])
	}
}

func TestCompleteModeMaintainsFullResult(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	insertStock(t, s, "A", 130)
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:  "all",
		Query: "SELECT * FROM stocks WHERE price > 120",
		Mode:  sql.ModeComplete,
	}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := subscribeChan(m, "all", 16)
	defer cancel()

	insertStock(t, s, "B", 140)
	_, _ = m.Poll()
	insertStock(t, s, "C", 150)
	_, _ = m.Poll()
	notes := drain(ch)
	if len(notes) != 2 {
		t.Fatalf("notes = %d", len(notes))
	}
	if notes[1].Complete.Len() != 3 {
		t.Errorf("complete result = %d rows", notes[1].Complete.Len())
	}
}

func TestGCBoundedBySlowestCQ(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	// Fast CQ refreshes on every update; slow one every 1000 ticks.
	if _, err := m.Register(Def{Name: "fast", Query: "SELECT * FROM stocks WHERE price > 0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{
		Name:    "slow",
		Query:   "SELECT * FROM stocks WHERE price > 0",
		Trigger: sql.TriggerSpec{Kind: sql.TriggerEvery, Every: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		insertStock(t, s, "S", float64(i))
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// Delta rows are pinned by the slow CQ's active zone.
	n, _ := s.DeltaLen("stocks")
	if n != 20 {
		t.Errorf("delta rows = %d, want 20 (pinned by slow CQ)", n)
	}
	// Drop the slow CQ: the zone advances to the fast CQ's last exec.
	if err := m.Drop("slow"); err != nil {
		t.Fatal(err)
	}
	insertStock(t, s, "S", 99)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	n, _ = s.DeltaLen("stocks")
	if n != 0 {
		t.Errorf("delta rows after drop+refresh = %d, want 0", n)
	}
}

func TestManagerDRAMatchesFullBaseline(t *testing.T) {
	build := func(useDRA bool) (*storage.Store, *Manager) {
		s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
		m := NewManagerConfig(s, Config{UseDRA: useDRA, AutoGC: true})
		return s, m
	}
	sA, mA := build(true)
	defer func() { _ = mA.Close() }()
	sB, mB := build(false)
	defer func() { _ = mB.Close() }()

	for _, m := range []*Manager{mA, mB} {
		if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM stocks WHERE price > 50", Mode: sql.ModeComplete}); err != nil {
			t.Fatal(err)
		}
	}
	script := []struct {
		name  string
		price float64
	}{{"A", 60}, {"B", 40}, {"C", 70}, {"D", 55}}
	for _, step := range script {
		for _, s := range []*storage.Store{sA, sB} {
			tx := s.Begin()
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str(step.name), relation.Float(step.price)}); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mA.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, err := mB.Poll(); err != nil {
			t.Fatal(err)
		}
		ra, _ := mA.Result("q")
		rb, _ := mB.Result("q")
		if !ra.EqualContents(rb) {
			t.Fatalf("DRA and full managers diverge after %s", step.name)
		}
	}
}

func TestAsyncLoopDeliversNotifications(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM stocks WHERE price > 0"}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := subscribeChan(m, "q", 16)
	defer cancel()
	if err := m.Start(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(time.Millisecond); err == nil {
		t.Error("double Start should fail")
	}
	insertStock(t, s, "A", 10)

	deadline := time.After(2 * time.Second)
	select {
	case n := <-ch:
		if n.Inserted().Len() != 1 {
			t.Errorf("async notification = %+v", n)
		}
	case <-deadline:
		t.Fatal("no notification within deadline")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Channel closed after Close.
	if _, ok := <-ch; ok {
		t.Error("subscriber channel should be closed")
	}
	if _, err := m.Poll(); !errors.Is(err, ErrClosed) {
		t.Errorf("Poll after Close err = %v", err)
	}
}

func TestDropAndNamesAndResultErrors(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	_, _ = m.Register(Def{Name: "b", Query: "SELECT * FROM stocks"})
	_, _ = m.Register(Def{Name: "a", Query: "SELECT * FROM stocks"})
	names := m.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if err := m.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("a"); !errors.Is(err, ErrNoSuchCQ) {
		t.Errorf("double drop err = %v", err)
	}
	if _, err := m.Result("a"); !errors.Is(err, ErrNoSuchCQ) {
		t.Errorf("Result missing err = %v", err)
	}
	if _, _, err := subscribeChan(m, "a", 1); !errors.Is(err, ErrNoSuchCQ) {
		t.Errorf("Subscribe missing err = %v", err)
	}
	if _, err := m.State("a"); !errors.Is(err, ErrNoSuchCQ) {
		t.Errorf("State missing err = %v", err)
	}
	if err := m.Refresh("a"); !errors.Is(err, ErrNoSuchCQ) {
		t.Errorf("Refresh missing err = %v", err)
	}
}

func TestJoinCQEndToEnd(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	insertStock(t, s, "DEC", 150)
	commit(t, s, func(tx *storage.Tx) error {
		_, err := tx.Insert("trades", []relation.Value{relation.Str("DEC"), relation.Int(100)})
		return err
	})

	m := NewManager(s)
	defer func() { _ = m.Close() }()
	initial, err := m.Register(Def{
		Name:  "big_trades",
		Query: "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym WHERE t.volume > 50",
	})
	if err != nil {
		t.Fatal(err)
	}
	if initial.Len() != 1 {
		t.Fatalf("initial = %d", initial.Len())
	}
	ch, cancel, _ := subscribeChan(m, "big_trades", 16)
	defer cancel()

	commit(t, s, func(tx *storage.Tx) error {
		_, err := tx.Insert("trades", []relation.Value{relation.Str("DEC"), relation.Int(900)})
		return err
	})
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	notes := drain(ch)
	if len(notes) != 1 || notes[0].Inserted().Len() != 1 {
		t.Fatalf("join CQ notes = %+v", notes)
	}
	if got := notes[0].Inserted().At(0).Values[1].AsInt(); got != 900 {
		t.Errorf("joined volume = %d", got)
	}
}

func TestAggregateCQUsesIncrementalMaintenance(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"accounts": accountSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:  "banksum",
		Query: "SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts",
		Mode:  sql.ModeComplete,
	}); err != nil {
		t.Fatal(err)
	}
	mFull := NewManagerConfig(newStoreWith(t, map[string]relation.Schema{"accounts": accountSchema()}), Config{UseDRA: false})
	defer func() { _ = mFull.Close() }()
	// The maintainer must be installed for this shape.
	if !maintained(t, m, "banksum") {
		t.Fatal("incremental aggregate maintainer not installed")
	}

	var tids []relation.TID
	for i := 0; i < 10; i++ {
		commit(t, s, func(tx *storage.Tx) error {
			tid, err := tx.Insert("accounts", []relation.Value{relation.Str("x"), relation.Float(float64(100 * (i + 1)))})
			tids = append(tids, tid)
			return err
		})
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, s, func(tx *storage.Tx) error { return tx.Delete("accounts", tids[0]) })
	commit(t, s, func(tx *storage.Tx) error {
		return tx.Update("accounts", tids[1], []relation.Value{relation.Str("x"), relation.Float(7)})
	})
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	res, err := m.Result("banksum")
	if err != nil {
		t.Fatal(err)
	}
	// 100+...+1000 = 5500; -100 (delete) -200+7 (correction) = 5207.
	if got := res.At(0).Values[0].AsFloat(); got != 5207 {
		t.Errorf("sum = %v, want 5207", got)
	}
	if got := res.At(0).Values[1].AsInt(); got != 9 {
		t.Errorf("count = %v, want 9", got)
	}
}

func TestAggregateCQWithHavingFallsBack(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"accounts": accountSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name:  "big",
		Query: "SELECT owner, SUM(amount) AS total FROM accounts GROUP BY owner HAVING SUM(amount) > 100",
		Mode:  sql.ModeComplete,
	}); err != nil {
		t.Fatal(err)
	}
	if maintained(t, m, "big") {
		t.Fatal("HAVING query must not get a maintainer")
	}
	commit(t, s, func(tx *storage.Tx) error {
		_, err := tx.Insert("accounts", []relation.Value{relation.Str("a"), relation.Float(150)})
		return err
	})
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	res, _ := m.Result("big")
	if res.Len() != 1 {
		t.Errorf("HAVING result = %d rows", res.Len())
	}
}

func TestDistinctCQMaintainedIncrementally(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	insertStock(t, s, "DEC", 1)
	insertStock(t, s, "DEC", 1)
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	initial, err := m.Register(Def{
		Name:  "names",
		Query: "SELECT DISTINCT name FROM stocks",
		Mode:  sql.ModeComplete,
	})
	if err != nil {
		t.Fatal(err)
	}
	if initial.Len() != 1 {
		t.Fatalf("initial distinct = %d", initial.Len())
	}
	if !maintained(t, m, "names") {
		t.Fatal("distinct maintainer not installed")
	}

	insertStock(t, s, "IBM", 2)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	res, _ := m.Result("names")
	if res.Len() != 2 {
		t.Errorf("distinct result = %d", res.Len())
	}
}

func TestOrderByLimitCQFallsBackButStaysCorrect(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	insertStock(t, s, "A", 10)
	insertStock(t, s, "B", 20)
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	initial, err := m.Register(Def{
		Name:  "top",
		Query: "SELECT name, price FROM stocks ORDER BY price DESC LIMIT 2",
		Mode:  sql.ModeComplete,
	})
	if err != nil {
		t.Fatal(err)
	}
	if initial.Len() != 2 {
		t.Fatalf("initial top-2 = %d", initial.Len())
	}
	insertStock(t, s, "C", 30)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	res, _ := m.Result("top")
	if res.Len() != 2 {
		t.Fatalf("top-2 = %d", res.Len())
	}
	names := map[string]bool{}
	for _, tu := range res.Tuples() {
		names[tu.Values[0].AsString()] = true
	}
	if !names["C"] || !names["B"] || names["A"] {
		t.Errorf("top-2 wrong: %v", names)
	}
}

func TestStateReportsJoinState(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	insertStock(t, s, "DEC", 150)
	insertStock(t, s, "IBM", 75)
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Metrics: reg})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "joined", Query: "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym"}); err != nil {
		t.Fatal(err)
	}
	// No warm-up: the join telescopes from registration on.
	if st, err := m.State("joined"); err != nil || st.Strategy != "incremental" {
		t.Fatalf("strategy at registration = %q (err %v), want incremental", st.Strategy, err)
	}
	if _, err := m.Register(Def{Name: "plain", Query: "SELECT * FROM stocks WHERE price > 100"}); err != nil {
		t.Fatal(err)
	}
	// The same join under a GROUP BY and under DISTINCT: each group
	// table's input reads the same arrangements.
	for name, query := range map[string]string{
		"rollup":   "SELECT s.name, SUM(t.volume) FROM stocks s JOIN trades t ON s.name = t.sym GROUP BY s.name",
		"distinct": "SELECT DISTINCT s.name FROM stocks s JOIN trades t ON s.name = t.sym",
	} {
		if _, err := m.Register(Def{Name: name, Query: query}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, s, func(tx *storage.Tx) error {
		for _, sym := range []string{"DEC", "DEC", "IBM"} {
			if _, err := tx.Insert("trades", []relation.Value{relation.Str(sym), relation.Int(100)}); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	st, err := m.State("joined")
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := m.Result("joined"); st.Strategy != dra.StrategyIncremental.String() || res.Len() != 3 {
		t.Fatalf("strategy = %q with %d maintained rows, want incremental and 3", st.Strategy, res.Len())
	}
	// One arrangement per table, shared by the three joins, each table
	// indexed on the key the other table's window probes it by.
	want := []dra.ReplicaStat{
		{Operand: "stocks", Rows: 2, Indexes: 1, Shared: 3},
		{Operand: "trades", Rows: 3, Indexes: 1, Shared: 3},
	}
	if fmt.Sprint(st.Replicas) != fmt.Sprint(want) {
		t.Errorf("join state = %+v, want %+v", st.Replicas, want)
	}
	if plain, _ := m.State("plain"); len(plain.Replicas) != 0 {
		t.Errorf("join-free CQ reports replicas: %+v", plain.Replicas)
	}
	for _, name := range []string{"rollup", "distinct"} {
		st, _ := m.State(name)
		if st.Strategy != "incremental" || fmt.Sprint(st.Replicas) != fmt.Sprint(want) || st.Groups != 2 {
			t.Errorf("%s over the join: %q, replicas %+v over %d groups, want incremental, %+v over 2", name, st.Strategy, st.Replicas, st.Groups, want)
		}
	}
	snap := reg.Snapshot()
	// The join CQ's refresh (a group table's steps are not counted here).
	if p, e := snap.Counter("dra.join.probe_rows"), snap.Counter("dra.join.emit_rows"); p != 3 || e != 3 {
		t.Errorf("probe rows = %d, emit rows = %d, want 3 and 3", p, e)
	}
	if g := snap.Gauges["dra.replica.rows"]; g != 5 {
		t.Errorf("dra.replica.rows = %d, want 5: each arrangement once", g)
	}
	if b := snap.Gauges["dra.replica.bytes"]; b <= 0 {
		t.Errorf("dra.replica.bytes = %d with 5 rows held", b)
	}
	for _, name := range []string{"joined", "rollup", "distinct"} {
		if err := m.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	if g := reg.Snapshot().Gauges["dra.replica.rows"]; g != 0 {
		t.Errorf("dra.replica.rows after drop = %d, want 0", g)
	}
	if b := reg.Snapshot().Gauges["dra.replica.bytes"]; b != 0 {
		t.Errorf("dra.replica.bytes after drop = %d, want 0", b)
	}
}

// No named strategy is unrunnable, so registration never falls back: a
// join-free CQ asked for "incremental" is the differential selection,
// silently. The one fallback left is the plan's own — a query outside the
// SPJ class is completely re-evaluated — and it is audible where an
// operator looks: State reports "propagate" and dra.fallback_path counts
// every refresh.
func TestStrategyFallbackIsAudible(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	insertStock(t, s, "DEC", 150)
	reg := obs.NewRegistry()
	var logged []string
	m := NewManagerConfig(s, Config{
		UseDRA:   true,
		Strategy: dra.StrategyIncremental,
		Metrics:  reg,
		Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	defer func() { _ = m.Close() }()
	for name, query := range map[string]string{
		"single": "SELECT * FROM stocks WHERE price > 100",
		"top":    "SELECT MAX(price) AS top FROM stocks",
	} {
		if _, err := m.Register(Def{Name: name, Query: query}); err != nil {
			t.Fatal(err)
		}
	}
	if len(logged) != 0 {
		t.Fatalf("registration logged %v, want nothing", logged)
	}
	if _, ok := reg.Snapshot().Counters["cq.maintainer.fallbacks"]; ok {
		t.Error("cq.maintainer.fallbacks is still registered")
	}
	for name, want := range map[string]string{"single": "incremental", "top": "propagate"} {
		if st, err := m.State(name); err != nil || st.Strategy != want {
			t.Errorf("%s: strategy = %q (err %v), want %s", name, st.Strategy, err, want)
		}
	}
	insertStock(t, s, "IBM", 175)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if res, _ := m.Result("single"); res.Len() != 2 {
		t.Errorf("single = %d rows, want 2", res.Len())
	}
	if res, _ := m.Result("top"); res.Len() != 1 || res.At(0).Values[0].AsFloat() != 175 {
		t.Errorf("top = %s, want one row of 175", res)
	}
	snap := reg.Snapshot()
	if fb, diff := snap.Counter("dra.fallback_path"), snap.Counter("dra.differential_path"); fb != 1 || diff != 1 {
		t.Errorf("fallback_path = %d, differential_path = %d, want 1 and 1", fb, diff)
	}
}

// Config.Strategy governs every shape: forced onto complete
// re-evaluation, an aggregate and a DISTINCT CQ keep no group table and
// still refresh correctly.
func TestStrategyPropagateCoversGroupTables(t *testing.T) {
	for name, cfg := range map[string]Config{
		"propagate": {UseDRA: true, Strategy: dra.StrategyPropagate},
		"no-dra":    {UseDRA: false},
	} {
		s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
		insertStock(t, s, "DEC", 150)
		m := NewManagerConfig(s, cfg)
		for cq, query := range map[string]string{
			"sum":   "SELECT name, SUM(price) AS total FROM stocks GROUP BY name",
			"names": "SELECT DISTINCT name FROM stocks",
		} {
			if _, err := m.Register(Def{Name: cq, Query: query}); err != nil {
				t.Fatal(err)
			}
		}
		insertStock(t, s, "IBM", 75)
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
		for _, cq := range []string{"sum", "names"} {
			st, err := m.State(cq)
			if err != nil || st.Strategy != "propagate" || st.Groups != 0 || st.ResultLen != 2 {
				t.Errorf("%s: %s: strategy %q, %d groups, %d rows (err %v); want propagate, 0, 2", name, cq, st.Strategy, st.Groups, st.ResultLen, err)
			}
		}
		_ = m.Close()
	}
}

// A durable entry carries no result: a resumed CQ re-derives it by one
// initial execution over the store at LastExec, not at the live head,
// so the commits of the crash window reach subscribers as the first
// refresh's delta. It runs what its plan's shape makes it, without an
// error, a log line or a lost window.
func TestResumeReseedsAtLastExec(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	insertStock(t, s, "DEC", 150)
	insertTrade := func(sym string) {
		commit(t, s, func(tx *storage.Tx) error {
			_, err := tx.Insert("trades", []relation.Value{relation.Str(sym), relation.Int(100)})
			return err
		})
	}
	const query = "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym"
	j := &foldJournal{}
	m1 := NewManagerConfig(s, Config{UseDRA: true, Journal: j})
	if _, err := m1.Register(Def{Name: "joined", Query: query}); err != nil {
		t.Fatal(err)
	}
	insertTrade("DEC")
	if _, err := m1.Poll(); err != nil {
		t.Fatal(err)
	}
	entries := j.entries()
	if len(entries) != 1 {
		t.Fatalf("journaled registry: %d entries, want 1", len(entries))
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	insertTrade("DEC") // the crash window

	var logged []string
	m2 := NewManagerConfig(s, Config{UseDRA: true, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	defer func() { _ = m2.Close() }()
	if err := m2.Resume(entries[0]); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st, err := m2.State("joined"); err != nil || st.Strategy != "incremental" || st.Health != "healthy" || st.Seq != 2 || st.ResultLen != 1 {
		t.Fatalf("resumed state = %+v (err %v), want a healthy incremental CQ at seq 2 with the 1 row of LastExec", st, err)
	}
	var inserted int
	if _, err := m2.SubscribeFunc("joined", func(n Notification, closed bool) {
		if !closed {
			inserted += n.Inserted().Len()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Poll(); err != nil {
		t.Fatal(err)
	}
	if res, _ := m2.Result("joined"); res.Len() != 2 || inserted != 1 {
		t.Errorf("after the catch-up: %d rows, %d notified insertions; want 2 and 1", res.Len(), inserted)
	}
	if len(logged) != 0 {
		t.Errorf("resume logged %v, want nothing", logged)
	}
}

// TestFirstRefreshReadsNoPreState: the initial execution leaves a join's
// operand replicas current at the registration (and resume) timestamp,
// so no refresh after it reads a pre-state — registered or resumed, a
// join CQ and a rollup over a join reach dra.pre_tuples_scanned = 0 and
// keep results equal to the query run from scratch.
func TestFirstRefreshReadsNoPreState(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
	for i := 0; i < 20; i++ {
		insertStock(t, s, fmt.Sprintf("S%02d", i%7), float64(100+i))
	}
	trade := func(sym string, vol int64) {
		commit(t, s, func(tx *storage.Tx) error {
			_, err := tx.Insert("trades", []relation.Value{relation.Str(sym), relation.Int(vol)})
			return err
		})
	}
	trade("S01", 5)
	queries := map[string]string{
		"joined": "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym WHERE s.price > 103",
		"rollup": "SELECT s.name, SUM(t.volume) AS v FROM stocks s JOIN trades t ON s.name = t.sym GROUP BY s.name",
	}
	refresh := func(t *testing.T, m *Manager, reg *obs.Registry) {
		t.Helper()
		for i := 0; i < 3; i++ {
			trade(fmt.Sprintf("S%02d", i), int64(10+i))
			insertStock(t, s, fmt.Sprintf("S%02d", 3+i), float64(200+i))
			if _, err := m.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		if n := reg.Snapshot().Counter("dra.pre_tuples_scanned"); n != 0 {
			t.Errorf("refreshes read %d pre-state tuples, want 0", n)
		}
		for name, q := range queries {
			got, err := m.Result(name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := algebra.PlanSQL(q, s.Live())
			if err != nil {
				t.Fatal(err)
			}
			want, err := dra.InitialResult(algebra.Optimize(plan), s.Live())
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualContents(want) {
				t.Errorf("%s:\nmaintained:\n%s\nfrom scratch:\n%s", name, got, want)
			}
		}
	}
	reg := obs.NewRegistry()
	j := &foldJournal{}
	m := NewManagerConfig(s, Config{UseDRA: true, Metrics: reg, Journal: j})
	defer func() { _ = m.Close() }()
	for name, q := range queries {
		if _, err := m.Register(Def{Name: name, Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	refresh(t, m, reg)

	entries := j.entries()
	trade("S02", 7) // past every CQ's last execution: the resumed CQs' first window
	reg2 := obs.NewRegistry()
	m2 := NewManagerConfig(s, Config{UseDRA: true, Metrics: reg2})
	defer func() { _ = m2.Close() }()
	if err := m2.Resume(entries...); err != nil {
		t.Fatal(err)
	}
	refresh(t, m2, reg2)
}
