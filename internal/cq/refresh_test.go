package cq

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// foldTranscript replays a CQ's notifications over its initial result,
// checking every step against the state the previous ones left: an
// insertion of a tid already present, a deletion of an absent one, or a
// modification whose Old is not the current value is exactly what a
// refresh reading past its own timestamp produces — the next window
// delivers the same row again.
type foldTranscript struct {
	mu    sync.Mutex
	state map[relation.TID][]relation.Value
	errs  []string
}

func newFoldTranscript(initial *relation.Relation) *foldTranscript {
	f := &foldTranscript{state: make(map[relation.TID][]relation.Value)}
	for _, tu := range initial.Tuples() {
		f.state[tu.TID] = tu.Values
	}
	return f
}

func (f *foldTranscript) errorf(format string, args ...any) {
	if len(f.errs) < 5 {
		f.errs = append(f.errs, fmt.Sprintf(format, args...))
	}
}

// apply is the subscriber callback. A notification lists a modification
// three times — in Modified, its old half in Deleted, its new half in
// Inserted — so deletions apply before insertions.
func (f *foldTranscript) apply(n Notification, closed bool) {
	if closed {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range n.Modified {
		if cur, ok := f.state[r.TID]; !ok || !valuesEqual(cur, r.Old) {
			f.errorf("seq %d modifies tid %d from %v, but the result holds %v", n.Seq, r.TID, r.Old, cur)
		}
	}
	if n.Deleted != nil {
		for _, tu := range n.Deleted.Tuples() {
			if _, ok := f.state[tu.TID]; !ok {
				f.errorf("seq %d deletes tid %d, which is not in the result", n.Seq, tu.TID)
			}
			delete(f.state, tu.TID)
		}
	}
	if n.Inserted != nil {
		for _, tu := range n.Inserted.Tuples() {
			if _, dup := f.state[tu.TID]; dup {
				f.errorf("seq %d inserts tid %d a second time", n.Seq, tu.TID)
			}
			f.state[tu.TID] = tu.Values
		}
	}
}

// check compares the folded transcript with a relation.
func (f *foldTranscript) check(t *testing.T, what string, want *relation.Relation) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.errs {
		t.Error(e)
	}
	if len(f.state) != want.Len() {
		t.Errorf("transcript folds to %d rows, %s has %d", len(f.state), what, want.Len())
	}
	for _, tu := range want.Tuples() {
		if got, ok := f.state[tu.TID]; !ok || !valuesEqual(got, tu.Values) {
			t.Errorf("tid %d: transcript folds to %v, %s has %v", tu.TID, got, what, tu.Values)
			return
		}
	}
}

// TestRefreshReadsNoFurtherThanItsTimestamp is the snapshot rule under
// fire (stepContext): a propagate-arm refresh at execTS must see the
// store as of execTS, not the live head, while a writer keeps committing.
// Reading the live head reports rows committed after execTS, and the
// next refresh's window then reports them again.
func TestRefreshReadsNoFurtherThanItsTimestamp(t *testing.T) {
	const selection = "SELECT * FROM stocks WHERE price > 10"
	for _, tc := range []struct {
		name  string
		cfg   Config
		query string
	}{
		{"propagate/poll", Config{UseDRA: true, Strategy: dra.StrategyPropagate}, selection},
		// MIN/MAX is outside the differential class: StrategyAuto prepares
		// it onto the propagate fallback (dra.Stats.FellBack).
		{"max/poll", Config{UseDRA: true}, "SELECT MAX(price) FROM stocks"},
		{"propagate/push", Config{UseDRA: true, Strategy: dra.StrategyPropagate, Push: true}, selection},
		{"full/poll", Config{UseDRA: false}, selection},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
			m := NewManagerConfig(s, tc.cfg)
			defer func() { _ = m.Close() }()
			initial, err := m.Register(Def{Name: "q", Query: tc.query})
			if err != nil {
				t.Fatal(err)
			}
			fold := newFoldTranscript(initial)
			if _, err := m.SubscribeFunc("q", fold.apply); err != nil {
				t.Fatal(err)
			}

			const commits = 300
			done := make(chan error, 1)
			go func() {
				for i := 0; i < commits; i++ {
					tx := s.Begin()
					_, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("S%03d", i)), relation.Float(float64(11 + i))})
					if err == nil {
						_, err = tx.Commit()
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < commits; i++ {
				if tc.cfg.Push {
					m.FlushPush()
				} else if _, err := m.Poll(); err != nil {
					t.Fatalf("poll %d beside the writer: %v", i, err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			m.FlushPush()
			if _, err := m.Poll(); err != nil {
				t.Fatalf("final poll: %v", err)
			}

			got, err := m.Result("q")
			if err != nil {
				t.Fatal(err)
			}
			fold.check(t, "Result", got)
			plan, err := algebra.PlanSQL(tc.query, s.Live())
			if err != nil {
				t.Fatal(err)
			}
			want, err := dra.InitialResult(algebra.Optimize(plan), s.Live())
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualByTID(want) {
				t.Fatalf("result diverges from complete re-evaluation:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestTemplateRouteSurvivesAnEmptiedGroup: a template group whose last
// member terminates on the push path is reaped where it empties — no Poll
// involved — so the next CQ of the template creates a routed group
// instead of joining a dead one whose push route was retired.
func TestTemplateRouteSurvivesAnEmptiedGroup(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, Push: true, ShareTemplates: true, Metrics: reg})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{
		Name: "a", Query: "SELECT * FROM stocks WHERE price > 100",
		Stop: sql.StopSpec{AfterN: 2}, // initial + 1 refresh
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauge("cq.templates"); got != 1 {
		t.Fatalf("cq.templates = %d after registering a, want 1", got)
	}
	insertStock(t, s, "DEC", 150)
	m.FlushPush()
	if st, err := m.State("a"); err != nil || !st.Terminated {
		t.Fatalf("a after its second execution: %+v (err %v), want terminated", st, err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauge("cq.templates"); got != 0 {
		t.Errorf("cq.templates = %d after a's group emptied, want 0 (reaped by the dispatch that emptied it)", got)
	}
	if got := snap.Gauge("cq.registered"); got != 0 {
		t.Errorf("cq.registered = %d after a terminated on the push path, want 0", got)
	}

	if _, err := m.Register(Def{Name: "b", Query: "SELECT * FROM stocks WHERE price > 120"}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := subscribeChan(m, "b", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	insertStock(t, s, "QLI", 130)
	m.FlushPush()
	notes := drain(ch)
	if len(notes) != 1 || notes[0].Inserted == nil || notes[0].Inserted.Len() != 1 {
		t.Fatalf("b got %d push notifications, want 1 with the inserted row: %+v", len(notes), notes)
	}
	if reg.Snapshot().Counter("cq.polls") != 0 {
		t.Fatal("a poll ran; the push path alone must deliver b's notification")
	}
}

// TestRefreshLeavesTheManagerUnlocked: a manual Refresh evaluates and
// delivers under the instance lock only, so the rest of the manager stays
// usable while one CQ's subscriber is slow.
func TestRefreshLeavesTheManagerUnlocked(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	m := NewManager(s)
	defer func() { _ = m.Close() }()
	for _, name := range []string{"slow", "other"} {
		if _, err := m.Register(Def{Name: name, Query: "SELECT * FROM stocks WHERE price > 0"}); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	if _, err := m.SubscribeFunc("slow", func(n Notification, closed bool) {
		if !closed {
			close(entered)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	insertStock(t, s, "DEC", 150)
	refreshed := make(chan error, 1)
	go func() { refreshed <- m.Refresh("slow") }()
	<-entered

	// The delivery is parked inside Refresh("slow"). Everything below
	// takes the manager lock; with Refresh holding it they would hang.
	unblocked := make(chan error, 1)
	go func() {
		_ = m.Names()
		if _, err := m.Result("other"); err != nil {
			unblocked <- err
			return
		}
		unblocked <- m.Refresh("other")
	}()
	select {
	case err := <-unblocked:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("the manager is locked while Refresh evaluates a CQ")
	}
	close(release)
	if err := <-refreshed; err != nil {
		t.Fatal(err)
	}
}
