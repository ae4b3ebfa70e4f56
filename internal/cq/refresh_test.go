package cq

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
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
	for _, r := range n.Modified() {
		if cur, ok := f.state[r.TID]; !ok || !slices.EqualFunc(cur, r.Old, relation.Value.Equal) {
			f.errorf("seq %d modifies tid %d from %v, but the result holds %v", n.Seq, r.TID, r.Old, cur)
		}
	}
	if del := n.Deleted(); del != nil {
		for _, tu := range del.Tuples() {
			if _, ok := f.state[tu.TID]; !ok {
				f.errorf("seq %d deletes tid %d, which is not in the result", n.Seq, tu.TID)
			}
			delete(f.state, tu.TID)
		}
	}
	if ins := n.Inserted(); ins != nil {
		for _, tu := range ins.Tuples() {
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
		if got, ok := f.state[tu.TID]; !ok || !slices.EqualFunc(got, tu.Values, relation.Value.Equal) {
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
	if len(notes) != 1 || notes[0].Inserted() == nil || notes[0].Inserted().Len() != 1 {
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

// TestCollectGarbageBesideParkedCallback: collection reads each CQ's
// last execution without its lock, so one subscriber parked in delivery
// — under its instance lock — holds up no table's collection: the rows
// of a table only another CQ reads go as soon as that CQ has moved past
// them.
func TestCollectGarbageBesideParkedCallback(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "other": stockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true})
	defer func() { _ = m.Close() }()
	for name, table := range map[string]string{"slow": "stocks", "fast": "other"} {
		if _, err := m.Register(Def{Name: name, Query: "SELECT * FROM " + table + " WHERE price > 0"}); err != nil {
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
	defer func() {
		close(release)
		if err := <-refreshed; err != nil {
			t.Error(err)
		}
	}()

	mark := s.Now()
	commit(t, s, func(tx *storage.Tx) error {
		_, err := tx.Insert("other", []relation.Value{relation.Str("QLI"), relation.Float(130)})
		return err
	})
	if err := m.Refresh("fast"); err != nil {
		t.Fatal(err)
	}
	if n := m.CollectGarbage(); n == 0 {
		t.Fatal("a callback parked under one CQ's lock stopped collection on every table")
	}
	if _, err := s.DeltaSince("other", mark); !errors.Is(err, storage.ErrStaleWindow) {
		t.Fatalf("the row of other that fast has passed is still in its log (err = %v)", err)
	}
}

// TestKeptNotificationOutlivesLaterRefreshes: a notification carries its
// refresh's own result delta and renders its views only when asked, so
// one a subscriber keeps must render the same Inserted, Deleted and
// Modified, and hold the same Delta rows, old halves included, after 50
// later refreshes of its CQ as it did in the callback — for a private CQ
// refreshed by Poll or by push, and for a template member folded from
// its group's stream. Every other refresh is empty and notifies
// (NotifyEmpty) with the CQ's one empty Delta, which must never gain a
// row. This fails if anything a notification references is pooled or
// reused.
func TestKeptNotificationOutlivesLaterRefreshes(t *testing.T) {
	for _, mode := range []sql.ResultMode{sql.ModeDifferential, sql.ModeDeletions, sql.ModeComplete} {
		for _, driver := range []string{"poll", "push", "member"} {
			t.Run(fmt.Sprintf("%s/%s", mode, driver), func(t *testing.T) {
				s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
				var tids []relation.TID
				for i := 0; i < 8; i++ {
					tids = append(tids, insertStock(t, s, fmt.Sprintf("S%d", i), float64(20+i)))
				}
				push := driver == "push"
				m := NewManagerConfig(s, Config{UseDRA: true, Push: push, ShareTemplates: driver == "member"})
				defer func() { _ = m.Close() }()
				if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM stocks WHERE price > 10", Mode: mode, NotifyEmpty: true}); err != nil {
					t.Fatal(err)
				}
				if driver == "member" {
					if _, err := m.Register(Def{Name: "mate", Query: "SELECT * FROM stocks WHERE price > 25"}); err != nil {
						t.Fatal(err)
					}
					if st, err := m.State("q"); err != nil || st.Template == 0 {
						t.Fatalf("q did not join a template group: %+v, %v", st, err)
					}
				}
				var mu sync.Mutex
				var kept []Notification
				var rendered, rows []string
				if _, err := m.SubscribeFunc("q", func(n Notification, closed bool) {
					if closed {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					kept = append(kept, n)
					rendered = append(rendered, renderNotification(n))
					rows = append(rows, fmt.Sprint(n.Delta.Rows()))
				}); err != nil {
					t.Fatal(err)
				}
				refresh := func() {
					if push {
						m.FlushPush()
					} else if _, err := m.Poll(); err != nil {
						t.Fatal(err)
					}
				}
				// An empty refresh: a row below the threshold comes and goes.
				empty := func(i int) {
					commit(t, s, func(tx *storage.Tx) error {
						_, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("Z%d", i)), relation.Float(1)})
						return err
					})
					refresh()
				}
				// Every change round inserts, modifies and deletes a result row.
				for round := 0; round < 4; round++ {
					commit(t, s, func(tx *storage.Tx) error {
						if _, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("N%d", round)), relation.Float(float64(30 + round))}); err != nil {
							return err
						}
						if err := tx.Update("stocks", tids[round], []relation.Value{relation.Str(fmt.Sprintf("S%d", round)), relation.Float(float64(100 + round))}); err != nil {
							return err
						}
						return tx.Delete("stocks", tids[4+round])
					})
					refresh()
					empty(round)
				}
				mu.Lock()
				if len(kept) != 8 {
					t.Fatalf("%d notifications, want 8", len(kept))
				}
				first, none := kept[0], kept[1]
				if first.Deleted().Len() != 2 || mode != sql.ModeDeletions && (first.Inserted().Len() != 2 || len(first.Modified()) != 1) {
					t.Fatalf("the first refresh's views are too thin to prove anything: %s", rendered[0])
				}
				if none.Delta == nil || none.Delta.Len() != 0 {
					t.Fatalf("the second refresh is not empty: %s", rendered[1])
				}
				mu.Unlock()
				// 50 later refreshes, half of them changes: each moves a
				// result row to a new price and back again.
				for i := 0; i < 25; i++ {
					commit(t, s, func(tx *storage.Tx) error {
						return tx.Update("stocks", tids[i%4], []relation.Value{relation.Str(fmt.Sprintf("S%d", i%4)), relation.Float(float64(200 + i))})
					})
					refresh()
					empty(4 + i)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(kept) != 58 {
					t.Fatalf("%d notifications, want 58", len(kept))
				}
				for i, n := range kept[:8] {
					if got := renderNotification(n); got != rendered[i] {
						t.Errorf("notification %d, %d refreshes later:\n got %s\nwant %s", i, len(kept)-1-i, got, rendered[i])
					}
					if got := fmt.Sprint(n.Delta.Rows()); got != rows[i] {
						t.Errorf("notification %d's delta rows, %d refreshes later:\n got %s\nwant %s", i, len(kept)-1-i, got, rows[i])
					}
				}
				for i := 1; i < len(kept); i += 2 {
					if d := kept[i].Delta; d != none.Delta || d.Len() != 0 {
						t.Fatalf("empty refresh %d reported %v (%d rows), want the CQ's one empty delta", i, d, d.Len())
					}
				}
			})
		}
	}
}

// TestReusedStepContextForgetsEarlierRounds: every evaluator refills one
// step context in place, refresh after refresh. A 2-way join and a
// selection on one of its operands, driven through rounds that change
// a, then b, then neither, then both — each round also forcing a refresh
// of every CQ over an empty window, which must deliver nothing — must
// equal complete re-evaluation after every round. This fails if a reused
// context keeps an earlier round's window or batch.
func TestReusedStepContextForgetsEarlierRounds(t *testing.T) {
	queries := map[string]string{
		"join": "SELECT a.name, b.price FROM a, b WHERE a.name = b.name",
		"sel":  "SELECT * FROM a WHERE price > 50",
		"sel2": "SELECT * FROM a WHERE price > 70", // a template mate of sel under sharing
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"poll", Config{UseDRA: true}},
		{"push", Config{UseDRA: true, Push: true}},
		{"templates", Config{UseDRA: true, ShareTemplates: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStoreWith(t, map[string]relation.Schema{"a": stockSchema(), "b": stockSchema()})
			tids := map[string][]relation.TID{}
			for _, table := range []string{"a", "b"} {
				commit(t, s, func(tx *storage.Tx) error {
					for i := 0; i < 6; i++ {
						tid, err := tx.Insert(table, []relation.Value{relation.Str(fmt.Sprintf("S%d", i)), relation.Float(float64(40 + 10*i))})
						if err != nil {
							return err
						}
						tids[table] = append(tids[table], tid)
					}
					return nil
				})
			}
			m := NewManagerConfig(s, tc.cfg)
			defer func() { _ = m.Close() }()
			var mu sync.Mutex
			delivered := map[string]int{}
			for name, q := range queries {
				if _, err := m.Register(Def{Name: name, Query: q}); err != nil {
					t.Fatal(err)
				}
				if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
					mu.Lock()
					defer mu.Unlock()
					if !closed {
						delivered[name]++
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			change := func(tx *storage.Tx, table string, round int) error {
				i := round % 6
				if err := tx.Update(table, tids[table][i], []relation.Value{relation.Str(fmt.Sprintf("S%d", i)), relation.Float(float64(35 + 17*round))}); err != nil {
					return err
				}
				_, err := tx.Insert(table, []relation.Value{relation.Str(fmt.Sprintf("S%d", (i+3)%6)), relation.Float(float64(60 + round))})
				return err
			}
			for round, tables := range [][]string{{"a"}, {"b"}, nil, {"a", "b"}, {"a"}, nil, {"b"}} {
				if tables != nil {
					commit(t, s, func(tx *storage.Tx) error {
						for _, table := range tables {
							if err := change(tx, table, round); err != nil {
								return err
							}
						}
						return nil
					})
				}
				if tc.cfg.Push {
					m.FlushPush()
				} else if _, err := m.Poll(); err != nil {
					t.Fatal(err)
				}
				for step, forced := range []bool{false, true} {
					if forced {
						// The windows are empty: the refreshes change nothing,
						// so they deliver nothing.
						mu.Lock()
						before := maps.Clone(delivered)
						mu.Unlock()
						for _, name := range m.Names() {
							if err := m.Refresh(name); err != nil {
								t.Fatal(err)
							}
						}
						mu.Lock()
						after := maps.Clone(delivered)
						mu.Unlock()
						if !maps.Equal(before, after) {
							t.Fatalf("round %d (changed %v): a forced refresh over an empty window delivered a change: %v before, %v after", round, tables, before, after)
						}
					}
					for name, q := range queries {
						got, err := m.Result(name)
						if err != nil {
							t.Fatal(err)
						}
						want, err := dra.InitialResult(mustPlan(t, q, s), s.Live())
						if err != nil {
							t.Fatal(err)
						}
						if !got.EqualByTID(want) {
							t.Fatalf("round %d (changed %v), step %d: %s diverges from complete re-evaluation:\n%s\nwant:\n%s", round, tables, step, name, got, want)
						}
					}
				}
			}
		})
	}
}

// TestEmptyRefreshAllocatesNothing: a refresh whose change is empty —
// a private CQ whose predicate rejects the window, a template member
// the group dispatched nothing to — allocates nothing, its span, result
// header, change and NotifyEmpty notification included. A round with
// seventeen such CQs allocates what a round with one does: the commit,
// the round's snapshot and window, and (for members) the group's one
// step are the round's fixed allocations.
func TestEmptyRefreshAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	for _, tc := range []struct {
		name  string
		share bool
	}{{"private", false}, {"template member", true}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(cqs int) float64 {
				s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
				tid := insertStock(t, s, "DEC", 50)
				reg := obs.NewRegistry()
				m := NewManagerConfig(s, Config{UseDRA: true, ShareTemplates: tc.share, Parallelism: 1, Metrics: reg})
				defer func() { _ = m.Close() }()
				notes := 0
				for i := 0; i < cqs; i++ {
					name := fmt.Sprintf("q%02d", i)
					q := fmt.Sprintf("SELECT name, price FROM stocks WHERE price > %d", 1000+i)
					if _, err := m.Register(Def{Name: name, Query: q, NotifyEmpty: true}); err != nil {
						t.Fatal(err)
					}
					if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
						if !closed && n.Delta.Len() == 0 {
							notes++
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
				if tc.share {
					if got := reg.Snapshot().Gauge("cq.template.members"); got != int64(cqs) {
						t.Fatalf("%d template members, want %d", got, cqs)
					}
				}
				price := 0
				round := func() {
					price = (price + 1) % 100
					commit(t, s, func(tx *storage.Tx) error {
						return tx.Update("stocks", tid, []relation.Value{relation.Str("DEC"), relation.Float(float64(price))})
					})
					if n, err := m.Poll(); err != nil || n != cqs {
						t.Fatalf("poll refreshed %d CQs (err %v), want %d", n, err, cqs)
					}
				}
				// Warm-up: the trace ring fills and starts handing back spans,
				// pools and reused buffers reach size.
				for i := 0; i < 2*obs.DefaultTraceCapacity; i++ {
					round()
				}
				before := notes
				got := testing.AllocsPerRun(50, round)
				if notes == before {
					t.Fatal("no empty notification was delivered")
				}
				if n := reg.Snapshot().Counter("cq.refreshes_empty"); n != reg.Snapshot().Counter("cq.refreshes") {
					t.Fatalf("%d of %d refreshes empty, want all", n, reg.Snapshot().Counter("cq.refreshes"))
				}
				return got
			}
			one, many := allocs(1), allocs(17)
			if many > one {
				t.Errorf("a round of 17 empty refreshes allocates %v, a round of one %v: %.2f per empty refresh, want 0",
					many, one, (many-one)/16)
			}
		})
	}
}
