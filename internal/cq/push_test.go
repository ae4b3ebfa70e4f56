package cq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/workload"
)

// renderRel canonicalizes a relation for transcript comparison: rows
// sorted, TIDs included (TID allocation is deterministic, so identical
// commit sequences must produce identical TIDs).
func renderRel(r *relation.Relation) string {
	if r == nil {
		return "-"
	}
	rows := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		tup := r.At(i)
		rows[i] = fmt.Sprintf("%d:%v", tup.TID, tup.Values)
	}
	sort.Strings(rows)
	return "[" + strings.Join(rows, " ") + "]"
}

// renderNotification canonicalizes one delivery.
func renderNotification(n Notification) string {
	mods := make([]string, len(n.Modified()))
	for i, r := range n.Modified() {
		mods[i] = fmt.Sprintf("%d:%v->%v", r.TID, r.Old, r.New)
	}
	sort.Strings(mods)
	return fmt.Sprintf("seq=%d ts=%d term=%v ins=%s del=%s mod=[%s] com=%s",
		n.Seq, n.ExecTS, n.Terminated,
		renderRel(n.Inserted()), renderRel(n.Deleted()),
		strings.Join(mods, " "), renderRel(n.Complete))
}

// e2eWorld runs the shared commit script under one refresh mode and
// returns the per-CQ notification transcript plus the final metrics
// snapshot. Modes: "poll" (push off, Poll after every commit), "push"
// (push on, FlushPush after every commit), "mixed" (push on with a
// 1-slot queue and 1 worker so most routings overflow, FlushPush + Poll
// after every commit — the overflowed CQs refresh through the poll
// fallback at the same timestamp), "manual" (push off, no Poll: a forced
// Refresh of every CQ, in name order, after every commit).
func e2eWorld(t *testing.T, mode string, steps int) (map[string][]string, obs.Snapshot) {
	return e2eWorldCfg(t, mode, steps, nil)
}

// e2eWorldCfg is e2eWorld with a config hook, so variant worlds (row
// vs columnar engines, shared templates) replay the identical script.
func e2eWorldCfg(t *testing.T, mode string, steps int, mutate func(*Config)) (map[string][]string, obs.Snapshot) {
	t.Helper()
	reg := obs.NewRegistry()
	s := storage.NewStore()
	s.Instrument(reg)
	for _, table := range []string{"s1", "s2"} {
		if err := s.CreateTable(table, workload.StockSchema()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{UseDRA: true, AutoGC: true, Metrics: reg}
	switch mode {
	case "push":
		cfg.Push = true
	case "mixed":
		cfg.Push = true
		cfg.PushQueue = 1
		cfg.Parallelism = 1
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m := NewManagerConfig(s, cfg)
	defer func() { _ = m.Close() }()

	// Same-seed generators produce the same symbols in both tables, so
	// the equi-join on name is non-trivially populated.
	g1 := workload.NewStocks(s, "s1", 7, workload.DefaultMix)
	g2 := workload.NewStocks(s, "s2", 7, workload.DefaultMix)
	if err := g1.Seed(40); err != nil {
		t.Fatal(err)
	}
	if err := g2.Seed(40); err != nil {
		t.Fatal(err)
	}

	defs := []Def{
		{Name: "sel", Query: "SELECT * FROM s1 WHERE price > 50"},
		{Name: "join", Query: "SELECT s1.name, s2.price FROM s1, s2 WHERE s1.name = s2.name"},
		{Name: "upd3", Query: "SELECT * FROM s1 WHERE price > 20",
			Trigger: sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 3}},
		{Name: "compl", Query: "SELECT * FROM s2 WHERE price > 100", Mode: sql.ModeComplete},
	}
	var mu sync.Mutex
	transcript := make(map[string][]string)
	for _, def := range defs {
		if _, err := m.Register(def); err != nil {
			t.Fatal(err)
		}
		name := def.Name
		if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
			if closed {
				return
			}
			mu.Lock()
			transcript[name] = append(transcript[name], renderNotification(n))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The synchronization discipline that makes the three modes
	// comparable: the logical clock ticks only on commits, and each mode
	// quiesces after every commit, so every refresh in every mode runs at
	// a commit timestamp with an identical delta window.
	for i := 0; i < steps; i++ {
		g := g1
		if i%3 == 1 {
			g = g2
		}
		if err := g.Batch(1 + i%4); err != nil {
			t.Fatal(err)
		}
		m.FlushPush() // no-op in poll mode
		switch mode {
		case "push":
		case "manual":
			for _, name := range m.Names() {
				if err := m.Refresh(name); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if _, err := m.Poll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if mode == "manual" {
		// A forced refresh is an execution whether or not anything
		// changed: one per commit, none lost, none doubled.
		for _, name := range m.Names() {
			if st, err := m.State(name); err != nil || st.Seq != 1+steps {
				t.Errorf("manual: %q ended at seq %d (err %v), want %d", name, st.Seq, err, 1+steps)
			}
		}
	}
	m.FlushPush()
	if _, err := m.Poll(); err != nil { // clears any final overflow residue
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return transcript, reg.Snapshot()
}

// TestPushPollEquivalence is the push/poll equivalence property: the
// same commit sequence must yield identical per-CQ notification
// sequences — Seq, ExecTS, and full deltas — whether refreshes are
// driven by the poll loop, by the push router, or by a mix where a
// deliberately starved queue forces the overflow fallback. Run with
// -race, this is also the concurrency check on the commit-hook pipeline.
func TestPushPollEquivalence(t *testing.T) {
	const steps = 48
	base, _ := e2eWorld(t, "poll", steps)
	for _, name := range []string{"sel", "join", "upd3", "compl"} {
		if len(base[name]) == 0 {
			t.Fatalf("poll transcript for %q is empty; the script is too tame", name)
		}
	}
	push, pushSnap := e2eWorld(t, "push", steps)
	mixed, mixedSnap := e2eWorld(t, "mixed", steps)

	// The push world must actually have pushed, and the mixed world must
	// actually have overflowed — otherwise the property holds vacuously.
	if pushSnap.Counter("push.refreshes") == 0 {
		t.Fatal("push mode never dispatched a refresh")
	}
	if mixedSnap.Counter("push.overflows") == 0 {
		t.Fatal("mixed mode never overflowed; the fallback path went unexercised")
	}

	compare := func(mode string, want, got map[string][]string) {
		for name, w := range want {
			g := got[name]
			if len(g) != len(w) {
				t.Errorf("%s: %q delivered %d notifications, poll delivered %d", mode, name, len(g), len(w))
				continue
			}
			for i := range w {
				if g[i] != w[i] {
					t.Errorf("%s: %q notification %d:\n  poll: %s\n  %s: %s", mode, name, i, w[i], mode, g[i])
				}
			}
		}
	}
	compare("push", base, push)
	compare("mixed", base, mixed)

	// Manual refresh is the fourth feeder of the same pipeline. It
	// executes every CQ on every commit, so only a CQ whose trigger fires
	// on every commit anyway — the join reads both tables — keeps its
	// numbering. The per-commit selection delivers the same changes at
	// the same timestamps under later sequence numbers (its empty
	// executions count but are not delivered). upd3 batches by three under
	// its trigger and by one when forced, and compl (complete mode)
	// delivers its result on every execution, changed or not: those two
	// are held to the sequence check inside the world only.
	manual, _ := e2eWorld(t, "manual", steps)
	unnumbered := func(tr map[string][]string, name string) []string {
		out := make([]string, len(tr[name]))
		for i, line := range tr[name] {
			out[i] = line[strings.Index(line, " ts="):]
		}
		return out
	}
	compare("manual",
		map[string][]string{"join": base["join"], "sel": unnumbered(base, "sel")},
		map[string][]string{"join": manual["join"], "sel": unnumbered(manual, "sel")})
}

// TestPushRefreshesWithoutPolling is the latency claim in miniature: in
// push mode a commit's refresh and notification arrive from FlushPush
// alone — no Poll, no poll loop.
func TestPushRefreshesWithoutPolling(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, Push: true, Metrics: reg})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "q", Query: "SELECT * FROM stocks WHERE price > 100"}); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := subscribeChan(m, "q", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	insertStock(t, s, "DEC", 150)
	m.FlushPush()
	notes := drain(ch)
	if len(notes) != 1 {
		t.Fatalf("notifications = %d, want 1 (delivered by push, not poll)", len(notes))
	}
	if notes[0].Seq != 2 || notes[0].Inserted() == nil || notes[0].Inserted().Len() != 1 {
		t.Fatalf("unexpected notification %+v", notes[0])
	}
	if reg.Snapshot().Counter("cq.polls") != 0 {
		t.Fatal("a poll ran; the push path should not need one")
	}
	// Seq stays gap-free when a Poll follows: the window is already
	// consumed, so the poll is a no-op.
	if n, err := m.Poll(); err != nil || n != 0 {
		t.Fatalf("post-push Poll = (%d, %v), want (0, nil)", n, err)
	}
}

// TestPushSmallResultSelectionStaysDifferential holds a selection whose
// result (a handful of rows) is far smaller than its windows through
// more than sixteen push refreshes while a writer keeps committing. The
// result size says nothing about |R|: however small it is against its
// windows, the plan holds the differential path it was prepared on —
// complete re-evaluation would scan the relation beside the writer — and
// its answer must stay exact.
func TestPushSmallResultSelectionStaysDifferential(t *testing.T) {
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
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Push: true, Metrics: reg})
	defer func() { _ = m.Close() }()
	const query = "SELECT * FROM stocks WHERE price > 396" // 3 of 400 rows
	if _, err := m.Register(Def{Name: "q", Query: query}); err != nil {
		t.Fatal(err)
	}
	for round := 0; reg.Snapshot().Counter("cq.refreshes") < 20; round++ {
		if round > 400 {
			t.Fatalf("only %d refreshes after %d commits", reg.Snapshot().Counter("cq.refreshes"), round)
		}
		// 16-row windows over a 3-row result; every commit moves a row
		// across the predicate boundary so each refresh has work to do.
		commit(t, s, func(tx *storage.Tx) error {
			for k := 0; k < 16; k++ {
				i := (round*16 + k) % len(tids)
				price := float64((i + round) % 400)
				if err := tx.Update("stocks", tids[i], []relation.Value{relation.Str(fmt.Sprintf("S%03d", i)), relation.Float(price)}); err != nil {
					return err
				}
			}
			return nil
		})
		if round%4 == 3 {
			m.FlushPush() // otherwise refreshes overlap the next commits
		}
		if st, err := m.State("q"); err != nil || st.Strategy != "incremental" {
			t.Fatalf("round %d: strategy = %q (err %v), want incremental throughout", round, st.Strategy, err)
		}
	}
	m.FlushPush()
	got, err := m.Result("q")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.PlanSQL(query, s.Live())
	if err != nil {
		t.Fatal(err)
	}
	want, err := dra.InitialResult(algebra.Optimize(plan), s.Live())
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualByTID(want) {
		t.Fatalf("pushed result diverges from re-evaluation:\n%s\nwant:\n%s", got, want)
	}
}

// TestPushDispatchesShareOneWindow: one commit fans out to one push
// dispatch per private CQ, and every dispatch at the commit's timestamp
// reads the same window cache. Each commit plus FlushPush therefore
// builds the window's image once — raw, or folded when the engine
// compacts — however many CQs read it, while every CQ still refreshes
// once and delivers what a Poll-driven manager delivers. The triggers
// count the window's rows in the live log and read nothing from the
// cache.
func TestPushDispatchesShareOneWindow(t *testing.T) {
	const cqs, steps = 8, 12
	for _, tc := range []struct {
		compact         bool
		missesPerCommit int64
	}{
		{false, 1}, // the raw image
		{true, 1},  // the folded image
	} {
		t.Run(fmt.Sprintf("compact=%v", tc.compact), func(t *testing.T) {
			world := func(push bool) map[string][]string {
				s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
				var tids []relation.TID
				for i := 0; i < 16; i++ {
					tids = append(tids, insertStock(t, s, fmt.Sprintf("S%02d", i), float64(10*i)))
				}
				reg := obs.NewRegistry()
				s.Instrument(reg)
				eng := dra.NewEngine()
				eng.CompactDeltas = tc.compact
				m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Push: push, Engine: eng, Metrics: reg})
				defer func() { _ = m.Close() }()
				var mu sync.Mutex
				transcript := make(map[string][]string)
				for i := 0; i < cqs; i++ {
					name := fmt.Sprintf("q%d", i)
					if _, err := m.Register(Def{Name: name, Query: fmt.Sprintf("SELECT * FROM stocks WHERE price > %d", 20*i)}); err != nil {
						t.Fatal(err)
					}
					if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
						if !closed {
							mu.Lock()
							transcript[name] = append(transcript[name], renderNotification(n))
							mu.Unlock()
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
				for step := 0; step < steps; step++ {
					before := reg.Snapshot()
					commit(t, s, func(tx *storage.Tx) error {
						for k := 0; k < 4; k++ {
							i := (3*step + k) % len(tids)
							price := float64((37*step + 11*k) % 200)
							if err := tx.Update("stocks", tids[i], []relation.Value{relation.Str(fmt.Sprintf("S%02d", i)), relation.Float(price)}); err != nil {
								return err
							}
						}
						return nil
					})
					if push {
						m.FlushPush()
					} else if _, err := m.Poll(); err != nil {
						t.Fatal(err)
					}
					after := reg.Snapshot()
					if got := after.Counter("cq.refreshes") - before.Counter("cq.refreshes"); got != cqs {
						t.Fatalf("push=%v step %d: %d refreshes, want one per CQ (%d)", push, step, got, cqs)
					}
					if !push {
						continue
					}
					if got := after.Counter("storage.window_cache.misses") - before.Counter("storage.window_cache.misses"); got != tc.missesPerCommit {
						t.Fatalf("step %d: %d window cache misses for %d dispatches, want %d", step, got, cqs, tc.missesPerCommit)
					}
				}
				return transcript
			}
			polled, pushed := world(false), world(true)
			if len(polled) != cqs {
				t.Fatalf("poll transcripts for %d CQs, want %d", len(polled), cqs)
			}
			for name, want := range polled {
				if fmt.Sprint(pushed[name]) != fmt.Sprint(want) {
					t.Errorf("%s:\n  poll: %v\n  push: %v", name, want, pushed[name])
				}
			}
		})
	}
}
