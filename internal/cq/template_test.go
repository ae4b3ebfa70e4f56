package cq

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
	"github.com/diorama/continual/internal/workload"
)

// tmplWorld runs one commit script under one refresh mode with template
// sharing on or off, and returns the per-CQ notification transcript plus
// the final metrics snapshot. The CQ set mixes three members of a range
// template, two of an equality template, two of a join template, a
// StopAfterN member, an update-counting trigger, a ModeComplete member,
// and a non-templatable query that must coexist unshared.
func tmplWorld(t *testing.T, shared bool, mode string, steps int) (map[string][]string, obs.Snapshot) {
	t.Helper()
	reg := obs.NewRegistry()
	s := storage.NewStore()
	s.Instrument(reg)
	for _, table := range []string{"s1", "s2"} {
		if err := s.CreateTable(table, workload.StockSchema()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{UseDRA: true, AutoGC: true, Metrics: reg, ShareTemplates: shared}
	switch mode {
	case "push":
		cfg.Push = true
	case "mixed":
		cfg.Push = true
		cfg.PushQueue = 1
		cfg.Parallelism = 1
	}
	m := NewManagerConfig(s, cfg)
	defer func() { _ = m.Close() }()

	g1 := workload.NewStocks(s, "s1", 11, workload.DefaultMix)
	g2 := workload.NewStocks(s, "s2", 11, workload.DefaultMix)
	if err := g1.Seed(40); err != nil {
		t.Fatal(err)
	}
	if err := g2.Seed(40); err != nil {
		t.Fatal(err)
	}

	defs := []Def{
		{Name: "p50", Query: "SELECT * FROM s1 WHERE price > 50"},
		{Name: "p120", Query: "SELECT * FROM s1 WHERE price > 120"},
		{Name: "p80", Query: "SELECT * FROM s1 WHERE price > 80"},
		{Name: "eqA", Query: "SELECT * FROM s1 WHERE name = 'S00003'"},
		{Name: "eqB", Query: "SELECT * FROM s1 WHERE name = 'S00017'"},
		{Name: "j30", Query: "SELECT s1.name, s1.price FROM s1, s2 WHERE s1.name = s2.name AND s1.price > 30"},
		{Name: "j90", Query: "SELECT s1.name, s1.price FROM s1, s2 WHERE s1.name = s2.name AND s1.price > 90"},
		{Name: "stop3", Query: "SELECT * FROM s1 WHERE price > 60", Stop: sql.StopSpec{AfterN: 3}},
		{Name: "upd3", Query: "SELECT * FROM s1 WHERE price > 20",
			Trigger: sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 3}},
		{Name: "compl", Query: "SELECT * FROM s2 WHERE price > 100", Mode: sql.ModeComplete},
		{Name: "plain", Query: "SELECT * FROM s1"},
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

	// As in e2eWorld: the logical clock ticks only on commits and each
	// mode quiesces after every commit, so every refresh runs at a
	// commit timestamp with an identical delta window in every world.
	for i := 0; i < steps; i++ {
		g := g1
		if i%3 == 1 {
			g = g2
		}
		if err := g.Batch(1 + i%4); err != nil {
			t.Fatal(err)
		}
		m.FlushPush()
		if mode != "push" {
			if _, err := m.Poll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.FlushPush()
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return transcript, reg.Snapshot()
}

// TestTemplateSharingEquivalence is the tenancy-transparency property:
// with ShareTemplates on, every CQ's notification transcript — Seq,
// ExecTS, full deltas, termination — must be byte-identical to the one
// its private plan would have produced, under poll-, push-, and
// overflow-driven refresh. Run with -race this also exercises the
// group-step/dispatch pipeline concurrently.
func TestTemplateSharingEquivalence(t *testing.T) {
	const steps = 48
	names := []string{"p50", "p120", "p80", "eqA", "j30", "j90", "stop3", "upd3", "compl", "plain"}
	for _, mode := range []string{"poll", "push", "mixed"} {
		base, _ := tmplWorld(t, false, mode, steps)
		for _, n := range []string{"p50", "j30", "stop3", "upd3"} {
			if len(base[n]) == 0 {
				t.Fatalf("%s: unshared transcript for %q is empty; the script is too tame", mode, n)
			}
		}
		got, snap := tmplWorld(t, true, mode, steps)
		// The property must not hold vacuously: sharing actually engaged.
		if snap.Counter("cq.template.shared_registrations") < 7 {
			t.Fatalf("%s: only %d shared registrations; template extraction regressed",
				mode, snap.Counter("cq.template.shared_registrations"))
		}
		if snap.Counter("cq.template.steps") == 0 {
			t.Fatalf("%s: shared world never stepped a template", mode)
		}
		for _, name := range names {
			want, have := base[name], got[name]
			if len(have) != len(want) {
				t.Errorf("%s: %q delivered %d notifications shared, %d unshared",
					mode, name, len(have), len(want))
				continue
			}
			for i := range want {
				if have[i] != want[i] {
					t.Errorf("%s: %q notification %d:\n  unshared: %s\n  shared:   %s",
						mode, name, i, want[i], have[i])
				}
			}
		}
	}
}

// TestTemplateDispatchFanout is the O(matches) claim on the dispatch
// stage: with many members on one template, a committed row must reach
// its matching members through the parameter index without touching the
// rest — candidates stays proportional to matches, not to members.
func TestTemplateDispatchFanout(t *testing.T) {
	const members = 200
	for _, tc := range []struct {
		kind    string
		matched string
		query   func(i int) string
	}{
		{"equality", "q0007", func(i int) string {
			return fmt.Sprintf("SELECT * FROM stocks WHERE name = 'N%04d'", i)
		}},
		{"range", "q0000", func(i int) string {
			return fmt.Sprintf("SELECT * FROM stocks WHERE price > %d", 1000+i)
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
			reg := obs.NewRegistry()
			m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Metrics: reg, ShareTemplates: true})
			defer func() { _ = m.Close() }()
			for i := 0; i < members; i++ {
				if _, err := m.Register(Def{Name: fmt.Sprintf("q%04d", i), Query: tc.query(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if g := reg.Snapshot().Gauge("cq.templates"); g != 1 {
				t.Fatalf("templates = %d, want 1", g)
			}
			// One row that exactly one member selects: name N0007, or
			// price 1000.5 (above 1000, at or below every other bound).
			insertStock(t, s, "N0007", 1000.5)
			if _, err := m.Poll(); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			cand := snap.Counter("cq.template.dispatch_candidates")
			match := snap.Counter("cq.template.dispatch_matches")
			if match != 1 {
				t.Fatalf("matches = %d, want 1", match)
			}
			if cand != match {
				t.Fatalf("candidates = %d for %d matches; index over-approximates on the primary slot", cand, match)
			}
			st, err := m.State(tc.matched)
			if err != nil {
				t.Fatal(err)
			}
			if st.Seq != 2 || st.ResultLen != 1 || st.Template == 0 || st.TemplateMates != members {
				t.Fatalf("matched member state = %+v", st)
			}
		})
	}
}

// nameFaultJournal fails StageCQExec for one CQ while armed, letting a
// test break exactly one member of a shared template: the journal write
// happens after the shared fold but before any member state mutates, so
// the fault exercises the retry-against-intact-buffers path.
type nameFaultJournal struct {
	mu    sync.Mutex
	name  string
	armed bool
}

var _ Journal = (*nameFaultJournal)(nil)

func (j *nameFaultJournal) arm(on bool) {
	j.mu.Lock()
	j.armed = on
	j.mu.Unlock()
}

func (j *nameFaultJournal) AppendCQ(*wal.Record) error { return nil }

func (j *nameFaultJournal) StageCQExec(name string, _ int, _ vclock.Timestamp, _ bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.armed && name == j.name {
		return errors.New("injected journal fault")
	}
	return nil
}

func (j *nameFaultJournal) Flush() error { return nil }

// TestTemplateQuarantineIsolation: a member whose refreshes fail is
// quarantined on its own breaker; its template-mates keep refreshing
// from the same shared plan, and when the faulty member heals its probe
// folds the buffered template batches into one gap-free catch-up.
func TestTemplateQuarantineIsolation(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	advance := func(d time.Duration) { nowMu.Lock(); now = now.Add(d); nowMu.Unlock() }

	j := &nameFaultJournal{name: "bad"}
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{
		UseDRA: true, AutoGC: true, Parallelism: 1, Metrics: reg,
		ShareTemplates: true, Journal: j,
		Guard: guard.Policy{FailureThreshold: 2, BackoffBase: time.Second, BackoffMax: time.Minute, Now: clock},
	})
	defer func() { _ = m.Close() }()

	for _, def := range []Def{
		{Name: "good", Query: "SELECT * FROM stocks WHERE price > 100", Trigger: updatesTrigger()},
		{Name: "bad", Query: "SELECT * FROM stocks WHERE price > 200", Trigger: updatesTrigger()},
	} {
		if _, err := m.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	stGood, _ := m.State("good")
	stBad, _ := m.State("bad")
	if stGood.Template == 0 || stGood.Template != stBad.Template {
		t.Fatalf("expected one shared template: %#x vs %#x", stGood.Template, stBad.Template)
	}

	// Two failing rounds trip bad's threshold-2 breaker; good delivers
	// both rounds untouched.
	j.arm(true)
	insertStock(t, s, "F1", 250)
	if _, err := m.Poll(); err == nil {
		t.Fatal("first faulty poll returned nil error")
	}
	insertStock(t, s, "F2", 260)
	if _, err := m.Poll(); err == nil {
		t.Fatal("second faulty poll returned nil error")
	}
	stBad, _ = m.State("bad")
	if stBad.Health != "quarantined" || stBad.Seq != 1 {
		t.Fatalf("bad after 2 failures: health=%q seq=%d", stBad.Health, stBad.Seq)
	}
	stGood, _ = m.State("good")
	if stGood.Health != "healthy" || stGood.Seq != 3 || stGood.ResultLen != 2 {
		t.Fatalf("good was affected by its template-mate's fault: %+v", stGood)
	}

	// While bad is quarantined the group keeps stepping for good.
	insertStock(t, s, "F3", 270)
	if _, err := m.Poll(); err != nil {
		t.Fatalf("poll with quarantined member: %v", err)
	}
	stGood, _ = m.State("good")
	if stGood.Seq != 4 || stGood.ResultLen != 3 {
		t.Fatalf("good stalled during mate's quarantine: %+v", stGood)
	}

	// Heal: fault removed, backoff served — the probe folds every
	// buffered template batch into one Seq-2 catch-up over the whole
	// missed window (F1, F2, F3 all exceed 200).
	j.arm(false)
	advance(2 * time.Second)
	if _, err := m.Poll(); err != nil {
		t.Fatalf("probe poll: %v", err)
	}
	stBad, _ = m.State("bad")
	if stBad.Health != "healthy" || stBad.Seq != 2 || stBad.ResultLen != 3 {
		t.Fatalf("bad did not catch up differentially: %+v", stBad)
	}
}

// TestTemplateChurnRace hammers register/drop against concurrent
// commits, polls and push flushes on one shared template. Run with
// -race. After the dust settles the registry must be consistent: no
// leaked members, active counts agreeing with the member tables, and
// the surviving stable member's sequence gap-free (no double delivery).
func TestTemplateChurnRace(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": workload.StockSchema()})
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Push: true, ShareTemplates: true})
	defer func() { _ = m.Close() }()

	// NotifyEmpty makes every refresh deliver, so a consecutive-Seq
	// check at the subscriber catches both lost and double deliveries.
	if _, err := m.Register(Def{Name: "stable", Query: "SELECT * FROM stocks WHERE price > 100", NotifyEmpty: true}); err != nil {
		t.Fatal(err)
	}
	var seqMu sync.Mutex
	lastSeq := 1
	gaps := 0
	if _, err := m.SubscribeFunc("stable", func(n Notification, closed bool) {
		if closed {
			return
		}
		seqMu.Lock()
		if n.Seq != lastSeq+1 {
			gaps++
		}
		lastSeq = n.Seq
		seqMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	const (
		churners  = 4
		perChurn  = 50
		writes    = 150
		pollEvery = 10
	)
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) { // guarded: test goroutine, failures reported via t
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perChurn; i++ {
				name := fmt.Sprintf("churn-%d-%d", c, i)
				q := fmt.Sprintf("SELECT * FROM stocks WHERE price > %d", rng.Intn(400))
				if _, err := m.Register(Def{Name: name, Query: q}); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				if rng.Intn(4) > 0 {
					if err := m.Drop(name); err != nil {
						t.Errorf("drop %s: %v", name, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // guarded: test goroutine, failures reported via t
		defer wg.Done()
		g := workload.NewStocks(s, "stocks", 3, workload.DefaultMix)
		g.PriceMax = 400
		for i := 0; i < writes; i++ {
			if err := g.Batch(2); err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			m.FlushPush()
			if i%pollEvery == 0 {
				if _, err := m.Poll(); err != nil {
					t.Errorf("poll: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	m.FlushPush()
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}

	// Registry invariants: every group member belongs to a live,
	// grouped instance; every grouped instance is a member of its
	// group; active counts match.
	m.mu.Lock()
	grouped := 0
	for name, inst := range m.cqs {
		if inst.group == nil {
			continue
		}
		grouped++
		inst.group.mu.Lock()
		mem := inst.group.members[name]
		ok := mem != nil && mem.inst == inst
		inst.group.mu.Unlock()
		if !ok {
			t.Errorf("instance %q points at a group that does not list it", name)
		}
	}
	total := 0
	for fp, g := range m.templates {
		g.mu.Lock()
		n := len(g.members)
		act := g.active.Load()
		for name, mem := range g.members {
			inst, live := m.cqs[name]
			if !live || inst != mem.inst {
				t.Errorf("template %#x leaked member %q", fp, name)
			}
			if mem.removed {
				t.Errorf("template %#x lists removed member %q", fp, name)
			}
		}
		g.mu.Unlock()
		if int64(n) != act {
			t.Errorf("template %#x: %d members but active=%d", fp, n, act)
		}
		total += n
	}
	m.mu.Unlock()
	if total != grouped {
		t.Errorf("%d grouped instances but %d group members", grouped, total)
	}
	seqMu.Lock()
	defer seqMu.Unlock()
	if gaps != 0 {
		t.Errorf("stable CQ saw %d sequence gaps/duplicates", gaps)
	}
}

// TestTemplateDurableResume: template membership round-trips the
// checkpoint cycle. Resumed members rejoin (or recreate) their group at
// their LastExec, and their first refresh folds the group's step over
// the missed window, with Seq continuing where the snapshot stopped.
func TestTemplateDurableResume(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	cfg := Config{UseDRA: true, AutoGC: true, ShareTemplates: true}
	j := &foldJournal{}
	m1 := NewManagerConfig(s, withJournal(cfg, j))
	for _, def := range []Def{
		{Name: "a", Query: "SELECT * FROM stocks WHERE price > 100"},
		{Name: "b", Query: "SELECT * FROM stocks WHERE price > 200"},
	} {
		if _, err := m1.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	insertStock(t, s, "R1", 150)
	if _, err := m1.Poll(); err != nil {
		t.Fatal(err)
	}
	entries := j.entries()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// The "crash window": commits after the snapshot, before resume.
	insertStock(t, s, "R2", 250)

	m2 := NewManagerConfig(s, cfg)
	defer func() { _ = m2.Close() }()
	for _, e := range entries {
		if err := m2.Resume(e); err != nil {
			t.Fatal(err)
		}
	}
	stA, _ := m2.State("a")
	stB, _ := m2.State("b")
	if stA.Template == 0 || stA.Template != stB.Template || stA.TemplateMates != 2 {
		t.Fatalf("resume broke sharing: a=%+v b=%+v", stA, stB)
	}

	// First poll: one group step covers the crash window.
	if _, err := m2.Poll(); err != nil {
		t.Fatal(err)
	}
	stA, _ = m2.State("a")
	stB, _ = m2.State("b")
	// Seq advances on every refresh, delivered or not: both were at 2
	// when the snapshot cut (b's first poll netted an empty delta).
	if stA.Seq != 3 || stA.ResultLen != 2 {
		t.Fatalf("a after catch-up: %+v", stA)
	}
	if stB.Seq != 3 || stB.ResultLen != 1 {
		t.Fatalf("b after catch-up: %+v", stB)
	}

	// Second poll: a window after the crash.
	insertStock(t, s, "R3", 300)
	if _, err := m2.Poll(); err != nil {
		t.Fatal(err)
	}
	stA, _ = m2.State("a")
	stB, _ = m2.State("b")
	if stA.Seq != 4 || stA.ResultLen != 3 || stB.Seq != 4 || stB.ResultLen != 2 {
		t.Fatalf("post-resume streaming wrong: a=%+v b=%+v", stA, stB)
	}
}

// TestTemplateResumeSharesOnePlan: 200 recovered members of one
// selection template, resumed behind the head, rejoin one group seeded
// at their LastExec: resuming prepares one plan, and the first Poll
// steps the group once and runs no private step.
func TestTemplateResumeSharesOnePlan(t *testing.T) {
	const members = 200
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	cfg := Config{UseDRA: true, AutoGC: true, ShareTemplates: true}
	j := &foldJournal{}
	m1 := NewManagerConfig(s, withJournal(cfg, j))
	for i := 0; i < members; i++ {
		if _, err := m1.Register(Def{Name: fmt.Sprintf("m%03d", i),
			Query: fmt.Sprintf("SELECT * FROM stocks WHERE price > %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	insertStock(t, s, "R1", 150)
	if _, err := m1.Poll(); err != nil {
		t.Fatal(err)
	}
	entries := j.entries()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	insertStock(t, s, "R2", 250) // the crash window

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	m2 := NewManagerConfig(s, cfg)
	defer func() { _ = m2.Close() }()
	if err := m2.Resume(entries...); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Histograms["dra.prepare_ns"].Count; n != 1 {
		t.Errorf("resume prepared %d plans, want 1 (the group's)", n)
	}
	before := reg.Snapshot()
	if n, err := m2.Poll(); err != nil || n != members {
		t.Fatalf("first poll refreshed %d, %v; want %d", n, err, members)
	}
	after := reg.Snapshot()
	steps := after.Counter("dra.vector_steps") - before.Counter("dra.vector_steps")
	groupSteps := after.Counter("cq.template.steps") - before.Counter("cq.template.steps")
	if steps != 1 || groupSteps != 1 {
		t.Errorf("first poll ran %d steps, %d of them the group's; want 1 and 1", steps, groupSteps)
	}
	for i := 0; i < members; i++ {
		st, err := m2.State(fmt.Sprintf("m%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := 1 // R2 alone
		if i < 150 {
			want = 2
		}
		if st.Template == 0 || st.TemplateMates != members || st.Seq != 3 || st.ResultLen != want {
			t.Fatalf("m%03d after the first poll: %+v, want shared, Seq 3, %d rows", i, st, want)
		}
	}
}

// TestTemplatePiecemealResume: members resumed one Resume call at a time,
// in descending LastExec, find their group past the later call's round;
// that member registers unshared, and rejoins its group at the end of
// the first round that leaves both at one timestamp. Every member's
// notifications still equal complete re-evaluation's (baseline.Full),
// window by window, before and after the rejoin.
func TestTemplatePiecemealResume(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	cfg := Config{UseDRA: true, AutoGC: true, ShareTemplates: true}
	j := &foldJournal{}
	m1 := NewManagerConfig(s, withJournal(cfg, j))
	queries := map[string]string{
		"hi":  "SELECT * FROM stocks WHERE price > 100",
		"lag": "SELECT * FROM stocks WHERE price > 50",
	}
	for _, def := range []Def{
		{Name: "hi", Query: queries["hi"]},
		{Name: "lag", Query: queries["lag"], Trigger: sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 2}},
	} {
		if _, err := m1.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	r1 := insertStock(t, s, "R1", 150)
	if _, err := m1.Poll(); err != nil { // hi fires; lag has seen one update of two
		t.Fatal(err)
	}
	entries := j.entries()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].LastExec > entries[j].LastExec })
	if entries[0].Name != "hi" || entries[0].LastExec == entries[1].LastExec {
		t.Fatalf("entries %+v: want hi ahead of lag", entries)
	}
	r2 := insertStock(t, s, "R2", 80) // the crash window

	m2 := NewManagerConfig(s, cfg)
	defer func() { _ = m2.Close() }()
	fulls := make(map[string]*baseline.Full)
	notes := make(map[string]*int) // one CQ's callbacks never run concurrently
	for _, e := range entries {
		if err := m2.Resume(e); err != nil {
			t.Fatal(err)
		}
		full, err := baseline.NewFull(mustPlan(t, queries[e.Name], s), s.At(e.LastExec))
		if err != nil {
			t.Fatal(err)
		}
		fulls[e.Name] = full
		name, count := e.Name, new(int)
		notes[name] = count
		if _, err := m2.SubscribeFunc(name, func(n Notification, closed bool) {
			if closed {
				return
			}
			*count++
			d, err := full.Step(s.At(n.ExecTS), n.ExecTS)
			if err != nil {
				t.Error(err)
				return
			}
			got := renderRel(n.Inserted()) + " / " + renderRel(n.Deleted())
			want := renderRel(d.Insertions()) + " / " + renderRel(d.Deletions())
			if got != want {
				t.Errorf("%s seq %d at %d: notified %s, complete re-evaluation %s", name, n.Seq, n.ExecTS, got, want)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := m2.State("hi"); st.Template == 0 {
		t.Errorf("hi, resumed first, is unshared: %+v", st)
	}
	if st, _ := m2.State("lag"); st.Template != 0 || st.Strategy != "incremental" {
		t.Errorf("lag, resumed behind its group, is not a private plan: %+v", st)
	}

	poll := func() {
		t.Helper()
		if _, err := m2.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	poll()
	commit(t, s, func(tx *storage.Tx) error {
		return tx.Update("stocks", r1, []relation.Value{relation.Str("R1"), relation.Float(60)})
	})
	poll()
	commit(t, s, func(tx *storage.Tx) error { return tx.Delete("stocks", r2) })
	insertStock(t, s, "R3", 120)
	poll()
	if st, _ := m2.State("lag"); st.Template == 0 || st.TemplateMates != 2 {
		t.Errorf("lag never rejoined its group: %+v", st)
	}
	for name, full := range fulls {
		if *notes[name] < 2 {
			t.Errorf("%s notified %d times; the script is too tame", name, *notes[name])
		}
		res, err := m2.Result(name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.EqualByTID(full.Result()) {
			t.Errorf("%s: result\n%s\nwant\n%s", name, res, full.Result())
		}
	}
}

// TestTemplateGroupReap: dropping the last member closes the shared
// prepared plan and retires the template, and re-registering rebuilds
// it from scratch.
func TestTemplateGroupReap(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Metrics: reg, ShareTemplates: true})
	defer func() { _ = m.Close() }()
	for i, q := range []string{
		"SELECT * FROM stocks WHERE price > 10",
		"SELECT * FROM stocks WHERE price > 20",
	} {
		if _, err := m.Register(Def{Name: fmt.Sprintf("q%d", i), Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	if g := reg.Snapshot().Gauge("cq.templates"); g != 1 {
		t.Fatalf("templates = %d, want 1", g)
	}
	if err := m.Drop("q0"); err != nil {
		t.Fatal(err)
	}
	if g := reg.Snapshot().Gauge("cq.templates"); g != 1 {
		t.Fatalf("templates after first drop = %d, want 1", g)
	}
	if err := m.Drop("q1"); err != nil {
		t.Fatal(err)
	}
	if g := reg.Snapshot().Gauge("cq.templates"); g != 0 {
		t.Fatalf("templates after last drop = %d, want 0 (group leaked)", g)
	}
	if _, err := m.Register(Def{Name: "q2", Query: "SELECT * FROM stocks WHERE price > 30"}); err != nil {
		t.Fatal(err)
	}
	insertStock(t, s, "X", 50)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State("q2"); st.Seq != 2 || st.ResultLen != 1 || st.Template == 0 {
		t.Fatalf("rebuilt template broken: %+v", st)
	}
}
