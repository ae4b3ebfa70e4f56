package cq

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// recJournal models a write-ahead log in one op list: "stage:q:n" for
// an execution record, "flush" for a write of everything staged,
// "register:q" and "drop:q".
// Subscriber callbacks append "deliver:q:n" to the same list, so the
// list is the order in which records were written and changes
// delivered. With failFlush set, Flush records "flushfail" and fails.
type recJournal struct {
	mu        sync.Mutex
	ops       []string
	failFlush atomic.Bool
}

var _ Journal = (*recJournal)(nil)

func (j *recJournal) record(op string) {
	j.mu.Lock()
	j.ops = append(j.ops, op)
	j.mu.Unlock()
}

func (j *recJournal) snapshot() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.ops...)
}

func (j *recJournal) AppendCQ(rec *wal.Record) error {
	j.record(journalOp(rec))
	return nil
}

// journalOp names a written CQ record in a test journal's op list.
func journalOp(rec *wal.Record) string {
	switch rec.Kind {
	case wal.KindCQRegister:
		return "register:" + rec.CQ.Name
	case wal.KindCQDrop:
		return "drop:" + rec.Name
	}
	return fmt.Sprintf("commit:%s:%d", rec.Name, rec.Seq)
}

func (j *recJournal) StageCQExec(name string, seq int, _ vclock.Timestamp, _ bool) error {
	j.record(fmt.Sprintf("stage:%s:%d", name, seq))
	return nil
}

var errFlushFault = errors.New("injected flush fault")

func (j *recJournal) Flush() error {
	if j.failFlush.Load() {
		j.record("flushfail")
		return errFlushFault
	}
	j.record("flush")
	return nil
}

// foldJournal folds what a manager journals with the log's own registry
// fold (wal.Registry): its entries are the registry a checkpoint holds
// and recovery resumes, so a test restarts from what was journaled.
type foldJournal struct {
	mu  sync.Mutex
	reg wal.Registry
}

var _ Journal = (*foldJournal)(nil)

func (j *foldJournal) apply(rec *wal.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reg.Apply(rec)
}

func (j *foldJournal) AppendCQ(rec *wal.Record) error { return j.apply(rec) }

func (j *foldJournal) StageCQExec(name string, seq int, ts vclock.Timestamp, terminated bool) error {
	return j.apply(&wal.Record{Kind: wal.KindCQExec, Name: name, Seq: seq, ExecTS: ts, Terminated: terminated})
}

func (j *foldJournal) Flush() error { return nil }

func (j *foldJournal) entries() []wal.CQEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reg.Entries()
}

// withJournal returns cfg journaling into j.
func withJournal(cfg Config, j Journal) Config {
	cfg.Journal = j
	return cfg
}

// subscribe records every delivery of name into the journal's op list.
func (j *recJournal) subscribe(t *testing.T, m *Manager, name string) {
	t.Helper()
	if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
		if !closed {
			j.record(fmt.Sprintf("deliver:%s:%d", name, n.Seq))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// checkWriteAhead replays an op list against the log it models: every
// write (flush, exec, register, drop) carries the records staged before
// it. Each delivery must follow the write of its own record, and each
// CQ's delivered Seq must rise strictly. It returns the deliveries.
func checkWriteAhead(t *testing.T, ops []string) int {
	t.Helper()
	pending := map[string]bool{}
	written := map[string]bool{}
	last := map[string]int{}
	deliveries := 0
	writeStaged := func() {
		for k := range pending {
			written[k] = true
		}
		clear(pending)
	}
	for i, op := range ops {
		kind, rec, _ := strings.Cut(op, ":")
		switch kind {
		case "stage":
			pending[rec] = true
		case "flush", "register", "drop":
			writeStaged()
		case "deliver":
			deliveries++
			if !written[rec] {
				t.Fatalf("op %d: %s before its record was written\n%s", i, op, strings.Join(ops[max(0, i-12):i+1], "\n"))
			}
			cut := strings.LastIndexByte(rec, ':')
			name := rec[:cut]
			seq, err := strconv.Atoi(rec[cut+1:])
			if err != nil {
				t.Fatal(err)
			}
			if seq <= last[name] {
				t.Fatalf("op %d: %s delivered after Seq %d", i, op, last[name])
			}
			last[name] = seq
		}
	}
	return deliveries
}

// journaledFixture registers members template members of one range
// template (every fifth NotifyEmpty) and, with private, two private CQs
// beside them, each subscribed into the journal's op list.
func journaledFixture(t *testing.T, cfg Config, members int, private bool) (*storage.Store, *Manager, *recJournal) {
	t.Helper()
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	j := &recJournal{}
	cfg.UseDRA, cfg.AutoGC, cfg.ShareTemplates, cfg.Journal = true, true, true, j
	m := NewManagerConfig(s, cfg)
	t.Cleanup(func() { _ = m.Close() })
	for i := 0; i < members; i++ {
		def := Def{
			Name:        fmt.Sprintf("m%03d", i),
			Query:       fmt.Sprintf("SELECT * FROM stocks WHERE price > %d", i%100),
			Trigger:     updatesTrigger(),
			NotifyEmpty: i%5 == 0,
		}
		if _, err := m.Register(def); err != nil {
			t.Fatal(err)
		}
		j.subscribe(t, m, def.Name)
	}
	privates := []Def{
		{Name: "distinct", Query: "SELECT DISTINCT name FROM stocks", Trigger: updatesTrigger()},
		{Name: "sums", Query: "SELECT name, SUM(price) FROM stocks GROUP BY name", Trigger: updatesTrigger()},
	}
	if !private {
		privates = nil
	}
	for _, def := range privates {
		if _, err := m.Register(def); err != nil {
			t.Fatal(err)
		}
		if st, _ := m.State(def.Name); st.Template != 0 {
			t.Fatalf("%s shares a template; the fixture needs it private", def.Name)
		}
		j.subscribe(t, m, def.Name)
	}
	if st, _ := m.State("m000"); members > 0 && st.TemplateMates != members {
		t.Fatalf("%d template mates, want %d", st.TemplateMates, members)
	}
	return s, m, j
}

// commitPrices commits one transaction inserting a row per price.
func commitPrices(t *testing.T, s *storage.Store, round int, prices ...float64) {
	t.Helper()
	commit(t, s, func(tx *storage.Tx) error {
		for i, p := range prices {
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str(fmt.Sprintf("r%d-%d", round, i)), relation.Float(p)}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestWriteAheadAcrossFeeders: whichever feeder starts a round, a
// notification reaches its subscribers only after its execution record
// was written, and each CQ's delivered Seq rises strictly.
func TestWriteAheadAcrossFeeders(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(t *testing.T, s *storage.Store, m *Manager)
	}{
		{"poll/p1", Config{Parallelism: 1}, pollRounds},
		{"poll/p4", Config{Parallelism: 4}, pollRounds},
		{"push", Config{Parallelism: 2, Push: true}, func(t *testing.T, s *storage.Store, m *Manager) {
			for r := 0; r < 6; r++ {
				commitPrices(t, s, r, float64(20*r), float64(95-10*r))
				m.FlushPush()
			}
		}},
		{"refresh", Config{Parallelism: 2}, func(t *testing.T, s *storage.Store, m *Manager) {
			for r := 0; r < 4; r++ {
				commitPrices(t, s, r, float64(30*r+5))
				for _, name := range []string{"m010", "m000", "distinct"} {
					if err := m.Refresh(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			pollRounds(t, s, m)
		}},
		{"poll racing push", Config{Parallelism: 4, Push: true}, func(t *testing.T, s *storage.Store, m *Manager) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := 0; r < 20; r++ {
					commitPrices(t, s, r, float64(r*7%100), float64(r*13%100))
				}
				m.FlushPush()
			}()
			for {
				select {
				case <-done:
					if _, err := m.Poll(); err != nil {
						t.Error(err)
					}
					return
				default:
					if _, err := m.Poll(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m, j := journaledFixture(t, tc.cfg, 24, true)
			tc.run(t, s, m)
			ops := j.snapshot()
			if n := checkWriteAhead(t, ops); n == 0 {
				t.Fatal("nothing was delivered")
			}
			if staged := strings.Count(strings.Join(ops, "\n"), "stage:"); staged == 0 {
				t.Fatal("no member refresh was staged")
			}
		})
	}
}

func pollRounds(t *testing.T, s *storage.Store, m *Manager) {
	t.Helper()
	for r := 0; r < 6; r++ {
		commitPrices(t, s, r, float64(20*r), float64(95-10*r))
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemberRoundFlushesOncePerWorker: a round of 200 members, all of
// which deliver, writes their records in at most one flush per worker,
// under Poll and under a push dispatch.
func TestMemberRoundFlushesOncePerWorker(t *testing.T) {
	const members, workers = 200, 4
	for _, push := range []bool{false, true} {
		t.Run(fmt.Sprintf("push=%v", push), func(t *testing.T) {
			// A budget changes nothing here: a budgeted refresh runs on
			// the same path and stages the same way.
			for _, budget := range []time.Duration{0, time.Minute} {
				t.Run(fmt.Sprintf("budget=%v", budget), func(t *testing.T) {
					cfg := Config{Parallelism: workers, Push: push, Guard: guard.Policy{Budget: budget}}
					s, m, j := journaledFixture(t, cfg, members, false)
					before := len(j.snapshot())
					commitPrices(t, s, 0, 1000) // every member matches
					if push {
						m.FlushPush()
					} else if _, err := m.Poll(); err != nil {
						t.Fatal(err)
					}
					ops := j.snapshot()
					checkWriteAhead(t, ops)
					flushes, stages, delivered := 0, 0, 0
					for _, op := range ops[before:] {
						switch {
						case op == "flush":
							flushes++
						case strings.HasPrefix(op, "stage:"):
							stages++
						case strings.HasPrefix(op, "deliver:m"):
							delivered++
						}
					}
					if stages != members || delivered != members {
						t.Fatalf("%d staged, %d member deliveries, want %d each", stages, delivered, members)
					}
					if flushes < 1 || flushes > workers {
						t.Fatalf("a round of %d members flushed %d times, want 1 to %d (one per worker)", members, flushes, workers)
					}
				})
			}
		})
	}
}

// TestFailedFlushDeliversNothing: when the flush of a round fails, the
// staged members deliver nothing and the round returns the error.
func TestFailedFlushDeliversNothing(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("p%d", workers), func(t *testing.T) {
			s, m, j := journaledFixture(t, Config{Parallelism: workers}, 20, true)
			commitPrices(t, s, 0, 50)
			j.failFlush.Store(true)
			mark := len(j.snapshot())
			_, err := m.Poll()
			if !errors.Is(err, errFlushFault) {
				t.Fatalf("poll error = %v, want the flush fault", err)
			}
			ops := j.snapshot()[mark:]
			stages := 0
			for _, op := range ops {
				switch {
				case strings.HasPrefix(op, "stage:"):
					stages++
				case strings.HasPrefix(op, "deliver:m"):
					t.Fatalf("%s delivered after a failed flush: %v", op, ops)
				}
			}
			if stages == 0 {
				t.Fatal("nothing staged")
			}
			checkWriteAhead(t, j.snapshot())
		})
	}
}

// countJournal counts staged records and flushes, allocating nothing.
type countJournal struct{ staged, flushes atomic.Int64 }

func (j *countJournal) AppendCQ(*wal.Record) error { return nil }
func (j *countJournal) StageCQExec(string, int, vclock.Timestamp, bool) error {
	j.staged.Add(1)
	return nil
}
func (j *countJournal) Flush() error { j.flushes.Add(1); return nil }

// TestStagedRefreshAllocatesNothing: staging a member's record, queueing
// its notification and delivering it after the worker's flush allocate
// nothing per refresh.
func TestStagedRefreshAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	allocs := func(members int) float64 {
		s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
		tid := insertStock(t, s, "DEC", 50)
		j := &countJournal{}
		m := NewManagerConfig(s, Config{UseDRA: true, ShareTemplates: true, Parallelism: 1, Journal: j})
		defer func() { _ = m.Close() }()
		notes := 0
		for i := 0; i < members; i++ {
			name := fmt.Sprintf("q%02d", i)
			q := fmt.Sprintf("SELECT name, price FROM stocks WHERE price > %d", 1000+i)
			if _, err := m.Register(Def{Name: name, Query: q, NotifyEmpty: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.SubscribeFunc(name, func(n Notification, closed bool) {
				if !closed {
					notes++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		price := 0
		round := func() {
			price = (price + 1) % 100
			commit(t, s, func(tx *storage.Tx) error {
				return tx.Update("stocks", tid, []relation.Value{relation.Str("DEC"), relation.Float(float64(price))})
			})
			if n, err := m.Poll(); err != nil || n != members {
				t.Fatalf("poll refreshed %d CQs (err %v), want %d", n, err, members)
			}
		}
		for i := 0; i < 64; i++ {
			round()
		}
		staged, flushes, before := j.staged.Load(), j.flushes.Load(), notes
		got := testing.AllocsPerRun(50, round)
		rounds := int64(51) // AllocsPerRun's warm-up run, then 50
		if j.staged.Load()-staged != rounds*int64(members) || j.flushes.Load()-flushes != rounds || notes-before != int(rounds)*members {
			t.Fatalf("%d staged, %d flushes, %d delivered over %d rounds of %d members",
				j.staged.Load()-staged, j.flushes.Load()-flushes, notes-before, rounds, members)
		}
		return got
	}
	if one, many := allocs(1), allocs(17); many > one {
		t.Errorf("a round of 17 staged refreshes allocates %v, a round of one %v: %.2f per refresh, want 0",
			many, one, (many-one)/16)
	}
}

// gateJournal parks its first Flush calls, one gate each, so a test can
// interleave rounds with a pending flush. A gate parks its call before
// the flush is recorded (before the write), or after it when wrote is
// set; later calls pass.
type gateJournal struct {
	recJournal
	gates []*flushGate
	calls atomic.Int32
}

type flushGate struct {
	entered, release chan struct{}
	wrote            bool
}

func newFlushGate(wrote bool) *flushGate {
	return &flushGate{entered: make(chan struct{}), release: make(chan struct{}), wrote: wrote}
}

func (j *gateJournal) Flush() error {
	i := int(j.calls.Add(1)) - 1
	if i >= len(j.gates) {
		return j.recJournal.Flush()
	}
	g := j.gates[i]
	var err error
	if g.wrote {
		err = j.recJournal.Flush()
	}
	close(g.entered)
	<-g.release
	if !g.wrote {
		err = j.recJournal.Flush()
	}
	return err
}

// TestLaterStagingWaitsForItsOwnFlush: a record staged after a flush
// started is not covered by it. Round 1's flush has written x's Seq 2
// when round 2 stages x's Seq 3 and parks before its own flush; round 1
// then delivers Seq 2 alone, and Seq 3 goes out only after round 2's
// flush.
func TestLaterStagingWaitsForItsOwnFlush(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	first, second := newFlushGate(true), newFlushGate(false)
	j := &gateJournal{gates: []*flushGate{first, second}}
	m := NewManagerConfig(s, Config{UseDRA: true, ShareTemplates: true, Parallelism: 1, Journal: j})
	defer func() { _ = m.Close() }()
	if _, err := m.Register(Def{Name: "x", Query: "SELECT * FROM stocks WHERE price > 10", Trigger: updatesTrigger()}); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State("x"); st.Template == 0 {
		t.Fatal("x does not stream from a template group")
	}
	j.subscribe(t, m, "x")
	poll := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := m.Poll()
			done <- err
		}()
		return done
	}

	commitPrices(t, s, 0, 50)
	round1 := poll()
	<-first.entered // Seq 2 written, not yet delivered
	commitPrices(t, s, 1, 60)
	round2 := poll()
	<-second.entered // Seq 3 staged and queued behind Seq 2
	close(first.release)
	if err := <-round1; err != nil {
		t.Fatal(err)
	}
	if ops := j.snapshot(); !slices.Contains(ops, "deliver:x:2") || slices.Contains(ops, "deliver:x:3") {
		t.Fatalf("round 1 delivered %v; want Seq 2 and not Seq 3, whose record it did not write", ops)
	}
	close(second.release)
	if err := <-round2; err != nil {
		t.Fatal(err)
	}
	ops := j.snapshot()
	checkWriteAhead(t, ops)
	if !slices.Contains(ops, "deliver:x:3") {
		t.Fatalf("Seq 3 never delivered: %v", ops)
	}
}

// TestQueuedNotesBeforeDropAndAttach: while a round's flush is pending,
// Drop delivers the dropped member's queued notification (its drop
// record carries the staged records ahead of it) before closing its
// subscribers, and a new subscriber attaches only after the member's
// queue went to the subscribers it was made for.
func TestQueuedNotesBeforeDropAndAttach(t *testing.T) {
	s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
	gate := newFlushGate(false)
	j := &gateJournal{gates: []*flushGate{gate}}
	m := NewManagerConfig(s, Config{UseDRA: true, ShareTemplates: true, Parallelism: 1, Journal: j})
	defer func() { _ = m.Close() }()
	for _, name := range []string{"a", "b"} {
		if _, err := m.Register(Def{Name: name, Query: "SELECT * FROM stocks WHERE price > 10", Trigger: updatesTrigger()}); err != nil {
			t.Fatal(err)
		}
	}
	j.subscribe(t, m, "b")
	var closedAfter []string // a's op log when its subscriber closed
	if _, err := m.SubscribeFunc("a", func(n Notification, closed bool) {
		if closed {
			closedAfter = j.snapshot()
			return
		}
		j.record(fmt.Sprintf("deliver:a:%d", n.Seq))
	}); err != nil {
		t.Fatal(err)
	}

	commitPrices(t, s, 0, 50)
	polled := make(chan error, 1)
	go func() {
		_, err := m.Poll()
		polled <- err
	}()
	<-gate.entered // both members staged and queued; the flush is parked

	var late []int
	if _, err := m.SubscribeFunc("b", func(n Notification, closed bool) {
		if !closed {
			late = append(late, n.Seq)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("a"); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}

	ops := j.snapshot()
	checkWriteAhead(t, ops)
	if !slices.Contains(ops, "deliver:b:2") || len(late) != 0 {
		t.Fatalf("b's queued Seq 2 went to %v (the subscriber that joined meanwhile got %v), want its first subscriber only", ops, late)
	}
	if !slices.Contains(closedAfter, "deliver:a:2") {
		t.Fatalf("a closed before its queued Seq 2 was delivered: %v", closedAfter)
	}
}
