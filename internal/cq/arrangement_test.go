package cq

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/diorama/continual/internal/baseline"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// The tables of the shared-arrangement tests: three keyed tables whose
// joins match on k, each with one payload column of its own name (the
// epsilon trigger's ON expression picks b's).
func arrTables() map[string]relation.Schema {
	col := func(name string) relation.Schema {
		return relation.MustSchema(
			relation.Column{Name: "k", Type: relation.TInt},
			relation.Column{Name: name, Type: relation.TInt},
		)
	}
	return map[string]relation.Schema{"a": col("x"), "b": col("y"), "c": col("z")}
}

// arrQueries are the 2- and 3-way equi-joins the tests register, every
// one reading the engine's arrangement of a: a self-join among them.
var arrQueries = map[string]string{
	"j2":     "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k",
	"j3":     "SELECT a.x, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE c.z > 10",
	"every3": "SELECT a.x, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k",
	"eps":    "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k WHERE a.x > 20",
	"self":   "SELECT a1.x AS x1, a2.x AS x2 FROM a a1 JOIN a a2 ON a1.k = a2.k WHERE a1.x < a2.x",
	"late":   "SELECT b.y, c.z FROM b JOIN c ON b.k = c.k",
}

// arrDef is the definition of arrQueries[name]: every3 refreshes every
// third tick, eps when b's y has moved by 60, the rest on every update.
// Every refresh notifies, empty ones too, so each is checked.
func arrDef(name string) Def {
	def := Def{Name: name, Query: arrQueries[name], NotifyEmpty: true}
	switch name {
	case "every3":
		def.Trigger = sql.TriggerSpec{Kind: sql.TriggerEvery, Every: 3}
	case "eps":
		on, err := sql.ParseExpr("y")
		if err != nil {
			panic(err)
		}
		def.Trigger = sql.TriggerSpec{Kind: sql.TriggerEpsilon, Bound: 60, On: on}
	}
	return def
}

// arrWatcher folds one CQ's notifications into a relation and holds it,
// at every notification, to complete re-evaluation (baseline.Full) at
// the notification's ExecTS.
type arrWatcher struct {
	tr    *arrTranscript
	name  string
	mu    sync.Mutex
	full  *baseline.Full
	got   *relation.Relation
	notes int
	last  vclock.Timestamp
}

func (w *arrWatcher) note(n Notification, closed bool) {
	if closed {
		return
	}
	tr := w.tr
	if tr.armed.CompareAndSwap(true, false) {
		tr.blocked <- w.name
		<-tr.release
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.notes++
	w.last = n.ExecTS
	for _, r := range n.Delta.Rows() {
		var err error
		if r.New != nil {
			err = w.got.Upsert(relation.Tuple{TID: r.TID, Values: r.New})
		} else {
			err = w.got.Delete(r.TID)
		}
		if err != nil {
			tr.t.Errorf("%s seq %d: fold: %v", w.name, n.Seq, err)
		}
	}
	if _, err := w.full.Step(tr.s.At(n.ExecTS), n.ExecTS); err != nil {
		tr.t.Errorf("%s seq %d: complete re-evaluation: %v", w.name, n.Seq, err)
		return
	}
	if !w.got.EqualByTID(w.full.Result()) {
		tr.t.Errorf("%s seq %d at %d: notifications fold to\n%s\ncomplete re-evaluation:\n%s",
			w.name, n.Seq, n.ExecTS, w.got, w.full.Result())
	}
}

// arrTranscript drives a manager over arrTables and checks every
// notification of every registered CQ (arrWatcher).
type arrTranscript struct {
	t   *testing.T
	s   *storage.Store
	m   *Manager
	cfg Config
	j   *foldJournal
	reg *obs.Registry
	rng *rand.Rand
	// live holds each table's tids, for updates and deletes.
	live     map[string][]relation.TID
	watchers map[string]*arrWatcher

	// armed blocks the next delivery until release, reporting the
	// blocked CQ's name on blocked: how a round is held between its
	// snapshot and its later steps.
	armed   atomic.Bool
	blocked chan string
	release chan struct{}
}

func newArrTranscript(t *testing.T) *arrTranscript {
	s := newStoreWith(t, arrTables())
	tr := &arrTranscript{
		t: t, s: s, j: &foldJournal{}, reg: obs.NewRegistry(), rng: rand.New(rand.NewSource(7)),
		live: map[string][]relation.TID{}, watchers: map[string]*arrWatcher{},
		blocked: make(chan string), release: make(chan struct{}),
	}
	tr.cfg = withJournal(Config{UseDRA: true, AutoGC: true, Parallelism: 2, Metrics: tr.reg}, tr.j)
	tr.m = NewManagerConfig(s, tr.cfg)
	for i := 0; i < 12; i++ {
		tr.commit("a", "b", "c")
	}
	return tr
}

// commit writes one transaction over tables: per table an insert or
// two, a modification, sometimes a deletion, on a handful of keys so
// the joins match often.
func (tr *arrTranscript) commit(tables ...string) {
	tr.t.Helper()
	rng := tr.rng
	commit(tr.t, tr.s, func(tx *storage.Tx) error {
		for _, table := range tables {
			row := func() []relation.Value {
				return []relation.Value{relation.Int(int64(rng.Intn(5))), relation.Int(int64(rng.Intn(50)))}
			}
			if ids := tr.live[table]; len(ids) > 2 {
				u := rng.Intn(len(ids))
				if err := tx.Update(table, ids[u], row()); err != nil {
					return err
				}
				if d := rng.Intn(len(ids)); d != u && rng.Intn(3) == 0 {
					if err := tx.Delete(table, ids[d]); err != nil {
						return err
					}
					tr.live[table] = append(ids[:d], ids[d+1:]...)
				}
			}
			for n := 1 + rng.Intn(2); n > 0; n-- {
				tid, err := tx.Insert(table, row())
				if err != nil {
					return err
				}
				tr.live[table] = append(tr.live[table], tid)
			}
		}
		return nil
	})
}

// register installs arrDef(name) and starts watching it from its
// initial result.
func (tr *arrTranscript) register(name string) {
	tr.t.Helper()
	initial, err := tr.m.Register(arrDef(name))
	if err != nil {
		tr.t.Fatal(err)
	}
	full, err := baseline.NewFull(mustPlan(tr.t, arrQueries[name], tr.s), tr.s.At(tr.s.Now()))
	if err != nil {
		tr.t.Fatal(err)
	}
	w := &arrWatcher{tr: tr, name: name, full: full, got: initial}
	tr.watchers[name] = w
	tr.subscribe(w)
}

func (tr *arrTranscript) subscribe(w *arrWatcher) {
	tr.t.Helper()
	if _, err := tr.m.SubscribeFunc(w.name, w.note); err != nil {
		tr.t.Fatal(err)
	}
}

func (tr *arrTranscript) drop(name string) {
	tr.t.Helper()
	if err := tr.m.Drop(name); err != nil {
		tr.t.Fatal(err)
	}
	delete(tr.watchers, name)
}

func (tr *arrTranscript) poll() {
	tr.t.Helper()
	if _, err := tr.m.Poll(); err != nil {
		tr.t.Fatal(err)
	}
}

// shared reports the plans sharing name's arrangement of table.
func (tr *arrTranscript) shared(name, table string) int {
	tr.t.Helper()
	st, err := tr.m.State(name)
	if err != nil {
		tr.t.Fatal(err)
	}
	for _, r := range st.Replicas {
		if r.Operand == table {
			return r.Shared
		}
	}
	tr.t.Fatalf("%s reads no arrangement of %s: %+v", name, table, st.Replicas)
	return 0
}

// TestSharedArrangementTranscripts: 2- and 3-way equi-joins over the
// engine's one arrangement per table deliver notifications that fold,
// each one, to complete re-evaluation at its ExecTS, while the
// arrangements are read at many timestamps at once: CQs on TriggerEvery
// 3 and on an epsilon trigger lag the per-commit ones; a self-join reads
// one arrangement as both operands; CQs register and drop mid-stream,
// the last reader of c dropping its arrangement, which the next
// registration builds again; a round whose snapshot is T1 steps after
// another has moved the arrangements to T2 > T1, reading them through
// corrections from the round's window cache; a round stopped by its
// budget after its steps advanced the arrangements is retried from the
// same last executions; AutoGC collects behind all of it; and a reopen
// from the journal resumes every CQ with its State unchanged.
func TestSharedArrangementTranscripts(t *testing.T) {
	tr := newArrTranscript(t)
	for _, name := range []string{"j2", "j3", "every3", "eps", "self"} {
		tr.register(name)
	}
	if got := tr.shared("j3", "a"); got != 5 {
		t.Fatalf("arrangement of a shared by %d plans, want 5", got)
	}
	for round := 0; round < 24; round++ {
		switch round {
		case 4:
			tr.register("late")
		case 9:
			tr.drop("late")
		case 12:
			// The last readers of c go: its arrangement is dropped.
			tr.drop("j3")
			tr.drop("every3")
		case 14:
			tr.register("j3")
			if got := tr.shared("j3", "c"); got != 1 {
				t.Fatalf("arrangement of c rebuilt shared by %d plans, want 1", got)
			}
		}
		switch round % 4 {
		case 0:
			tr.commit("a")
		case 1:
			tr.commit("b", "c")
		case 2:
			tr.commit("a", "b", "c")
		default:
			tr.commit("c")
		}
		switch round {
		case 7:
			tr.budgetStop()
		case 10:
			tr.behind()
		}
		tr.poll()
	}

	// The reopen: the journal's registry resumed in a new manager.
	before := tr.states()
	if err := tr.m.Close(); err != nil {
		t.Fatal(err)
	}
	tr.m = NewManagerConfig(tr.s, tr.cfg)
	defer func() { _ = tr.m.Close() }()
	if err := tr.m.Resume(tr.j.entries()...); err != nil {
		t.Fatal(err)
	}
	if after := tr.states(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("State changed across the reopen:\nbefore %v\nafter  %v", before, after)
	}
	for _, w := range tr.watchers {
		tr.subscribe(w)
	}
	for round := 0; round < 6; round++ {
		tr.commit("a", "b")
		tr.poll()
	}
	for name, w := range tr.watchers {
		if w.notes < 4 {
			t.Errorf("%s notified %d times; the script is too tame", name, w.notes)
		}
	}
	if n, _ := tr.s.DeltaLen("a"); n == 0 {
		t.Log("AutoGC left no row of a's log")
	}
}

// states renders what a reopen must not change of every live CQ: its
// sequence, last execution, result size, strategy, template and the
// arrangements it reads.
func (tr *arrTranscript) states() []string {
	tr.t.Helper()
	var out []string
	for name := range tr.watchers {
		st, err := tr.m.State(name)
		if err != nil {
			tr.t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s seq=%d last=%d rows=%d %s tmpl=%d %+v",
			name, st.Seq, st.LastExec, st.ResultLen, st.Strategy, st.Template, st.Replicas))
	}
	sort.Strings(out)
	return out
}

// budgetStop runs one round under a budget every join step overruns:
// the steps move the arrangements to the round's timestamp before their
// terms stop, so the next round retries every stopped CQ from its last
// execution against arrangements already past it.
func (tr *arrTranscript) budgetStop() {
	tr.t.Helper()
	tr.m.guardPol.Budget = time.Nanosecond
	_, err := tr.m.Poll()
	tr.m.guardPol.Budget = 0
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		tr.t.Fatalf("poll under a 1ns budget: %v, want ErrBudgetExceeded", err)
	}
}

// behind holds a round at T1 in its first delivery (one worker, and
// every refresh notifies, so the round's other CQs have not stepped
// yet), commits T2, refreshes one of those CQs at T2 — moving the
// arrangements past T1 — and lets the round go on: the rest of its CQs
// step at T1 with the arrangements at T2, and at least one of them must
// have. AutoGC is off meanwhile: the refresh's collection would wait on
// the held CQ's lock.
func (tr *arrTranscript) behind() {
	tr.t.Helper()
	tr.m.cfg.Parallelism, tr.m.cfg.AutoGC = 1, false
	t1 := tr.s.Now()
	tr.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := tr.m.Poll()
		done <- err
	}()
	first := <-tr.blocked
	tr.commit("a", "b", "c")
	ahead := "j2"
	if first == ahead {
		ahead = "self"
	}
	if err := tr.m.Refresh(ahead); err != nil {
		tr.t.Fatal(err)
	}
	close(tr.release) // behind runs once per transcript
	if err := <-done; err != nil {
		tr.t.Fatal(err)
	}
	tr.m.cfg.Parallelism, tr.m.cfg.AutoGC = 2, true
	stepped := 0
	for name, w := range tr.watchers {
		w.mu.Lock()
		if name != first && w.last == t1 {
			stepped++
		}
		w.mu.Unlock()
	}
	if stepped == 0 {
		tr.t.Fatalf("no CQ stepped at %d behind %s's refresh past it", t1, ahead)
	}
}

// TestArrangementChurnRace: CQs over shared arrangements registered and
// dropped while commits push refreshes and a poll loop refreshes the
// same CQs on two workers — under the race detector, the arrangement
// locks are the only thing between the steps that advance an
// arrangement and the terms that read it. Every notification folds to
// complete re-evaluation at its ExecTS, and once every CQ is gone the
// arrangement gauges read zero.
func TestArrangementChurnRace(t *testing.T) {
	s := newStoreWith(t, arrTables())
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, AutoGC: true, Push: true, Parallelism: 2, Metrics: reg})
	defer func() { _ = m.Close() }()
	tr := &arrTranscript{t: t, s: s, m: m, rng: rand.New(rand.NewSource(11)),
		live: map[string][]relation.TID{}, watchers: map[string]*arrWatcher{}}
	for i := 0; i < 8; i++ {
		tr.commit("a", "b", "c")
	}
	names := []string{"j2", "j3", "self", "late"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the poll loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Poll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	registered := map[string]bool{}
	for round := 0; round < 40; round++ {
		name := names[round%len(names)]
		if registered[name] {
			tr.drop(name)
		} else {
			tr.register(name)
		}
		registered[name] = !registered[name]
		tr.commit([]string{"a", "b", "c"}[round%3], []string{"b", "c", "a"}[round%3])
	}
	close(stop)
	wg.Wait()
	m.FlushPush()
	for name := range registered {
		if registered[name] {
			tr.drop(name)
		}
	}
	snap := reg.Snapshot()
	if rows, bytes := snap.Gauges["dra.replica.rows"], snap.Gauges["dra.replica.bytes"]; rows != 0 || bytes != 0 {
		t.Errorf("with every CQ dropped the arrangements hold %d rows, %d bytes", rows, bytes)
	}
}
