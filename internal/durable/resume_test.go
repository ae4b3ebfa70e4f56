package durable_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/durable"
	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

// resumeWorld is one durable system driven through the fixed script of
// TestRegisterVersusResume, with or without a restart in the middle.
type resumeWorld struct {
	t    *testing.T
	fs   *faults.MemFS
	cfg  cq.Config
	sys  *durable.System
	tids map[string]relation.TID // "table/name" → tid, stable across recovery
}

func (w *resumeWorld) open() {
	w.t.Helper()
	sys, err := durable.Open(durable.Options{Dir: "data", FS: w.fs, Fsync: wal.FsyncAlways, CQ: w.cfg})
	if err != nil {
		w.t.Fatalf("open: %v", err)
	}
	w.sys = sys
}

func (w *resumeWorld) commit(f func(tx *storage.Tx) error) {
	w.t.Helper()
	tx := w.sys.Store.Begin()
	if err := f(tx); err != nil {
		w.t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		w.t.Fatal(err)
	}
}

func (w *resumeWorld) insert(tx *storage.Tx, table, name string, v int64) error {
	tid, err := tx.Insert(table, []relation.Value{relation.Str(name), relation.Int(v)})
	w.tids[table+"/"+name] = tid
	return err
}

// round commits one transaction touching all three tables and polls.
func (w *resumeWorld) round(i int) {
	w.t.Helper()
	w.change(i)
	w.poll()
}

// change commits one transaction touching all three tables: an insert
// everywhere, an update and (every other round) a delete in stocks.
func (w *resumeWorld) change(i int) {
	w.t.Helper()
	w.commit(func(tx *storage.Tx) error {
		name := fmt.Sprintf("N%d", i)
		for _, table := range []string{"stocks", "s2", "s3"} {
			if err := w.insert(tx, table, name, int64(40+15*i)); err != nil {
				return err
			}
		}
		if err := tx.Update("stocks", w.tids["stocks/K1"], []relation.Value{relation.Str("K1"), relation.Int(int64(45 + 20*i))}); err != nil {
			return err
		}
		if i%2 == 1 {
			return tx.Delete("stocks", w.tids[fmt.Sprintf("stocks/N%d", i-1)])
		}
		return nil
	})
}

func (w *resumeWorld) poll() {
	w.t.Helper()
	if _, err := w.sys.Manager.Poll(); err != nil {
		w.t.Fatalf("poll: %v", err)
	}
}

func renderRows(r *relation.Relation) string {
	if r == nil {
		return "-"
	}
	rows := make([]string, 0, r.Len())
	for _, tu := range r.Tuples() {
		rows = append(rows, fmt.Sprintf("%d:%v", tu.TID, tu.Values))
	}
	sort.Strings(rows)
	return "[" + strings.Join(rows, " ") + "]"
}

func renderChange(n cq.Notification) string {
	mods := make([]string, len(n.Modified()))
	for i, r := range n.Modified() {
		mods[i] = fmt.Sprintf("%d:%v->%v", r.TID, r.Old, r.New)
	}
	sort.Strings(mods)
	return fmt.Sprintf("seq=%d ts=%d term=%v ins=%s del=%s mod=%v com=%s",
		n.Seq, n.ExecTS, n.Terminated, renderRows(n.Inserted()), renderRows(n.Deleted()), mods, renderRows(n.Complete))
}

// restart is how a resumeWorld goes down at the comparison point.
type restart int

const (
	noRestart  restart = iota
	checkpoint         // checkpoint, clean close, reopen: recovery starts at the cut
	crash              // no checkpoint, kill: recovery replays the whole WAL
)

// TestRegisterVersusResume holds the one install path to its contract: a
// CQ reinstalled from its durable entry (Resume) is, field by field, the
// CQ that was registered and never went down, and its next refresh tells
// subscribers exactly what the uncrashed one's does. Both ways down are
// checked: from a checkpoint, and from the WAL alone, where the
// registration and execution records are all recovery has. A CQ whose
// StopAfterN ended it before the restart resumes terminated with an
// empty result: it no longer pins the GC horizon, so its result at
// LastExec cannot be re-derived.
func TestRegisterVersusResume(t *testing.T) {
	for _, tc := range []struct {
		name  string
		share bool
		defs  []cq.Def
	}{
		{"selection", false, []cq.Def{
			{Name: "q", Query: "SELECT name, v FROM stocks WHERE v >= 50"}}},
		{"join3", false, []cq.Def{
			{Name: "q", Query: "SELECT stocks.name, s2.v, s3.v FROM stocks, s2, s3 WHERE stocks.name = s2.name AND s2.name = s3.name"}}},
		{"groupby", false, []cq.Def{
			{Name: "q", Query: "SELECT name, SUM(v) AS total, COUNT(*) AS n FROM stocks GROUP BY name"}}},
		{"distinct", false, []cq.Def{
			{Name: "q", Query: "SELECT DISTINCT v FROM stocks"}}},
		{"template", true, []cq.Def{
			{Name: "lo", Query: "SELECT name, v FROM stocks WHERE v >= 50"},
			{Name: "hi", Query: "SELECT name, v FROM stocks WHERE v >= 80"}}},
		// Two members of one template at different LastExec (lag fires
		// every other round): recovery seeds the group at lag's and steps
		// it to lo's.
		{"template-staggered", true, []cq.Def{
			{Name: "lo", Query: "SELECT name, v FROM stocks WHERE v >= 50"},
			{Name: "lag", Query: "SELECT name, v FROM stocks WHERE v >= 80",
				Trigger: sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 3}}}},
		{"into", false, []cq.Def{
			{Name: "producer", Query: "SELECT name, v INTO hot FROM stocks WHERE v >= 50"},
			{Name: "reader", Query: "SELECT name FROM hot WHERE v >= 80"}}},
		// MIN/MAX refreshes on the complete re-evaluation arm.
		{"minmax", false, []cq.Def{
			{Name: "q", Query: "SELECT name, MIN(v) AS lo, MAX(v) AS hi FROM stocks GROUP BY name"}}},
		{"stopafter", false, []cq.Def{
			{Name: "stopped", Query: "SELECT name, v FROM stocks WHERE v >= 50", Stop: sql.StopSpec{AfterN: 2}},
			{Name: "q", Query: "SELECT name, v FROM stocks WHERE v >= 50"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run drives the script and returns, per CQ, its state at the
			// comparison point, the notifications of the two refreshes
			// after it, and its state after those.
			type observed struct {
				before, after cq.CQState
				notes         []string
			}
			run := func(down restart) map[string]*observed {
				w := &resumeWorld{t: t, fs: faults.NewMemFS(1), tids: make(map[string]relation.TID),
					cfg: cq.Config{UseDRA: true, AutoGC: true, ShareTemplates: tc.share}}
				w.open()
				defer func() { _ = w.sys.Close() }()
				for _, table := range []string{"stocks", "s2", "s3"} {
					if err := w.sys.Store.CreateTable(table, stockSchema()); err != nil {
						t.Fatal(err)
					}
				}
				w.commit(func(tx *storage.Tx) error {
					for i := 0; i < 6; i++ {
						for _, table := range []string{"stocks", "s2", "s3"} {
							if err := w.insert(tx, table, fmt.Sprintf("K%d", i), int64(30+12*i)); err != nil {
								return err
							}
						}
					}
					return nil
				})
				for _, def := range tc.defs {
					if _, err := w.sys.Manager.Register(def); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					w.round(i)
				}
				// The crash window: a commit no refresh has seen, so every
				// resumed CQ reseeds at a LastExec behind the head.
				w.change(3)
				if down != noRestart {
					if down == checkpoint {
						if err := w.sys.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						if err := w.sys.Close(); err != nil {
							t.Fatal(err)
						}
					} else {
						_ = w.sys.Manager.Close() // the log is abandoned open
						w.fs.Crash()
					}
					w.open()
					if ck := w.sys.Recovery.FromCheckpoint; ck != (down == checkpoint) {
						t.Fatalf("recovery from a checkpoint = %v after restart kind %d", ck, down)
					}
					if w.sys.Recovery.CQs != len(tc.defs) {
						t.Fatalf("recovery resumed %d CQs, want %d", w.sys.Recovery.CQs, len(tc.defs))
					}
				}
				out := make(map[string]*observed)
				for _, def := range tc.defs {
					name := def.Name
					st, err := w.sys.Manager.State(name)
					if err != nil {
						t.Fatal(err)
					}
					o := &observed{before: st}
					out[name] = o
					if _, err := w.sys.Manager.SubscribeFunc(name, func(n cq.Notification, closed bool) {
						if !closed {
							o.notes = append(o.notes, renderChange(n))
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
				// Two refreshes: the first covers the crash window, the
				// second a window after it.
				w.poll()
				w.round(4)
				for name, o := range out {
					st, err := w.sys.Manager.State(name)
					if err != nil {
						t.Fatal(err)
					}
					o.after = st
				}
				return out
			}

			registered := run(noRestart)
			sameState := func(when, name string, a, b cq.CQState) {
				t.Helper()
				if a.Terminated {
					// The documented differences: the result is not
					// re-derived, and a sequence that never steps again is
					// given no evaluator.
					if !b.Terminated || b.ResultLen != 0 {
						t.Errorf("%s, %q: resumed Terminated=%v with %d rows, want terminated and empty", when, name, b.Terminated, b.ResultLen)
					}
					a.ResultLen, a.Strategy = 0, ""
				}
				for _, f := range []struct {
					field string
					a, b  any
				}{
					{"Seq", a.Seq, b.Seq},
					{"LastExec", a.LastExec, b.LastExec},
					{"Strategy", a.Strategy, b.Strategy},
					{"Template", a.Template, b.Template},
					{"TemplateMates", a.TemplateMates, b.TemplateMates},
					{"Groups", a.Groups, b.Groups},
					{"len(Replicas)", len(a.Replicas), len(b.Replicas)},
					{"ResultLen", a.ResultLen, b.ResultLen},
					{"Terminated", a.Terminated, b.Terminated},
					{"Health", a.Health, b.Health},
				} {
					if f.a != f.b {
						t.Errorf("%s, %q: %s = %v registered, %v resumed", when, name, f.field, f.a, f.b)
					}
				}
			}
			if tc.name == "template-staggered" {
				lastExecs := make(map[any]bool)
				for _, o := range registered {
					lastExecs[o.before.LastExec] = true
				}
				if len(lastExecs) != len(tc.defs) {
					t.Errorf("the CQs share a LastExec at the restart point; the script does not stagger them")
				}
			}
			for name, want := range registered {
				if tc.share && (want.before.Template == 0 || want.before.TemplateMates != len(tc.defs)) {
					t.Errorf("%q registered unshared: %+v", name, want.before)
				}
				if want.before.Terminated != (name == "stopped") {
					t.Errorf("%q: terminated = %v at the restart point", name, want.before.Terminated)
				}
				fires := 2
				if name == "lag" {
					fires = 1 // it counts three updates, over a round and a half
				}
				if len(want.notes) < fires && !want.before.Terminated {
					t.Errorf("%q: the refreshes after the restart point notified %d times; the script is too tame", name, len(want.notes))
				}
			}
			for _, down := range []restart{checkpoint, crash} {
				resumed := run(down)
				for name, want := range registered {
					got := resumed[name]
					when := map[restart]string{checkpoint: "from a checkpoint", crash: "from the WAL alone"}[down]
					sameState(when+", at the restart point", name, want.before, got.before)
					sameState(when+", two refreshes later", name, want.after, got.after)
					if fmt.Sprint(got.notes) != fmt.Sprint(want.notes) {
						t.Errorf("%q %s: the next refreshes notified\n  resumed:    %v\n  registered: %v", name, when, got.notes, want.notes)
					}
				}
			}
		})
	}
}
