package cq

import (
	"fmt"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/storage"
)

// TestColumnarEquivalence is the end-to-end transcript property for the
// differential refresh path: the same commit script must yield
// byte-identical per-CQ notification sequences whether every refresh is
// the paper's complete re-evaluation (UseDRA off: run the query, diff
// with the previous result) or the engine's columnar differential
// evaluation — across the poll, push, and overflow-mixed drive modes,
// with and without template sharing. Run with -race this also exercises
// the shared read-only window images, which every refresh at one
// timestamp reads from one cache, under concurrent refresh workers.
func TestColumnarEquivalence(t *testing.T) {
	const steps = 36
	for _, share := range []bool{false, true} {
		for _, mode := range []string{"poll", "push", "mixed"} {
			t.Run(fmt.Sprintf("share=%v/%s", share, mode), func(t *testing.T) {
				base, _ := e2eWorldCfg(t, mode, steps, func(c *Config) {
					c.UseDRA = false
				})
				for _, name := range []string{"sel", "join", "upd3", "compl"} {
					if len(base[name]) == 0 {
						t.Fatalf("complete re-evaluation transcript for %q is empty; the script is too tame", name)
					}
				}

				vec, snap := e2eWorldCfg(t, mode, steps, func(c *Config) {
					c.Engine = dra.NewEngine()
					c.ShareTemplates = share
				})
				if snap.Counter("dra.vector_steps") == 0 {
					t.Fatal("differential world never ran the columnar kernels; the property holds vacuously")
				}
				if mode == "push" && snap.Counter("push.refreshes") == 0 {
					t.Fatal("push mode never dispatched a refresh; the push path went unexercised")
				}

				for name, want := range base {
					got := vec[name]
					if len(got) != len(want) {
						t.Fatalf("%q delivered %d notifications differential, %d by complete re-evaluation",
							name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%q notification %d:\n  full: %s\n  dra:  %s",
								name, i, want[i], got[i])
						}
					}
				}
			})
		}
	}
}

// TestTIDReuseInsideOneWindow refreshes a selection over a window of two
// commits in which one tid is deleted by the first and re-inserted by
// the second (Tx.InsertWithTID, as INTO targets do), with another row's
// modification between them. The compacted window folds the two to one
// modification of the same signed length as the raw window; the
// per-commit rows carry the -old and +new apart, so only the folded
// window is the step's input. Driven by push dispatches and by Poll
// alike, the differential transcript must match complete re-evaluation
// — one Modify of the reused tid, or nothing when the row came back
// unchanged.
func TestTIDReuseInsideOneWindow(t *testing.T) {
	type testCase struct {
		name    string
		query   string
		back    float64 // the re-inserted row's price
		wantMod bool    // the reused tid reaches the notification as a Modify
	}
	cases := []testCase{
		{"changed", "SELECT * FROM stocks WHERE price > 100", 170, true},
		{"unchanged", "SELECT * FROM stocks WHERE price > 100", 150, false},
		{"changed column projected away", "SELECT name FROM stocks WHERE price > 100", 170, false},
	}
	for _, push := range []bool{true, false} {
		mode := map[bool]string{true: "push", false: "poll"}[push]
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) { tidReuseWorlds(t, tc.query, tc.back, tc.wantMod, push) })
		}
	}
}

// tidReuseWorlds runs one TestTIDReuseInsideOneWindow row: the script
// under complete re-evaluation, then under the differential engine,
// refreshed by push dispatches or by Poll after each commit.
func tidReuseWorlds(t *testing.T, query string, back float64, wantMod, push bool) {
	world := func(useDRA bool) ([]string, relation.TID) {
		s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
		reused := insertStock(t, s, "DEC", 150)
		other := insertStock(t, s, "IBM", 120)
		m := NewManagerConfig(s, Config{UseDRA: useDRA, Push: push})
		defer func() { _ = m.Close() }()
		if _, err := m.Register(Def{Name: "q", Query: query, NotifyEmpty: true,
			Trigger: sql.TriggerSpec{Kind: sql.TriggerUpdates, Updates: 3}}); err != nil {
			t.Fatal(err)
		}
		var out []string
		if _, err := m.SubscribeFunc("q", func(n Notification, closed bool) {
			if !closed {
				out = append(out, renderNotification(n))
			}
		}); err != nil {
			t.Fatal(err)
		}
		settle := func() {
			m.FlushPush() // no-op when polling
			if !push {
				if _, err := m.Poll(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Two updates: the trigger holds, the window grows.
		commit(t, s, func(tx *storage.Tx) error {
			if err := tx.Delete("stocks", reused); err != nil {
				return err
			}
			return tx.Update("stocks", other, []relation.Value{relation.Str("IBX"), relation.Float(130)})
		})
		settle()
		// The third fires it over both commits.
		commit(t, s, func(tx *storage.Tx) error {
			return tx.InsertWithTID("stocks", reused, []relation.Value{relation.Str("DEC"), relation.Float(back)})
		})
		settle()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return out, reused
	}
	want, _ := world(false)
	got, reused := world(true)
	if len(want) != 1 {
		t.Fatalf("complete re-evaluation delivered %d notifications, want the one refresh over both commits:\n%s",
			len(want), strings.Join(want, "\n"))
	}
	mods := want[0][strings.Index(want[0], "mod=["):strings.Index(want[0], " com=")]
	if mod := strings.Contains(mods, fmt.Sprintf("%d:[", reused)); mod != wantMod {
		t.Fatalf("complete re-evaluation: reused tid modified = %v, want %v:\n%s", mod, wantMod, want[0])
	}
	if len(got) != len(want) {
		t.Fatalf("differential delivered %d notifications, complete re-evaluation %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("notification %d:\n  full: %s\n  dra:  %s", i, want[i], got[i])
		}
	}
}
