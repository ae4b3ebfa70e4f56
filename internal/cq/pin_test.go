//go:build go1.24

package cq

import (
	"runtime"
	"testing"
	"weak"

	"github.com/diorama/continual/internal/relation"
)

// TestResultDoesNotPinRefreshOutput: a maintained result keeps none of
// the memory the refresh that changed it rendered. A subscriber takes a
// weak pointer into the value backing of a refresh's emitted row and
// drops the notification; once the collector has run, the backing is
// gone — the result holds its own typed copy of the row, not the
// rendered one. Covered for a selection (netted by pair), a join (netted
// by group) and a template member (folded from its group's step).
func TestResultDoesNotPinRefreshOutput(t *testing.T) {
	for _, tc := range []struct {
		name, query, mate string
		share             bool
	}{
		{name: "selection", query: "SELECT name, price FROM stocks WHERE price > 100"},
		{name: "join", query: "SELECT a.name, b.price FROM stocks a JOIN stocks b ON a.name = b.name WHERE a.price > 100"},
		{name: "template member", query: "SELECT name, price FROM stocks WHERE price > 100",
			mate: "SELECT name, price FROM stocks WHERE price > 50", share: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema()})
			insertStock(t, s, "OLD", 120)
			m := NewManagerConfig(s, Config{UseDRA: true, ShareTemplates: tc.share, Parallelism: 1})
			defer func() { _ = m.Close() }()
			if _, err := m.Register(Def{Name: "q", Query: tc.query}); err != nil {
				t.Fatal(err)
			}
			if tc.mate != "" {
				if _, err := m.Register(Def{Name: "mate", Query: tc.mate}); err != nil {
					t.Fatal(err)
				}
				if st, err := m.State("q"); err != nil || st.Template == 0 {
					t.Fatalf("q did not join a template group: %+v, %v", st, err)
				}
			}
			var emitted weak.Pointer[relation.Value]
			rows := 0
			if _, err := m.SubscribeFunc("q", func(n Notification, closed bool) {
				if closed || n.Delta == nil {
					return
				}
				for _, r := range n.Delta.Rows() {
					if r.New != nil {
						emitted, rows = weak.Make(&r.New[0]), rows+1
						return
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			insertStock(t, s, "NEW", 150)
			if _, err := m.Poll(); err != nil {
				t.Fatal(err)
			}
			if rows == 0 {
				t.Fatal("the refresh emitted no row")
			}
			runtime.GC()
			runtime.GC()
			if emitted.Value() != nil {
				t.Fatal("the result still references the refresh output its row came from")
			}
			// The row itself is in the result, as its own copy.
			res, err := m.Result("q")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, tu := range res.Tuples() {
				found = found || tu.Values[0].AsString() == "NEW"
			}
			if !found {
				t.Fatalf("the inserted row is missing from the result:\n%s", res)
			}
		})
	}
}
