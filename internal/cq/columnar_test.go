package cq

import (
	"fmt"
	"testing"

	"github.com/diorama/continual/internal/dra"
)

// TestColumnarEquivalence is the end-to-end transcript property for the
// differential refresh path: the same commit script must yield
// byte-identical per-CQ notification sequences whether every refresh is
// the paper's complete re-evaluation (UseDRA off: run the query, diff
// with the previous result) or the engine's columnar differential
// evaluation — across the poll, push, and overflow-mixed drive modes,
// with and without template sharing. Run with -race this also exercises
// the shared read-only batch images (window cache entries and routed
// commit batches) under concurrent refresh workers.
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
				if mode == "push" && !share && snap.Counter("cq.columnar.pushed") == 0 {
					t.Fatal("push mode never consumed a routed commit image; the zero-conversion path went unexercised")
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
