package remote

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// mirrorServer serves a store holding quotes(id, sym, px) and
// trades(sym, vol) — integer measures, so a maintained SUM compares
// exactly with a recomputed one — on a listener, wrapped by wrap when it
// is non-nil.
func mirrorServer(t testing.TB, wrap func(net.Listener) net.Listener) (*storage.Store, *Client) {
	t.Helper()
	store := storage.NewStore()
	for name, schema := range map[string]relation.Schema{
		"quotes": relation.MustSchema(
			relation.Column{Name: "id", Type: relation.TInt},
			relation.Column{Name: "sym", Type: relation.TString},
			relation.Column{Name: "px", Type: relation.TInt},
		),
		"trades": relation.MustSchema(
			relation.Column{Name: "sym", Type: relation.TString},
			relation.Column{Name: "vol", Type: relation.TInt},
		),
	} {
		if err := store.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	srv := NewServer(store)
	addr := srv.ServeListener(ln)
	t.Cleanup(func() { _ = srv.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return store, client
}

// churn commits one transaction of random inserts, modifies and deletes
// over the tids in live, which it keeps current.
func churn(store *storage.Store, rng *rand.Rand, live map[string][]relation.TID, ops int) error {
	syms := []string{"A", "B", "C", "D", "E"}
	row := func(table string) []relation.Value {
		sym := relation.Str(syms[rng.Intn(len(syms))])
		if table == "quotes" {
			return []relation.Value{relation.Int(rng.Int63n(1000)), sym, relation.Int(rng.Int63n(100))}
		}
		return []relation.Value{sym, relation.Int(rng.Int63n(50))}
	}
	tx := store.Begin()
	touched := map[relation.TID]bool{} // one change per tid and commit
	for i := 0; i < ops; i++ {
		table := []string{"quotes", "trades"}[rng.Intn(2)]
		tids := live[table]
		k := rng.Intn(len(tids) + 1)
		var err error
		switch {
		case k == len(tids) || rng.Intn(3) == 0:
			var tid relation.TID
			tid, err = tx.Insert(table, row(table))
			live[table] = append(tids, tid)
			touched[tid] = true
		case touched[tids[k]]:
			continue
		case rng.Intn(2) == 0:
			touched[tids[k]] = true
			err = tx.Update(table, tids[k], row(table))
		default:
			touched[tids[k]] = true
			err = tx.Delete(table, tids[k])
			live[table] = append(tids[:k], tids[k+1:]...)
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	_, err := tx.Commit()
	return err
}

func mustChurn(t testing.TB, store *storage.Store, rng *rand.Rand, live map[string][]relation.TID, ops int) {
	t.Helper()
	if err := churn(store, rng, live, ops); err != nil {
		t.Fatal(err)
	}
}

// matchServer fails unless the mirror holds what the server computes for
// its query now.
func matchServer(t testing.TB, client *Client, name, query string, m *MirrorCQ) {
	t.Helper()
	truth, _, err := client.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Result().EqualContents(truth) {
		t.Fatalf("%s: mirror diverged from the server:\n%s\nvs\n%s", name, m.Result(), truth)
	}
}

// One mirror per query shape, each stepping the same prepared evaluator
// a server CQ holds, equals the server-side query after every round of
// inserts, modifies and deletes.
func TestMirrorMatchesServer(t *testing.T) {
	store, client := mirrorServer(t, nil)
	rng := rand.New(rand.NewSource(7))
	live := map[string][]relation.TID{}
	mustChurn(t, store, rng, live, 40)
	shapes := []struct {
		name, query string
		strategy    dra.Strategy
	}{
		{"select", "SELECT id, sym, px FROM quotes WHERE px > 50", dra.StrategyIncremental},
		{"join", "SELECT q.id, q.px, t.vol FROM quotes q JOIN trades t ON q.sym = t.sym", dra.StrategyIncremental},
		{"sum", "SELECT sym, SUM(px) AS s FROM quotes GROUP BY sym", dra.StrategyIncremental},
		{"count", "SELECT COUNT(*) AS n FROM trades", dra.StrategyIncremental},
		{"distinct", "SELECT DISTINCT sym FROM trades", dra.StrategyIncremental},
		{"min", "SELECT sym, MIN(px) AS lo FROM quotes GROUP BY sym", dra.StrategyPropagate},
	}
	mirrors := make([]*MirrorCQ, len(shapes))
	for i, sh := range shapes {
		m, err := NewMirrorCQ(client, sh.query)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if got := m.prep.Strategy(); got != sh.strategy {
			t.Fatalf("%s: strategy %s, want %s", sh.name, got, sh.strategy)
		}
		matchServer(t, client, sh.name, sh.query, m)
		mirrors[i] = m
	}
	for round := 0; round < 24; round++ {
		mustChurn(t, store, rng, live, 1+rng.Intn(12))
		for i, m := range mirrors {
			if _, err := m.Refresh(); err != nil {
				t.Fatalf("round %d: %s: %v", round, shapes[i].name, err)
			}
			matchServer(t, client, fmt.Sprintf("round %d: %s", round, shapes[i].name), shapes[i].query, m)
		}
	}
}

// hookListener hands out connections that run the armed hook, once, on
// the next reply the server writes.
type hookListener struct {
	net.Listener
	hook *atomic.Pointer[func()]
}

func (l hookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return hookConn{c, l.hook}, nil
}

type hookConn struct {
	net.Conn
	hook *atomic.Pointer[func()]
}

func (c hookConn) Write(p []byte) (int, error) {
	if f := c.hook.Swap(nil); f != nil {
		(*f)()
	}
	return c.Conn.Write(p)
}

// A commit landing between the pulls of a join's two windows belongs to
// the first-pulled table, whose window is already read: the refresh's cut
// must stop before it, so the next refresh pulls it.
func TestMirrorCutPrecedesALateCommit(t *testing.T) {
	var hook atomic.Pointer[func()]
	store, client := mirrorServer(t, func(ln net.Listener) net.Listener { return hookListener{ln, &hook} })
	rng := rand.New(rand.NewSource(3))
	live := map[string][]relation.TID{}
	mustChurn(t, store, rng, live, 20)
	const query = "SELECT q.id, q.px, t.vol FROM quotes q JOIN trades t ON q.sym = t.sym"
	m, err := NewMirrorCQ(client, query)
	if err != nil {
		t.Fatal(err)
	}
	first := m.tables[0]
	late := func() {
		tx := store.Begin()
		vals := []relation.Value{relation.Str("A"), relation.Int(1)}
		if first == "quotes" {
			vals = []relation.Value{relation.Int(1), relation.Str("A"), relation.Int(1)}
		}
		if _, err := tx.Insert(first, vals); err != nil {
			t.Error(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Error(err)
		}
	}
	hook.Store(&late) // fires as the server writes the first window reply
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if hook.Load() != nil {
		t.Fatal("the late commit never ran")
	}
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	matchServer(t, client, "join", query, m)
}

// Mirrors refreshing beside concurrent writers converge: every reply is
// stamped with a time its data was read at, so no commit is covered
// without being shipped.
func TestMirrorConvergesBesideWriters(t *testing.T) {
	store, client := mirrorServer(t, nil)
	mustChurn(t, store, rand.New(rand.NewSource(11)), map[string][]relation.TID{}, 30)
	queries := map[string]string{
		"join": "SELECT q.id, q.px, t.vol FROM quotes q JOIN trades t ON q.sym = t.sym",
		"sum":  "SELECT sym, SUM(px) AS s FROM quotes GROUP BY sym",
	}
	mirrors := map[string]*MirrorCQ{}
	for name, q := range queries {
		m, err := NewMirrorCQ(client, q)
		if err != nil {
			t.Fatal(err)
		}
		mirrors[name] = m
	}
	// Each writer changes only the rows it inserted.
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			live := map[string][]relation.TID{}
			for i := 0; i < 60; i++ {
				if err := churn(store, rng, live, 1+rng.Intn(6)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + w))
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for name, m := range mirrors {
			if _, err := m.Refresh(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for name, m := range mirrors {
		if _, err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
		matchServer(t, client, name, queries[name], m)
	}
}

// A selection mirror's refresh costs the window, not the table: the same
// 64-row commit allocates the same over 5k and 50k rows, where a mirror
// that copied its replicas every refresh allocated once per row.
func TestMirrorRefreshAllocsIndependentOfTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 55k rows")
	}
	allocs := func(rows int) float64 {
		mb := newMirrorBench(t, rows)
		for i := 0; i < 3; i++ {
			mb.step(t) // warm-up: codec types, pools and buffers reach window size
		}
		var before, after runtime.MemStats
		const steps = 8
		var total uint64
		for i := 0; i < steps; i++ {
			mb.commit(t)
			runtime.ReadMemStats(&before)
			if _, err := mb.mirror.Refresh(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / steps
	}
	small, large := allocs(5_000), allocs(50_000)
	if large > small*1.1 {
		t.Fatalf("refresh allocs: %.0f over 5k rows, %.0f over 50k rows; want within 10%%", small, large)
	}
}

// mirrorBench is a selection mirror over a quotes table of fixed size,
// changed by 64-row commits that modify existing rows.
type mirrorBench struct {
	store  *storage.Store
	mirror *MirrorCQ
	tids   []relation.TID
	next   int
}

func newMirrorBench(tb testing.TB, rows int) *mirrorBench {
	store, client := mirrorServer(tb, nil)
	mb := &mirrorBench{store: store}
	tx := store.Begin()
	for i := 0; i < rows; i++ {
		tid, err := tx.Insert("quotes", []relation.Value{relation.Int(int64(i)), relation.Str("Q"), relation.Int(int64(i % 1000))})
		if err != nil {
			tb.Fatal(err)
		}
		mb.tids = append(mb.tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	var err error
	if mb.mirror, err = NewMirrorCQ(client, "SELECT id, sym, px FROM quotes WHERE px > 990"); err != nil {
		tb.Fatal(err)
	}
	return mb
}

// commit modifies the next 64 rows, moving each across the predicate.
func (mb *mirrorBench) commit(tb testing.TB) {
	tx := mb.store.Begin()
	for i := 0; i < 64; i++ {
		k := mb.next % len(mb.tids)
		mb.next++
		px := int64(mb.next % 1000)
		if err := tx.Update("quotes", mb.tids[k], []relation.Value{relation.Int(int64(k)), relation.Str("Q"), relation.Int(px)}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

func (mb *mirrorBench) step(tb testing.TB) {
	mb.commit(tb)
	if _, err := mb.mirror.Refresh(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRefreshMirror is the client-side refresh: one 64-row commit
// to a 50k-row table, then one Refresh of a selection mirror over it —
// both window pulls over loopback, the prepared step, and the in-place
// replica advance. scripts/check-allocs.sh gates its allocations.
func BenchmarkRefreshMirror(b *testing.B) {
	b.Run("mirror", func(b *testing.B) {
		mb := newMirrorBench(b, 50_000)
		for i := 0; i < 3; i++ {
			mb.step(b) // warm-up, as above
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mb.step(b)
		}
	})
}
