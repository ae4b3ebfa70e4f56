package remote

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/storage"
)

// testPolicy is a fast retry policy for tests: real reconnects, no real
// sleeping.
func testPolicy() Policy {
	p := DefaultPolicy()
	p.IOTimeout = 2 * time.Second
	p.MaxAttempts = 5
	p.BackoffBase = time.Millisecond
	p.BackoffMax = 5 * time.Millisecond
	p.Sleep = func(time.Duration) {}
	return p
}

// startFaultyServer brings up an instrumented server behind a fault
// injector (server-side conns are faulty) and a policy-driven client
// dialing through the same injector.
func startFaultyServer(t *testing.T, plan faults.Plan) (*storage.Store, *faults.Injector, *Client, *obs.Registry) {
	t.Helper()
	store := storage.NewStore()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan)
	srv := NewServer(store)
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.ServeListener(inj.WrapListener(ln))
	t.Cleanup(func() { _ = srv.Close() })

	p := testPolicy()
	p.Dialer = inj.Dialer(nil)
	client, err := DialPolicy(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	client.Instrument(reg)
	t.Cleanup(func() { _ = client.Close() })
	return store, inj, client, reg
}

func TestClientReconnectsAfterConnKill(t *testing.T) {
	store, inj, client, reg := startFaultyServer(t, faults.Plan{Seed: 1})
	insertStock(t, store, "DEC", 150)

	snap, _, err := client.Snapshot("stocks", Latest)
	if err != nil || snap.Len() != 1 {
		t.Fatalf("baseline snapshot: len=%v err=%v", snap, err)
	}
	// Cable pull: every live conn dies. The next idempotent request must
	// recover transparently on a fresh connection.
	inj.KillActive()
	snap, _, err = client.Snapshot("stocks", Latest)
	if err != nil {
		t.Fatalf("snapshot after kill: %v", err)
	}
	if snap.Len() != 1 {
		t.Errorf("post-kill snapshot len = %d", snap.Len())
	}
	c := reg.Snapshot().Counters
	if c["remote.client.reconnects"] == 0 {
		t.Errorf("reconnects not counted: %v", c)
	}
	if c["remote.client.retries"] == 0 {
		t.Errorf("retries not counted: %v", c)
	}
	if c["remote.client.broken_conns"] == 0 {
		t.Errorf("broken conns not counted: %v", c)
	}
}

// TestMirrorCQSurvivesConnKill is the acceptance scenario: a Mirror CQ
// whose connection is killed mid-stream recovers on the next Refresh by
// re-pulling DeltaSince(lastTS) — no snapshot re-pull — and its result
// matches an unfaulted server-side evaluation.
func TestMirrorCQSurvivesConnKill(t *testing.T) {
	store, inj, client, reg := startFaultyServer(t, faults.Plan{Seed: 2})
	insertStock(t, store, "DEC", 150)
	insertStock(t, store, "IBM", 75)

	cq, err := NewMirrorCQ(client, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	snapshotsAtInit := reg.Snapshot().Counters["remote.snapshots_served"]

	// Updates arrive, then the connection dies before the refresh.
	insertStock(t, store, "MAC", 130)
	insertStock(t, store, "LOW", 10)
	inj.KillActive()

	d, err := cq.Refresh()
	if err != nil {
		t.Fatalf("refresh after kill: %v", err)
	}
	if ins, del, mod := d.Counts(); ins != 1 || del != 0 || mod != 0 {
		t.Errorf("refresh delta = %d/%d/%d, want 1/0/0", ins, del, mod)
	}
	if cq.Stale() {
		t.Error("recovered CQ still marked stale")
	}

	// Another kill mid-sequence, another refresh round.
	insertStock(t, store, "SUN", 180)
	inj.KillActive()
	if _, err := cq.Refresh(); err != nil {
		t.Fatalf("second refresh after kill: %v", err)
	}

	// Result identical to an unfaulted server-side run.
	truth, _, err := client.Query("SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Result().EqualContents(truth) {
		t.Errorf("mirror diverged after faults:\n%s\nvs\n%s", cq.Result(), truth)
	}

	// Differential resumption: recovery re-pulled windows, never a
	// fresh snapshot.
	c := reg.Snapshot().Counters
	if got := c["remote.snapshots_served"]; got != snapshotsAtInit {
		t.Errorf("recovery re-pulled snapshots: %d -> %d", snapshotsAtInit, got)
	}
	if c["remote.client.reconnects"] < 2 {
		t.Errorf("expected >= 2 reconnects, got %d", c["remote.client.reconnects"])
	}
}

func TestMirrorServesStaleDuringPartition(t *testing.T) {
	store, inj, client, _ := startFaultyServer(t, faults.Plan{Seed: 3})
	insertStock(t, store, "DEC", 150)

	cq, err := NewMirrorCQ(client, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	tsBefore := cq.LastTS()
	insertStock(t, store, "MAC", 130)

	inj.Partition()
	if _, err := cq.Refresh(); err == nil {
		t.Fatal("refresh during partition should fail")
	}
	// Degraded mode: last good result still served, marked stale.
	if !cq.Stale() {
		t.Error("CQ not marked stale during partition")
	}
	if cq.LastErr() == nil {
		t.Error("LastErr empty during partition")
	}
	if cq.Result().Len() != 1 {
		t.Errorf("stale result = %d rows, want the pre-partition 1", cq.Result().Len())
	}
	if cq.LastTS() != tsBefore {
		t.Errorf("lastTS moved during failed refresh: %d -> %d", tsBefore, cq.LastTS())
	}

	// Heal: the next refresh resumes from lastTS and catches up.
	inj.Heal()
	d, err := cq.Refresh()
	if err != nil {
		t.Fatalf("refresh after heal: %v", err)
	}
	if ins, _, _ := d.Counts(); ins != 1 {
		t.Errorf("catch-up insertions = %d, want 1", ins)
	}
	if cq.Stale() || cq.LastErr() != nil {
		t.Error("CQ still stale after successful refresh")
	}
}

func TestIdempotentOpsRetryThroughLossyLink(t *testing.T) {
	// 5% per-op drop probability on BOTH ends of every conn (dialer and
	// listener are injector-wrapped, so a request sees ~8 faulted ops):
	// reads must still converge via retries within the attempt budget.
	store, _, client, _ := startFaultyServer(t, faults.Plan{Seed: 6, DropProb: 0.05})
	client.mu.Lock()
	client.policy.MaxAttempts = 10
	client.mu.Unlock()
	insertStock(t, store, "DEC", 150)

	for i := 0; i < 15; i++ {
		if _, _, err := client.Snapshot("stocks", Latest); err != nil {
			t.Fatalf("snapshot %d through lossy link: %v", i, err)
		}
		if _, err := client.Now(); err != nil {
			t.Fatalf("now %d through lossy link: %v", i, err)
		}
	}
}

func TestClientTimeoutOnUnresponsiveServer(t *testing.T) {
	// A listener that accepts and then never replies: the request must
	// fail by deadline, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 1024)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	p := testPolicy()
	p.IOTimeout = 50 * time.Millisecond
	p.MaxAttempts = 2
	client, err := DialPolicy(ln.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg := obs.NewRegistry()
	client.Instrument(reg)

	start := time.Now()
	if _, err := client.Now(); err == nil {
		t.Fatal("request against black-hole server succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timeout took %v, deadlines not applied", d)
	}
	if reg.Snapshot().Counters["remote.client.timeouts"] == 0 {
		t.Error("timeout not counted")
	}
}

func TestServerShedsIdlePeers(t *testing.T) {
	store := storage.NewStore()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.SetIdleTimeout(30 * time.Millisecond)
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// A raw TCP peer that connects and goes silent.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		snap := reg.Snapshot()
		if snap.Counters["remote.read_timeouts"] >= 1 && snap.Gauges["remote.conns"] == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := reg.Snapshot()
	t.Fatalf("idle peer not shed: read_timeouts=%d conns=%d",
		snap.Counters["remote.read_timeouts"], snap.Gauges["remote.conns"])
}

func TestServerCountsBrokenConns(t *testing.T) {
	store := storage.NewStore()
	srv := NewServer(store)
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// Half a frame, then death: the server must count a broken conn.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0, 0, 1, 0, 0xAB}); err != nil { // prefix claims 256B, sends 1
		t.Fatal(err)
	}
	_ = conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counters["remote.conns_broken"] >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("mid-frame death not counted as broken conn")
}

func TestServerCloseIsGracefulAndPrompt(t *testing.T) {
	store, _, client := startServer(t)
	insertStock(t, store, "A", 1)
	// A healthy request, then Close with the client's reader idle: Close
	// must return promptly (deadline nudge), not wait out any timeout.
	if _, err := client.Now(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Now(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("graceful close took %v", d)
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestClientClosedDoesNotReconnect(t *testing.T) {
	_, _, client, _ := startFaultyServer(t, faults.Plan{Seed: 8})
	if _, err := client.Now(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Now(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("request after Close: err = %v, want ErrClientClosed", err)
	}
}

func TestBackoffScheduleIsCappedExponential(t *testing.T) {
	p := Policy{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoff(i+1, nil); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Jitter stays within the configured band.
	p.Jitter = 0.5
	rng := rand.New(rand.NewSource(1))
	for retry := 1; retry <= 6; retry++ {
		base := want[retry-1]
		for i := 0; i < 50; i++ {
			got := p.backoff(retry, rng)
			lo := time.Duration(float64(base) * 0.5)
			hi := time.Duration(float64(base) * 1.5)
			if got < lo || got > hi {
				t.Fatalf("jittered backoff(%d) = %v outside [%v, %v]", retry, got, lo, hi)
			}
		}
	}
}

func TestBytesCountersSurviveReconnect(t *testing.T) {
	store, inj, client, _ := startFaultyServer(t, faults.Plan{Seed: 9})
	insertStock(t, store, "A", 1)
	if _, _, err := client.Snapshot("stocks", Latest); err != nil {
		t.Fatal(err)
	}
	before := client.BytesRead()
	if before == 0 {
		t.Fatal("no bytes counted before kill")
	}
	inj.KillActive()
	if _, _, err := client.Snapshot("stocks", Latest); err != nil {
		t.Fatal(err)
	}
	if after := client.BytesRead(); after <= before {
		t.Errorf("bytes counter went %d -> %d across reconnect", before, after)
	}
}
