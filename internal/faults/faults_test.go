package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections from ln and echoes bytes until the conn
// dies. Returns a stop function.
func echoServer(t *testing.T, ln net.Listener) func() {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	return func() { _ = ln.Close(); wg.Wait() }
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestCleanPassThrough(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1})
	ln := listen(t)
	stop := echoServer(t, inj.WrapListener(ln))
	defer stop()

	conn, err := inj.Dialer(nil)(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q", got)
	}
	if st := inj.Stats(); st.Drops != 0 || st.PartialWrites != 0 {
		t.Errorf("clean plan injected faults: %+v", st)
	}
}

func TestDropAfterOpsIsDeterministic(t *testing.T) {
	// The connection must complete exactly N ops, then die.
	inj := NewInjector(Plan{Seed: 7, DropAfterOps: 2})
	ln := listen(t)
	stop := echoServer(t, ln) // faults injected client-side only
	defer stop()

	conn, err := inj.Dialer(nil)(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 1)
	if _, err := conn.Write([]byte("a")); err != nil { // op 1
		t.Fatalf("op1: %v", err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil { // op 2
		t.Fatalf("op2: %v", err)
	}
	if _, err := conn.Write([]byte("b")); err == nil { // op 3: dead
		t.Fatal("op3 should have been dropped")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("op3 err = %v, want ErrInjected", err)
	}
	// Every later op fails too: the conn stays dead.
	if _, err := conn.Read(buf); !errors.Is(err, ErrInjected) {
		t.Errorf("post-kill read err = %v", err)
	}
	if st := inj.Stats(); st.Drops != 1 {
		t.Errorf("drops = %d, want 1", st.Drops)
	}
}

func TestSeededScheduleIsReproducible(t *testing.T) {
	// Two injectors with the same seed and plan make identical decisions
	// for the same op sequence.
	run := func(seed int64) []bool {
		inj := NewInjector(Plan{Seed: seed, DropProb: 0.3})
		fates := make([]bool, 0, 64)
		for op := 0; op < 64; op++ {
			fates = append(fates, inj.decide(op, op%2 == 0).drop)
		}
		return fates
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	// And a different seed gives a different stream (with overwhelming
	// probability over 64 draws at p=0.3).
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 64-op schedules")
	}
}

func TestPartialWriteDeliversPrefixThenKills(t *testing.T) {
	inj := NewInjector(Plan{Seed: 3, PartialWriteProb: 1})
	client, server := net.Pipe()
	defer server.Close()
	fc := inj.WrapConn(client)

	msg := []byte("0123456789")
	errc := make(chan error, 1)
	nc := make(chan int, 1)
	go func() {
		n, err := fc.Write(msg)
		nc <- n
		errc <- err
	}()
	got := make([]byte, len(msg))
	n, _ := server.Read(got)
	wn, werr := <-nc, <-errc
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("write err = %v, want ErrInjected", werr)
	}
	if wn != len(msg)/2 || n != len(msg)/2 {
		t.Errorf("delivered %d (reported %d), want %d", n, wn, len(msg)/2)
	}
	if st := inj.Stats(); st.PartialWrites != 1 {
		t.Errorf("partial writes = %d", st.PartialWrites)
	}
}

func TestChunkedWritesStayIntact(t *testing.T) {
	inj := NewInjector(Plan{Seed: 5, ChunkWrites: 3})
	client, server := net.Pipe()
	defer server.Close()
	fc := inj.WrapConn(client)

	msg := bytes.Repeat([]byte("abcdefg"), 10)
	go func() {
		if _, err := fc.Write(msg); err != nil {
			t.Errorf("chunked write: %v", err)
		}
		fc.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("chunked payload corrupted: %d vs %d bytes", len(got), len(msg))
	}
}

func TestPartitionAndHeal(t *testing.T) {
	inj := NewInjector(Plan{Seed: 9})
	ln := listen(t)
	stop := echoServer(t, inj.WrapListener(ln))
	defer stop()
	dial := inj.Dialer(nil)

	conn, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// One echo round trip: the reply proves the server's Accept has
	// returned, so the listener side of conn is wrapped and live before
	// the partition, which must then sever both ends.
	if _, err := conn.Write([]byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	inj.Partition()
	// Live conn was severed.
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("write on partitioned conn: %v", err)
	}
	// New dials are refused.
	if _, err := dial(ln.Addr().String()); !errors.Is(err, ErrPartitioned) {
		t.Errorf("dial during partition: %v", err)
	}
	if !inj.Partitioned() {
		t.Error("Partitioned() = false during partition")
	}
	inj.Heal()
	conn2, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("y")); err != nil {
		t.Errorf("write after heal: %v", err)
	}
	// Both ends of the pre-partition conn are injector-wrapped (dialer
	// side and listener side), so the partition severs two conns.
	st := inj.Stats()
	if st.Kills != 2 || st.DialsRefused == 0 {
		t.Errorf("stats after partition = %+v", st)
	}
}

func TestKillActiveSeversLiveConns(t *testing.T) {
	inj := NewInjector(Plan{Seed: 11})
	ln := listen(t)
	stop := echoServer(t, ln)
	defer stop()
	dial := inj.Dialer(nil)

	c1, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	inj.KillActive()
	for i, c := range []net.Conn{c1, c2} {
		if _, err := c.Write([]byte("x")); err == nil {
			t.Errorf("conn %d survived KillActive", i)
		}
	}
	// The network itself is fine: a fresh dial works.
	c3, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after KillActive: %v", err)
	}
	defer c3.Close()
	if _, err := c3.Write([]byte("x")); err != nil {
		t.Errorf("fresh conn after KillActive: %v", err)
	}
}

func TestDelayAddsLatency(t *testing.T) {
	inj := NewInjector(Plan{Seed: 13, Delay: 20 * time.Millisecond})
	client, server := net.Pipe()
	defer server.Close()
	fc := inj.WrapConn(client)
	go func() {
		buf := make([]byte, 1)
		_, _ = server.Read(buf)
	}()
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("write took %v, want >= 20ms", d)
	}
	if st := inj.Stats(); st.Delays != 1 {
		t.Errorf("delays = %d", st.Delays)
	}
}
