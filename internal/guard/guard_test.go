package guard

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProtectPassesThrough(t *testing.T) {
	want := errors.New("boom")
	if err := Protect(func() error { return want }); err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

func TestProtectRecoversPanic(t *testing.T) {
	err := Protect(func() error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "guard") {
		t.Fatalf("stack missing frames: %q", pe.Stack)
	}
}

func TestDeadlineAndOverdue(t *testing.T) {
	if d := Deadline(0); !d.IsZero() {
		t.Fatalf("Deadline(0) = %v, want the zero time", d)
	}
	if err := Overdue(time.Time{}); err != nil {
		t.Fatalf("the zero deadline is overdue: %v", err)
	}
	if err := Overdue(Deadline(time.Hour)); err != nil {
		t.Fatalf("an hour's budget is overdue at once: %v", err)
	}
	if err := Overdue(time.Now().Add(-time.Millisecond)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("a past deadline: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestMeter: a meter reads its deadline on every CheckRows-th tick only,
// and the zero deadline never stops it.
func TestMeter(t *testing.T) {
	past := Meter{Deadline: time.Now().Add(-time.Millisecond)}
	var never Meter
	for i := 1; i <= 2*CheckRows; i++ {
		if err := never.Tick(); err != nil {
			t.Fatalf("tick %d of a zero deadline: %v", i, err)
		}
		err := past.Tick()
		if want := i%CheckRows == 0; errors.Is(err, ErrBudgetExceeded) != want {
			t.Fatalf("tick %d of a past deadline: err = %v", i, err)
		}
	}
}

// fakeClock drives breaker deadlines deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBreaker(threshold int) (*Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(Policy{
		FailureThreshold: threshold,
		BackoffBase:      time.Second,
		BackoffMax:       8 * time.Second,
		Jitter:           -1, // Jitter<=0 resolves to default; use explicit tiny value
		Now:              clk.Now,
	}, 1)
	// Deterministic deadlines: strip jitter after construction.
	b.pol.Jitter = 0
	return b, clk
}

func TestBreakerLifecycle(t *testing.T) {
	b, clk := testBreaker(3)

	// Healthy: always allowed, failures below threshold keep it so.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("healthy breaker refused")
		}
		if b.Failure() {
			t.Fatalf("failure %d quarantined early", i+1)
		}
	}
	if st := b.State(); st != Healthy {
		t.Fatalf("state = %v, want healthy", st)
	}

	// Third consecutive failure trips it.
	if !b.Failure() {
		t.Fatal("threshold failure did not quarantine")
	}
	if st := b.State(); st != Quarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	if b.Allow() {
		t.Fatal("quarantined breaker allowed a refresh")
	}
	if !b.Blocked() {
		t.Fatal("Blocked() = false while quarantined")
	}

	// Past the deadline: exactly one probe.
	clk.Advance(time.Second)
	if st := b.State(); st != Probation {
		t.Fatalf("state = %v, want probation", st)
	}
	if b.Blocked() {
		t.Fatal("Blocked() = true at probe time")
	}
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}

	// Failed probe doubles the backoff.
	if !b.Failure() {
		t.Fatal("failed probe did not re-quarantine")
	}
	if b.Allow() {
		t.Fatal("allowed right after failed probe")
	}
	clk.Advance(time.Second)
	if b.Allow() {
		t.Fatal("backoff did not double after failed probe")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after doubled backoff")
	}

	// Successful probe heals completely.
	b.Success()
	if st := b.State(); st != Healthy {
		t.Fatalf("state = %v, want healthy", st)
	}
	if b.Failures() != 0 {
		t.Fatalf("failures = %d after success", b.Failures())
	}
	if !b.Allow() {
		t.Fatal("healed breaker refused")
	}
}

func TestBreakerBackoffCap(t *testing.T) {
	b, clk := testBreaker(1)
	// Trip repeatedly; backoff 1s,2s,4s,8s,8s (capped).
	b.Failure()
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second} {
		clk.Advance(want - time.Millisecond)
		if b.Allow() {
			t.Fatalf("trip %d: allowed %v early", i, time.Millisecond)
		}
		clk.Advance(time.Millisecond)
		if !b.Allow() {
			t.Fatalf("trip %d: probe refused at deadline", i)
		}
		b.Failure()
	}
}

func TestBreakerRelease(t *testing.T) {
	b, clk := testBreaker(1)
	b.Failure()
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// Trigger did not fire; without Release the breaker would be stuck
	// probing forever.
	b.Release()
	if !b.Allow() {
		t.Fatal("probe slot not released")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b, _ := testBreaker(-1)
	for i := 0; i < 10; i++ {
		if b.Failure() {
			t.Fatal("disabled breaker quarantined")
		}
	}
	if !b.Allow() || b.State() != Healthy {
		t.Fatal("disabled breaker must stay healthy")
	}
	if b.Failures() != 10 {
		t.Fatalf("failures = %d, want 10", b.Failures())
	}
}

func TestBreakerSeedProbation(t *testing.T) {
	b, _ := testBreaker(3)
	b.SeedProbation()
	if st := b.State(); st != Probation {
		t.Fatalf("state = %v, want probation", st)
	}
	if !b.Allow() {
		t.Fatal("seeded probation must admit an immediate probe")
	}
	if b.Allow() {
		t.Fatal("second probe admitted")
	}
	b.Success()
	if st := b.State(); st != Healthy {
		t.Fatalf("state = %v after successful probe", st)
	}
}

func TestHealthStrings(t *testing.T) {
	for _, h := range []Health{Healthy, Probation, Quarantined} {
		if ParseHealth(h.String()) != h {
			t.Fatalf("round trip failed for %v", h)
		}
	}
	if ParseHealth("garbage") != Healthy {
		t.Fatal("unknown health must parse as healthy")
	}
}
