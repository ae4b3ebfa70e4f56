package guard

import (
	"math/rand"
	"sync"
	"time"
)

// Health is a breaker's externally visible state.
type Health int

const (
	// Healthy: refreshes run normally.
	Healthy Health = iota
	// Probation: the backoff deadline has passed (or durable recovery
	// seeded the breaker here); the next trigger admits exactly one
	// probe refresh. Success returns the CQ to Healthy, failure
	// re-quarantines with a doubled backoff.
	Probation
	// Quarantined: the CQ is skipped by poll and push routing until the
	// backoff deadline.
	Quarantined
)

func (h Health) String() string {
	switch h {
	case Probation:
		return "probation"
	case Quarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// ParseHealth maps the string form back (durable registry round-trip).
// Unknown strings are Healthy.
func ParseHealth(s string) Health {
	switch s {
	case "probation":
		return Probation
	case "quarantined":
		return Quarantined
	default:
		return Healthy
	}
}

// Policy tunes the guard layer. The zero value enables panic isolation
// and the default quarantine (3 consecutive failures, 1s..60s backoff)
// with no refresh deadline.
type Policy struct {
	// Budget bounds each refresh's evaluation, differential or complete
	// (trigger evaluation, the re-seed after a failed step and delivery
	// excluded). The step carries the deadline it sets (Deadline) and
	// fails with ErrBudgetExceeded at the first batch boundary past it;
	// the failure counts against the breaker. A CQ
	// whose step cannot finish inside the budget fails every attempt
	// until it is quarantined, and runs again only under a larger
	// budget. 0 sets no deadline and reads no clock.
	Budget time.Duration
	// FailureThreshold is the number of consecutive refresh failures
	// (errors, panics, or timeouts) that quarantines a CQ. 0 means the
	// default (3); negative disables quarantine entirely.
	FailureThreshold int
	// BackoffBase is the first quarantine interval; each further trip
	// doubles it, capped at BackoffMax — the same capped-exponential
	// shape as remote.Policy. Jitter is the randomized fraction of each
	// interval (0 means the default ±20%), decorrelating probe storms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Jitter      float64
	// Now overrides the clock (tests). Nil uses time.Now.
	Now func() time.Time
}

// Defaults match the PR 2 retry shape, stretched to quarantine scale.
const (
	DefaultFailureThreshold = 3
	DefaultBackoffBase      = time.Second
	DefaultBackoffMax       = time.Minute
	DefaultJitter           = 0.2
)

// WithDefaults resolves zero fields to their defaults.
func (p Policy) WithDefaults() Policy {
	if p.FailureThreshold == 0 {
		p.FailureThreshold = DefaultFailureThreshold
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = DefaultBackoffMax
	}
	if p.Jitter <= 0 {
		p.Jitter = DefaultJitter
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// backoff computes the quarantine interval after trip number trips
// (1-based): base·2^(trips-1) capped at max, jittered.
func (p Policy) backoff(trips int, rng *rand.Rand) time.Duration {
	d := p.BackoffBase
	for i := 1; i < trips; i++ {
		d *= 2
		if d >= p.BackoffMax {
			d = p.BackoffMax
			break
		}
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.Jitter > 0 && rng != nil {
		f := 1 + p.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// Breaker is a per-CQ circuit breaker. It is a self-locked leaf in the
// engine's lock order: every method only takes the breaker's own mutex,
// so it can be consulted while holding the manager lock, an instance
// lock, or (read-only, via Blocked) even the store lock.
type Breaker struct {
	pol Policy

	mu     sync.Mutex
	rng    *rand.Rand
	consec int  // consecutive failures
	trips  int  // quarantine entries so far (backoff exponent)
	open   bool // quarantined (possibly past the probe deadline)
	until  time.Time
	// probing marks that Allow admitted a probe that has not reported
	// an outcome yet; further Allows are refused so exactly one probe
	// runs at a time.
	probing bool
}

// NewBreaker builds a breaker with the policy's defaults resolved.
// seed decorrelates jitter across breakers without global randomness.
func NewBreaker(pol Policy, seed int64) *Breaker {
	return &Breaker{
		pol: pol.WithDefaults(),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Allow reports whether a refresh of this CQ may run now. While
// quarantined it returns false until the backoff deadline, then admits
// exactly one probe (further calls return false until the probe
// reports Success, Failure, or Release).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || b.pol.Now().Before(b.until) {
		return false
	}
	b.probing = true
	return true
}

// Blocked reports whether the CQ is currently quarantined and before
// its probe deadline. Unlike Allow it has no side effect, which is
// what makes it safe as the push router's routing gate (evaluated
// under the store's commit lock): routing a CQ whose probe is due is
// fine — Allow at dispatch still admits only one probe.
func (b *Breaker) Blocked() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open && !b.probing && b.pol.Now().Before(b.until)
}

// Release returns an Allow admission without an outcome: the trigger
// did not fire, so no refresh ran. Without this, an admitted probe
// whose trigger stayed quiet would strand the breaker in probing
// forever.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Success records a completed refresh: the breaker resets to Healthy.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.consec, b.trips, b.open, b.probing = 0, 0, false, false
	b.mu.Unlock()
}

// Failure records a failed refresh (error, panic, or timeout). It
// returns true when this failure put the CQ into quarantine — either
// the threshold trip from healthy or a failed probe re-opening it —
// so the caller can count quarantine transitions.
func (b *Breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	if b.pol.FailureThreshold < 0 {
		return false
	}
	now := b.pol.Now()
	if b.open {
		// Failed probe (or a late failure from an already-admitted
		// refresh): double down.
		b.probing = false
		b.trips++
		b.until = now.Add(b.pol.backoff(b.trips, b.rng))
		return true
	}
	if b.consec >= b.pol.FailureThreshold {
		b.open = true
		b.trips = 1
		b.until = now.Add(b.pol.backoff(1, b.rng))
		return true
	}
	return false
}

// SeedProbation puts a recovered breaker straight into probation: the
// CQ was unhealthy when its state was persisted, so it must prove
// itself with a probe rather than resume at full cadence — but there
// is no reason to sit out a stale backoff either, so the probe is due
// immediately.
func (b *Breaker) SeedProbation() {
	b.mu.Lock()
	b.open = true
	b.trips = 1
	b.consec = b.pol.FailureThreshold
	b.until = b.pol.Now()
	b.probing = false
	b.mu.Unlock()
}

// State reports the breaker's health.
func (b *Breaker) State() Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return Healthy
	}
	if b.probing || !b.pol.Now().Before(b.until) {
		return Probation
	}
	return Quarantined
}

// Failures reports the consecutive-failure count (CQState surface).
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consec
}
