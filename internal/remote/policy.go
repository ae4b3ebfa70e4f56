package remote

import (
	"errors"
	"math/rand"
	"net"
	"time"
)

// ErrClientClosed is returned by requests on a client after Close.
var ErrClientClosed = errors.New("remote: client closed")

// Policy is the client's fault-tolerance configuration: deadlines for
// dialing and per-request I/O, and a capped exponential backoff with
// jitter governing retries. Every op only reads (OpCheckpoint is
// idempotent), so each is retried transparently up to MaxAttempts,
// reconnecting as needed.
type Policy struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// IOTimeout bounds each request round trip (applied as a conn
	// deadline covering send and receive). 0 disables deadlines.
	IOTimeout time.Duration
	// MaxAttempts is the total number of tries per operation (1 = no
	// retry). Values < 1 are treated as 1.
	MaxAttempts int
	// BackoffBase is the pause before the first retry; each further
	// retry doubles it, capped at BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter is the fraction of each backoff randomized (0.2 means
	// ±20%), decorrelating retry storms across clients.
	Jitter float64
	// Dialer overrides how connections are established (fault-injection
	// harnesses pass faults.Injector.Dialer). Nil dials plain TCP with
	// DialTimeout.
	Dialer func(addr string) (net.Conn, error)
	// Sleep overrides how backoff pauses are taken (tests capture the
	// schedule). Nil uses time.Sleep.
	Sleep func(time.Duration)
}

// DefaultPolicy is the production configuration: a few quick retries
// with capped exponential backoff.
func DefaultPolicy() Policy {
	return Policy{
		DialTimeout: 5 * time.Second,
		IOTimeout:   15 * time.Second,
		MaxAttempts: 4,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		Jitter:      0.2,
	}
}

// backoff computes the pause before retry number retry (1-based),
// drawing jitter from rng.
func (p Policy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.BackoffBase
	if d <= 0 {
		return 0
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if p.BackoffMax > 0 && d >= p.BackoffMax {
			d = p.BackoffMax
			break
		}
	}
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.Jitter > 0 && rng != nil {
		// Scale by a factor in [1-Jitter, 1+Jitter].
		f := 1 + p.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// String names an op for error messages and logs.
func (o Op) String() string {
	switch o {
	case OpListTables:
		return "ListTables"
	case OpSchema:
		return "Schema"
	case OpSnapshot:
		return "Snapshot"
	case OpDeltaSince:
		return "DeltaSince"
	case OpQuery:
		return "Query"
	case OpNow:
		return "Now"
	case OpStats:
		return "Stats"
	case OpCheckpoint:
		return "Checkpoint"
	case OpDeps:
		return "Deps"
	default:
		return "Op?"
	}
}
