// Package guard is the engine's overload-protection layer: panic
// isolation for refresh work (Protect, Recover), the refresh budget as
// a deadline the evaluation checks (Deadline, Overdue, Meter), and a per-CQ
// circuit breaker (Breaker) that quarantines continual queries failing
// repeatedly, with capped jittered exponential backoff between probes.
//
// The design leans on the paper's differential catch-up property
// (Section 4): a CQ can always resume from its last execution
// timestamp, so skipping a refresh — because the CQ is quarantined,
// its step stopped at its deadline, or the system is shedding load — is
// never a correctness loss, only deferred work. A step stopped partway
// leaves nothing to undo: the evaluator's position clears and its next
// step re-seeds. That is what makes aggressive protection safe.
package guard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// ErrBudgetExceeded is returned (wrapped) by a refresh whose step
// found its deadline passed (Overdue). The check runs at the
// evaluation's batch boundaries, so the step stops there and nothing of
// it runs on.
var ErrBudgetExceeded = errors.New("guard: refresh budget exceeded")

// Deadline is the deadline of a refresh that starts now under budget:
// the zero time, which is never overdue, when budget is not positive.
// Only a positive budget reads the clock.
func Deadline(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// Overdue returns ErrBudgetExceeded once deadline has passed, and nil
// before it. The zero deadline is never overdue and reads no clock.
func Overdue(deadline time.Time) error {
	if deadline.IsZero() || time.Now().Before(deadline) {
		return nil
	}
	return ErrBudgetExceeded
}

// CheckRows is how many rows an evaluation loop handles between two
// reads of its deadline (Meter): a few hundred microseconds of work, so
// a step stops soon after its budget without reading the clock per row.
const CheckRows = 4096

// Meter reads a loop's deadline once every CheckRows rows it counts.
// The zero Deadline never stops it and reads no clock.
type Meter struct {
	Deadline time.Time
	n        int
}

// Tick counts one row: every CheckRows-th returns Overdue(Deadline).
func (m *Meter) Tick() error {
	if m.n++; m.n < CheckRows {
		return nil
	}
	m.n = 0
	return Overdue(m.Deadline)
}

// PanicError wraps a recovered panic value so callers can distinguish
// "the refresh panicked" from ordinary evaluation errors.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: panic: %v", e.Value)
}

// Protect runs fn, converting a panic into a *PanicError.
func Protect(fn func() error) (err error) {
	defer Recover(&err)
	return fn()
}

// Recover is Protect's boundary for a function that defers it directly
// (defer guard.Recover(&err)): a panic unwinding that function becomes
// a *PanicError in *err. A hot path uses it to isolate a call without
// building the closure Protect takes.
func Recover(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}
