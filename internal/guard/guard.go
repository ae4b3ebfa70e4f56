// Package guard is the engine's overload-protection layer: panic
// isolation and deadline enforcement for refresh work (Protect,
// Attempt), and a per-CQ circuit breaker (Breaker) that quarantines
// continual queries failing repeatedly, with capped jittered
// exponential backoff between probes.
//
// The design leans on the paper's differential catch-up property
// (Section 4): a CQ can always resume from its last execution
// timestamp, so skipping a refresh — because the CQ is quarantined,
// its budget expired, or the system is shedding load — is never a
// correctness loss, only deferred work. That is what makes aggressive
// protection safe.
package guard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// ErrBudgetExceeded is returned (wrapped) by Attempt when the guarded
// function does not complete within its budget. The work itself is NOT
// cancelled — Go cannot preempt a running goroutine — it is abandoned:
// the late completion is reported through Attempt's late callback.
var ErrBudgetExceeded = errors.New("guard: refresh budget exceeded")

// PanicError wraps a recovered panic value so callers can distinguish
// "the refresh panicked" from ordinary evaluation errors.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: panic: %v", e.Value)
}

// Protect runs fn, converting a panic into a *PanicError. This is the
// zero-overhead isolation boundary used when no deadline is configured.
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

// Attempt runs fn under a budget with panic isolation.
//
// With budget <= 0 it reduces to Protect: fn runs inline on the
// caller's goroutine and only panics are intercepted — no goroutine,
// no timer, nothing on the hot path.
//
// With a positive budget, fn runs on a child goroutine. If it finishes
// in time, its (recovered) error is returned. If the budget expires
// first, Attempt returns an error wrapping ErrBudgetExceeded and
// abandons the child: whatever locks fn holds stay held until it
// finishes on its own, at which point the late callback (if non-nil)
// receives its final error on the child goroutine. Callers must
// therefore treat a budget error as "outcome unknown, state will
// settle later" — the cq manager's monotonicity guard makes that safe.
func Attempt(budget time.Duration, fn func() error, late func(error)) error {
	if budget <= 0 {
		return Protect(fn)
	}
	done := make(chan error, 1)
	// guarded: the child reports through the buffered channel and dies;
	// Protect is its recover boundary.
	go func() {
		done <- Protect(fn)
	}()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
	}
	// Budget expired. Reap the late completion so the child's result is
	// observed (metrics) and the channel never leaks a blocked sender —
	// the buffer makes the send non-blocking, but the outcome matters.
	// guarded: the reaper only receives and invokes the late callback,
	// which is metrics-only by contract.
	go func() {
		err := <-done
		if late != nil {
			_ = Protect(func() error { late(err); return nil })
		}
	}()
	return fmt.Errorf("%w (budget %v)", ErrBudgetExceeded, budget)
}
