package push

import "github.com/diorama/continual/internal/obs"

// metrics is the router's bundle of obs handles. A nil *metrics
// (Config.Metrics == nil) keeps every hook down to a nil check.
//
// The coalesce ratio — routed commit-touches per dispatch — is derived:
// push.dispatched_commits / push.dispatches. Above 1 means bursts are
// being merged, i.e. one refresh is covering several commits.
type metrics struct {
	registered *obs.Gauge   // push.registered: CQs in the operand index
	events     *obs.Counter // push.events: commits published by the store
	routed     *obs.Counter // push.routed: (commit x affected-CQ) routings
	coalesced  *obs.Counter // push.coalesced: routings merged into a queued entry
	dispatches *obs.Counter // push.dispatches: worker dequeues
	// dispatchedCommits sums the routings each dispatch covered;
	// dispatchedCommits/dispatches is the coalesce ratio.
	dispatchedCommits *obs.Counter // push.dispatched_commits
	refreshes         *obs.Counter // push.refreshes: dispatches that refreshed
	overflows         *obs.Counter // push.overflows: queue-full poll fallbacks
	errors            *obs.Counter // push.dispatch_errors
	queueDepth        *obs.Gauge   // push.queue_depth
	notifyNS          *obs.Histogram
	// shed counts commit events dropped whole because the store was in
	// degraded mode (soft watermark or worse): push→poll coalescing
	// forced by overload, as opposed to per-CQ queue overflow.
	shed *obs.Counter // push.shed
	// gateSkips counts routings vetoed by a CQ's quarantine gate.
	gateSkips *obs.Counter // push.gate_skips
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{
		events:            reg.Counter("push.events"),
		routed:            reg.Counter("push.routed"),
		coalesced:         reg.Counter("push.coalesced"),
		dispatches:        reg.Counter("push.dispatches"),
		dispatchedCommits: reg.Counter("push.dispatched_commits"),
		refreshes:         reg.Counter("push.refreshes"),
		overflows:         reg.Counter("push.overflows"),
		errors:            reg.Counter("push.dispatch_errors"),
		queueDepth:        reg.Gauge("push.queue_depth"),
		// notify_ns is the headline number: wall time from the oldest
		// coalesced commit's application to the notification leaving
		// the refresh — the quantity the poll interval used to bound.
		notifyNS:  reg.Histogram("push.notify_ns"),
		shed:      reg.Counter("push.shed"),
		gateSkips: reg.Counter("push.gate_skips"),
	}
	m.registered = reg.Gauge("push.registered")
	return m
}
