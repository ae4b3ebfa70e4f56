package cq

import (
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/sql"
)

// metrics is the manager's bundle of obs handles, resolved once from
// Config.Metrics at construction. A nil *metrics (Config.Metrics == nil)
// keeps every hook down to a nil check.
type metrics struct {
	registered   *obs.Gauge   // cq.registered: live (non-terminated) CQs
	polls        *obs.Counter // cq.polls
	triggerEvals *obs.Counter // cq.trigger_evals: trigger conditions tested
	firesEvery   *obs.Counter // cq.trigger_fires.every
	firesUpdates *obs.Counter // cq.trigger_fires.updates
	firesEpsilon *obs.Counter // cq.trigger_fires.epsilon
	firesDefault *obs.Counter // cq.trigger_fires.default
	refreshes    *obs.Counter // cq.refreshes
	// refreshesEmpty counts the refreshes whose netted change has no row
	// (Section 5.2's irrelevant update, among others), private CQs and
	// template members alike: the share of cq.refreshes that allocate
	// nothing for their change.
	refreshesEmpty *obs.Counter   // cq.refreshes_empty
	refreshNS      *obs.Histogram // cq.refresh_ns
	refreshErrors  *obs.Counter   // cq.refresh.errors: per-CQ failures isolated by Poll
	roundNS        *obs.Histogram // cq.round_ns: wall time of one group-refresh round
	roundWorkers   *obs.Gauge     // cq.round_workers: worker pool size of the last round
	notifications  *obs.Counter   // cq.notifications: delivered to subscribers
	// Its pair, cq.notifications.dropped, is counted where notifications
	// can be dropped: in the buffering layer above (continual.Subscription).
	gcReclaimed *obs.Counter // cq.gc_reclaimed_rows
	terminated  *obs.Counter // cq.terminated: Stop conditions reached

	// Guard layer (overload protection and self-healing).
	refreshPanics   *obs.Counter // cq.refresh.panics: refreshes (or callbacks' refreshes) that panicked
	refreshTimeouts *obs.Counter // cq.refresh.timeouts: refreshes abandoned past the budget
	refreshLate     *obs.Counter // cq.refresh.late: abandoned refreshes that eventually finished
	quarantines     *obs.Counter // cq.quarantines: breaker open transitions
	quarantineSkips *obs.Counter // cq.quarantine.skips: rounds/dispatches skipped while quarantined
	// subscriberPanics counts subscribers detached because their callback
	// panicked.
	subscriberPanics *obs.Counter // cq.subscriber_panics
	// emergencyGC counts watermark-triggered garbage collections (the
	// store's pressure hook), as opposed to scheduled AutoGC.
	emergencyGC       *obs.Counter // cq.gc.emergency
	healthHealthy     *obs.Gauge   // cq.health.healthy
	healthProbation   *obs.Gauge   // cq.health.probation
	healthQuarantined *obs.Gauge   // cq.health.quarantined

	// Template sharing (Config.ShareTemplates).
	templates       *obs.Gauge   // cq.templates: live template groups
	templateMembers *obs.Gauge   // cq.template.members: CQs attached to a group
	sharedRegs      *obs.Counter // cq.template.shared_registrations
	templateSteps   *obs.Counter // cq.template.steps: shared plan evaluations
	templateStepNS  *obs.Histogram
	// Dispatch economics: rows are template delta rows fanned out,
	// candidates the members the index surfaced, matches the members
	// that verified — candidates/matches close to 1 is the O(matches)
	// goal.
	templateDispatchRows *obs.Counter // cq.template.dispatch_rows
	templateCandidates   *obs.Counter // cq.template.dispatch_candidates
	templateMatches      *obs.Counter // cq.template.dispatch_matches

	// Cascades (SELECT ... INTO): materializeCommits counts derived-
	// table commits (reconciliations that staged nothing commit nothing
	// and are not counted); materializeRows the operations they carried.
	materializeCommits *obs.Counter // cq.materialize.commits
	materializeRows    *obs.Counter // cq.materialize.rows

	traces *obs.TraceLog // cq.refresh spans
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		registered:     reg.Gauge("cq.registered"),
		polls:          reg.Counter("cq.polls"),
		triggerEvals:   reg.Counter("cq.trigger_evals"),
		firesEvery:     reg.Counter("cq.trigger_fires.every"),
		firesUpdates:   reg.Counter("cq.trigger_fires.updates"),
		firesEpsilon:   reg.Counter("cq.trigger_fires.epsilon"),
		firesDefault:   reg.Counter("cq.trigger_fires.default"),
		refreshes:      reg.Counter("cq.refreshes"),
		refreshesEmpty: reg.Counter("cq.refreshes_empty"),
		refreshNS:      reg.Histogram("cq.refresh_ns"),
		refreshErrors:  reg.Counter("cq.refresh.errors"),
		roundNS:        reg.Histogram("cq.round_ns"),
		roundWorkers:   reg.Gauge("cq.round_workers"),
		notifications:  reg.Counter("cq.notifications"),
		gcReclaimed:    reg.Counter("cq.gc_reclaimed_rows"),
		terminated:     reg.Counter("cq.terminated"),

		refreshPanics:     reg.Counter("cq.refresh.panics"),
		refreshTimeouts:   reg.Counter("cq.refresh.timeouts"),
		refreshLate:       reg.Counter("cq.refresh.late"),
		quarantines:       reg.Counter("cq.quarantines"),
		quarantineSkips:   reg.Counter("cq.quarantine.skips"),
		subscriberPanics:  reg.Counter("cq.subscriber_panics"),
		emergencyGC:       reg.Counter("cq.gc.emergency"),
		healthHealthy:     reg.Gauge("cq.health.healthy"),
		healthProbation:   reg.Gauge("cq.health.probation"),
		healthQuarantined: reg.Gauge("cq.health.quarantined"),

		templates:            reg.Gauge("cq.templates"),
		templateMembers:      reg.Gauge("cq.template.members"),
		sharedRegs:           reg.Counter("cq.template.shared_registrations"),
		templateSteps:        reg.Counter("cq.template.steps"),
		templateStepNS:       reg.Histogram("cq.template.step_ns"),
		templateDispatchRows: reg.Counter("cq.template.dispatch_rows"),
		templateCandidates:   reg.Counter("cq.template.dispatch_candidates"),
		templateMatches:      reg.Counter("cq.template.dispatch_matches"),

		materializeCommits: reg.Counter("cq.materialize.commits"),
		materializeRows:    reg.Counter("cq.materialize.rows"),

		traces: reg.Traces(),
	}
}

// fireCounter maps a trigger kind to its per-kind fire counter.
func (m *metrics) fireCounter(kind sql.TriggerKind) *obs.Counter {
	switch kind {
	case sql.TriggerEvery:
		return m.firesEvery
	case sql.TriggerUpdates:
		return m.firesUpdates
	case sql.TriggerEpsilon:
		return m.firesEpsilon
	default:
		return m.firesDefault
	}
}
