package dra

import (
	"sync/atomic"
	"time"

	"github.com/diorama/continual/internal/obs"
)

// spanSample thins per-step trace recording to one span every
// spanSample calls (the first call always records). Counters and the
// latency histogram still see every call; only the span — the expensive
// part of the hook (allocation plus a mutexed ring write) — is sampled,
// keeping the instrumented hot path within a few percent of
// uninstrumented (BenchmarkObsOverhead).
const spanSample = 16

// Metrics is the engine's bundle of obs handles, resolved once at
// construction. Result.Stats keeps the per-call numbers (used by the
// benchmark harness); Metrics accumulates them across calls for the
// /stats surface. With a nil *Metrics the engine is uninstrumented: the
// only cost in a step is one nil check.
type Metrics struct {
	Reevaluations *obs.Counter // dra.reevaluations
	Terms         *obs.Counter // dra.terms_evaluated
	DeltaRows     *obs.Counter // dra.delta_rows_consumed
	PreTuples     *obs.Counter // dra.pre_tuples_scanned
	Differential  *obs.Counter // dra.differential_path
	Fallbacks     *obs.Counter // dra.fallback_path
	Skips         *obs.Counter // dra.skipped
	IndexHits     *obs.Counter // dra.index_cache.hits
	IndexMisses   *obs.Counter // dra.index_cache.misses
	// VecSteps counts evaluations served by the columnar kernels: every
	// differential refresh that was not skipped, and every aggregate or
	// DISTINCT maintainer step.
	VecSteps *obs.Counter // dra.vector_steps
	// JoinProbeRows counts rows entering a join step of the columnar
	// kernels, JoinEmitRows the signed rows join terms emitted before
	// netting (emit/probe is the probe fan-out); ReplicaRows gauges the
	// live rows of the engine's arrangements, each counted once however
	// many plans share it — the join state size — and ReplicaBytes their
	// memory (batch.Table.Bytes plus the key indexes').
	JoinProbeRows *obs.Counter // dra.join.probe_rows
	JoinEmitRows  *obs.Counter // dra.join.emit_rows
	// ChangesRendered counts the columnar changes of selection refreshes
	// that a reader rendered into rows (Result.Delta is deferred): a
	// refresh whose rows nobody reads renders none.
	ChangesRendered *obs.Counter   // dra.changes_rendered
	ReplicaRows     *obs.Gauge     // dra.replica.rows
	ReplicaBytes    *obs.Gauge     // dra.replica.bytes
	Latency         *obs.Histogram // dra.reevaluate_ns
	PrepareNS       *obs.Histogram // dra.prepare_ns
	Traces          *obs.TraceLog  // per-step spans, sampled

	// AggRowsFolded counts the signed input rows the aggregate and
	// DISTINCT maintainers folded, AggGroupsTouched the groups those rows
	// reached, AggRowsEmitted the signed output rows rendered from them;
	// AggGroups gauges the groups all live maintainers hold in their
	// outputs — touched/groups is how delta-bound a refresh was.
	AggRowsFolded    *obs.Counter // dra.agg.rows_folded
	AggGroupsTouched *obs.Counter // dra.agg.groups_touched
	AggRowsEmitted   *obs.Counter // dra.agg.rows_emitted
	AggGroups        *obs.Gauge   // dra.agg.groups

	calls atomic.Uint64 // span sampling cursor
}

// startSpan begins a sampled per-step span; nil outside the
// sample.
func (m *Metrics) startSpan() *obs.Span {
	if m.calls.Add(1)%spanSample != 1 {
		return nil
	}
	return m.Traces.Start("dra.reevaluate")
}

// NewMetrics resolves the engine's instruments from a registry. A nil
// registry yields nil handles throughout — every update is a no-op —
// so callers can thread Config.Metrics straight through.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Reevaluations:   reg.Counter("dra.reevaluations"),
		Terms:           reg.Counter("dra.terms_evaluated"),
		DeltaRows:       reg.Counter("dra.delta_rows_consumed"),
		PreTuples:       reg.Counter("dra.pre_tuples_scanned"),
		Differential:    reg.Counter("dra.differential_path"),
		Fallbacks:       reg.Counter("dra.fallback_path"),
		Skips:           reg.Counter("dra.skipped"),
		IndexHits:       reg.Counter("dra.index_cache.hits"),
		IndexMisses:     reg.Counter("dra.index_cache.misses"),
		VecSteps:        reg.Counter("dra.vector_steps"),
		JoinProbeRows:   reg.Counter("dra.join.probe_rows"),
		JoinEmitRows:    reg.Counter("dra.join.emit_rows"),
		ChangesRendered: reg.Counter("dra.changes_rendered"),
		ReplicaRows:     reg.Gauge("dra.replica.rows"),
		ReplicaBytes:    reg.Gauge("dra.replica.bytes"),
		Latency:         reg.Histogram("dra.reevaluate_ns"),
		PrepareNS:       reg.Histogram("dra.prepare_ns"),
		Traces:          reg.Traces(),

		AggRowsFolded:    reg.Counter("dra.agg.rows_folded"),
		AggGroupsTouched: reg.Counter("dra.agg.groups_touched"),
		AggRowsEmitted:   reg.Counter("dra.agg.rows_emitted"),
		AggGroups:        reg.Gauge("dra.agg.groups"),
	}
}

// Instrument attaches the engine to a registry (nil leaves it
// uninstrumented). Call before the engine is shared.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.Metrics = NewMetrics(reg)
}

// observe folds one finished step into the cumulative instruments
// and records its span (span may be nil when tracing is off).
func (m *Metrics) observe(st Stats, span *obs.Span, elapsed time.Duration) {
	m.Reevaluations.Inc()
	m.Terms.Add(int64(st.Terms))
	m.DeltaRows.Add(int64(st.DeltaRows))
	m.PreTuples.Add(int64(st.PreTuplesScanned))
	m.IndexHits.Add(int64(st.IndexCacheHits))
	m.IndexMisses.Add(int64(st.IndexCacheMisses))
	m.JoinProbeRows.Add(int64(st.JoinProbeRows))
	m.JoinEmitRows.Add(int64(st.JoinEmitRows))
	switch {
	case st.Skipped:
		m.Skips.Inc()
	case st.FellBack:
		m.Fallbacks.Inc()
	default:
		m.Differential.Inc()
		m.VecSteps.Inc()
	}
	if span != nil {
		span.Fields = append(span.Fields,
			obs.Field{Key: "terms", Value: int64(st.Terms)},
			obs.Field{Key: "delta_rows", Value: int64(st.DeltaRows)},
			obs.Field{Key: "pre_tuples", Value: int64(st.PreTuplesScanned)},
		)
		if st.FellBack {
			span.SetField("fell_back", 1)
		}
		if st.Skipped {
			span.SetField("skipped", 1)
		}
		span.Finish()
	}
	m.Latency.Observe(elapsed)
}
