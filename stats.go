package continual

import (
	"io"
	"net/http"

	"github.com/diorama/continual/internal/obs"
)

// LatencyStat summarizes a latency histogram over its recent window.
// Values are nanoseconds; Count is the total number of observations
// (including those that have slid out of the window).
type LatencyStat struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Stats is a point-in-time snapshot of the engine's metrics: counters
// and gauges from every subsystem (dra.*, cq.*, storage.*) plus latency
// summaries. Metric names are stable, dot-separated identifiers — e.g.
// dra.terms_evaluated, cq.refreshes, storage.delta_len.<table>.
type Stats struct {
	Counters  map[string]int64       `json:"counters"`
	Gauges    map[string]int64       `json:"gauges"`
	Latencies map[string]LatencyStat `json:"latencies"`
}

// Counter returns a counter by name (0 if absent).
func (s Stats) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge by name (0 if absent).
func (s Stats) Gauge(name string) int64 { return s.Gauges[name] }

// Stats returns the engine's current metrics snapshot.
func (db *DB) Stats() Stats { return statsFromSnapshot(db.metrics.Snapshot()) }

// statsFromSnapshot converts an obs snapshot to the public Stats shape
// (shared by DB.Stats and Mirror.Stats).
func statsFromSnapshot(snap obs.Snapshot) Stats {
	out := Stats{
		Counters:  snap.Counters,
		Gauges:    snap.Gauges,
		Latencies: make(map[string]LatencyStat, len(snap.Histograms)),
	}
	for name, h := range snap.Histograms {
		out.Latencies[name] = LatencyStat{
			Count:  h.Count,
			MeanNS: int64(h.Mean()),
			P50NS:  h.P50NS,
			P95NS:  h.P95NS,
			P99NS:  h.P99NS,
			MaxNS:  h.MaxNS,
		}
	}
	return out
}

// WriteStats renders the current metrics snapshot as an aligned text
// table (the same view `cqctl stats` prints).
func (db *DB) WriteStats(w io.Writer) { db.metrics.Snapshot().WriteTable(w) }

// StatsHandler returns an HTTP handler serving the engine's metrics and
// health: GET /stats returns the snapshot as JSON, GET /debug/traces the
// recent refresh spans, GET /healthz the HealthStatus (200 when ready,
// 503 when overloaded), and /debug/pprof/ the Go runtime's profiles
// (net/http/pprof). cmd/cqd mounts the same routes when -http is set.
func (db *DB) StatsHandler() http.Handler {
	return obs.MuxHealth(db.metrics, func() (bool, any) {
		h := db.Health()
		return h.Ready, h
	})
}
