package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry snapshot as JSON — mount it at /stats.
// Works with a nil registry (serves an empty snapshot).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// TracesHandler serves the recent refresh traces as JSON — mount it at
// /debug/traces. Works with a nil log (serves an empty list).
func TracesHandler(l *TraceLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := l.Recent()
		if spans == nil {
			spans = []*Span{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
}

// Healthz serves a readiness check as JSON: HTTP 200 when ready, 503
// Service Unavailable when not, with the detail value as the body —
// the shape load balancers and process supervisors probe.
func Healthz(check func() (ready bool, detail any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ready, detail := check()
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(detail)
	})
}

// Mux returns an http.Handler with the daemon's observability routes:
// /stats and /debug/traces.
func Mux(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/stats", Handler(r))
	mux.Handle("/debug/traces", TracesHandler(r.Traces()))
	return mux
}

// MuxHealth is Mux plus /healthz backed by check, and the standard
// library's runtime profiles under /debug/pprof/ (net/http/pprof): the
// heap profile is how a heap figure such as the benchmark's
// heap_live_mb is attributed to the structures that hold it.
func MuxHealth(r *Registry, check func() (ready bool, detail any)) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/stats", Handler(r))
	mux.Handle("/debug/traces", TracesHandler(r.Traces()))
	mux.Handle("/healthz", Healthz(check))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
