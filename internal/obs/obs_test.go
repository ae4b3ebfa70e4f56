package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("x.level")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c")
	l := r.Traces()
	c.Inc()
	c.Add(3)
	g.Set(9)
	h.Observe(time.Millisecond)
	sp := l.Start("refresh")
	sp.SetField("rows", 1)
	sp.Child("child").Finish()
	sp.Finish()
	if c.Value() != 0 || g.Value() != 0 || h.Stat().Count != 0 || l.Len() != 0 {
		t.Fatal("nil handles must be inert")
	}
	snap := r.Snapshot()
	if !snap.Empty() {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	st := h.Stat()
	if st.Count != 100 {
		t.Fatalf("count = %d, want 100", st.Count)
	}
	if st.Max() != 100*time.Microsecond {
		t.Fatalf("max = %s, want 100µs", st.Max())
	}
	if p50 := st.P50(); p50 < 45*time.Microsecond || p50 > 55*time.Microsecond {
		t.Fatalf("p50 = %s, want ~50µs", p50)
	}
	if p95 := st.P95(); p95 < 90*time.Microsecond || p95 > 100*time.Microsecond {
		t.Fatalf("p95 = %s, want ~95µs", p95)
	}
	if st.P99NS < st.P95NS || st.P95NS < st.P50NS {
		t.Fatalf("quantiles not monotone: %+v", st)
	}
	if mean := st.Mean(); mean < 45*time.Microsecond || mean > 55*time.Microsecond {
		t.Fatalf("mean = %s, want ~50.5µs", mean)
	}
}

func TestHistogramWindowSlides(t *testing.T) {
	h := NewHistogram()
	// Fill the whole window with 1µs, then overwrite it with 1ms: the
	// quantiles must reflect only the recent window.
	for i := 0; i < histWindow; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < histWindow; i++ {
		h.Observe(time.Millisecond)
	}
	st := h.Stat()
	if st.Count != 2*histWindow {
		t.Fatalf("count = %d, want %d", st.Count, 2*histWindow)
	}
	if st.P50() != time.Millisecond {
		t.Fatalf("p50 = %s, want 1ms after window slid", st.P50())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
				_ = h.Stat()
			}
		}()
	}
	wg.Wait()
	if got := h.Stat().Count; got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(4)
	for i := 0; i < 6; i++ {
		sp := l.Start("refresh")
		sp.SetField("seq", int64(i))
		child := sp.Child("dra.reevaluate")
		child.SetField("terms", int64(i*2))
		child.Finish()
		sp.Finish()
	}
	if l.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", l.Len())
	}
	recent := l.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d spans, want 4", len(recent))
	}
	// Newest first: seq 5, 4, 3, 2.
	if recent[0].Fields[0].Value != 5 || recent[3].Fields[0].Value != 2 {
		t.Fatalf("ring order wrong: first=%v last=%v", recent[0].Fields, recent[3].Fields)
	}
	if len(recent[0].Children) != 1 || recent[0].Children[0].Name != "dra.reevaluate" {
		t.Fatalf("child span missing: %+v", recent[0])
	}
	if recent[0].Duration < 0 {
		t.Fatal("finished span must have a duration")
	}
}

// TestTraceLogReusesEvictedSpans: once the ring is full, Start hands
// back the memory of the root the ring evicted last, and a copy Recent
// returned before stays as it was.
func TestTraceLogReusesEvictedSpans(t *testing.T) {
	l := NewTraceLog(1)
	a := l.Start("a")
	a.SetField("n", 1)
	a.Finish()
	kept := l.Recent()[0]
	b := l.Start("b")
	b.Finish() // evicts a
	c := l.Start("c")
	if c != a {
		t.Fatal("Start did not reuse the span the ring evicted")
	}
	if c.Name != "c" || len(c.Fields) != 0 || len(c.Children) != 0 || c.Duration != 0 {
		t.Fatalf("a reused span must start fresh: %+v", c)
	}
	c.SetField("n", 3)
	c.Finish()
	if kept == a || kept.Name != "a" || len(kept.Fields) != 1 || kept.Fields[0].Value != 1 {
		t.Fatalf("a span Recent returned changed when its original was reused: %+v", kept)
	}
}

// TestTraceLogConcurrentRecycle: writers Start and Finish roots while
// readers call Recent, the ring wrapping a hundred times. Every span a
// reader got stays exactly as it read it, however often the spans it
// was copied from are reused, and /debug/traces keeps its JSON shape.
// Run it under -race.
func TestTraceLogConcurrentRecycle(t *testing.T) {
	const capacity, writers, perWriter = 8, 4, 200 // 800 roots: the ring wraps 100 times
	l := NewTraceLog(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := l.Start("cq.refresh")
				sp.SetField("writer", int64(w))
				sp.SetField("seq", int64(i))
				sp.Finish()
			}
		}(w)
	}
	type read struct {
		spans []*Span
		json  string
	}
	reads := make([][]read, 2)
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := range reads {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				spans := l.Recent()
				for _, sp := range spans {
					if sp.Name != "cq.refresh" || len(sp.Fields) != 2 || sp.Fields[0].Key != "writer" || sp.Fields[1].Key != "seq" {
						t.Errorf("torn span: %+v", sp)
						return
					}
				}
				js, err := json.Marshal(spans)
				if err != nil {
					t.Error(err)
					return
				}
				reads[r] = append(reads[r], read{spans, string(js)})
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	for r, rs := range reads {
		for i, rd := range rs {
			js, err := json.Marshal(rd.spans)
			if err != nil {
				t.Fatal(err)
			}
			if string(js) != rd.json {
				t.Fatalf("reader %d, read %d changed after the ring wrapped:\n got %s\nwant %s", r, i, js, rd.json)
			}
		}
	}

	srv := httptest.NewServer(TracesHandler(l))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != capacity {
		t.Fatalf("/debug/traces served %d spans, want %d", len(spans), capacity)
	}
	for _, sp := range spans {
		if len(sp) != 4 || sp["name"] != "cq.refresh" || sp["start"] == nil || sp["duration_ns"] == nil {
			t.Fatalf("/debug/traces span has keys %v, want name, start, duration_ns, fields", sp)
		}
		fields, ok := sp["fields"].([]any)
		if !ok || len(fields) != 2 {
			t.Fatalf("/debug/traces span fields = %v", sp["fields"])
		}
		for _, f := range fields {
			if m, ok := f.(map[string]any); !ok || len(m) != 2 || m["key"] == nil || m["value"] == nil {
				t.Fatalf("/debug/traces field = %v, want key and value", f)
			}
		}
	}
}

func TestSnapshotAndWriteTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("dra.terms_evaluated").Add(7)
	r.Gauge("storage.delta_len").Set(3)
	r.Histogram("cq.refresh_ns").Observe(2 * time.Millisecond)
	snap := r.Snapshot()
	if snap.Counter("dra.terms_evaluated") != 7 || snap.Gauge("storage.delta_len") != 3 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	if snap.Histograms["cq.refresh_ns"].Count != 1 {
		t.Fatalf("histogram missing from snapshot: %+v", snap)
	}
	var sb strings.Builder
	snap.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"counters", "dra.terms_evaluated", "7", "gauges", "storage.delta_len", "latencies", "cq.refresh_ns", "p95="} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("cq.refreshes").Add(2)
	sp := r.Traces().Start("cq.refresh")
	sp.SetField("rows", 5)
	sp.Finish()

	srv := httptest.NewServer(Mux(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("cq.refreshes") != 2 {
		t.Fatalf("/stats counter = %d, want 2", snap.Counter("cq.refreshes"))
	}

	resp2, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var spans []*Span
	if err := json.NewDecoder(resp2.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "cq.refresh" {
		t.Fatalf("/debug/traces = %+v, want one cq.refresh span", spans)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.Histogram("c")
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
}
