package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts a run emitted exactly the declared metrics, each
// once (a map cannot hold one twice), under well-formed names.
func checkNames(t *testing.T, res *result, declared []struct{ Name string }) {
	t.Helper()
	want := map[string]bool{}
	for _, d := range declared {
		if want[d.Name] {
			t.Errorf("BENCHMARK.json declares %s twice", d.Name)
		}
		want[d.Name] = true
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s: declared metric %s not emitted", res.Workload, d.Name)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", res.Workload, name)
		}
	}
}

// TestSmoke runs every workload at 1/100 scale, untraced and traced:
// the oracle must pass, the metrics must be the ones BENCHMARK.json
// lists, and the same seed must generate the same inputs.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, spec.Workloads[i].Name, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			o := options{seed: 1, seconds: 0.3, scale: 0.01, outDir: t.TempDir()}
			plain, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*result{plain, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.name, res.Traced, res.Attempted, res.Failed, res.Errors)
				}
			}
			checkNames(t, plain, spec.EndToEnd)
			checkNames(t, traced, spec.PerLayer)
			if plain.InputsSHA == "" || plain.InputsSHA != traced.InputsSHA {
				t.Errorf("same seed, different inputs: %q vs %q", plain.InputsSHA, traced.InputsSHA)
			}
			o.seed = 2
			other, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if other.InputsSHA == plain.InputsSHA {
				t.Errorf("seeds 1 and 2 generated the same inputs (%s)", plain.InputsSHA)
			}
			t.Logf("%s: %v", w.name, time.Since(start).Round(time.Millisecond))
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "x", Better: lower, Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		new  []float64
		want string
	}{
		{[]float64{100, 102, 98, 101, 100}, "same"},
		{[]float64{120, 121, 119, 120, 120}, "worse"},
		{[]float64{80, 81, 79, 80, 80}, "better"},
		{[]float64{60, 140, 100, 180, 30}, "unresolved"},
	} {
		if got, _ := verdict(d, steady, c.new); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.new, got, c.want)
		}
	}
	up := metricDef{Name: "y", Better: higher, Bound: 0.1}
	if got, _ := verdict(up, steady, []float64{80, 81, 79, 80, 80}); got != "worse" {
		t.Errorf("higher-is-better drop = %s, want worse", got)
	}
}
