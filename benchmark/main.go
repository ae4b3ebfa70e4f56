// Command benchmark is the repo's yardstick: four seeded workloads
// driven through the engine as continual.OpenWith / OpenDurable assemble
// it, every result checked against complete re-evaluation, end-to-end
// metrics from an untraced run and per-layer metrics from a traced run
// plus a layer replay. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//	benchmark [-seed N] [-out report.json]                     every workload, untraced then traced
//	benchmark -repeat N [-out runs.json]                       N untraced sets; medians, quartiles, spread
//	benchmark -compare old.json new.json                       better / same / worse / unresolved per metric
//	benchmark -spec                                            print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is the measured window of one run (BENCHMARK.json's
// run_seconds); the traced run splits it over its three passes.
const runSeconds = 15

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the contract result line")
		seed         = flag.Int64("seed", 1, "workload seed (1 for development, 2 held out)")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced run and layer replay")
		repeat       = flag.Int("repeat", 0, "run the untraced set N times and print medians, quartiles and spread")
		compare      = flag.Bool("compare", false, "compare two -repeat files: benchmark -compare old.json new.json")
		out          = flag.String("out", "", "also write the report as JSON to this file")
		outDir       = flag.String("dir", "benchmark/out", "directory for trace files and durable data")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	// Pinned so a run means the same on every host: the sandbox has 2
	// cores, and past 4 the refresh worker pool changes the workload.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *spec:
		err = printSpec()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: benchmark -compare old.json new.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *workloadName != "":
		err = contractRun(*workloadName, options{seed: *seed, seconds: *seconds, scale: 1, outDir: *outDir}, *trace != 0)
	case *repeat > 0:
		err = repeatRuns(*repeat, options{seed: *seed, seconds: *seconds, scale: 1, outDir: *outDir}, *out)
	default:
		err = fullReport(options{seed: *seed, seconds: *seconds, scale: 1, outDir: *outDir}, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// contractRun runs one workload once and prints, as the last line of
// standard output, the object the benchmark contract asks for. A run
// whose results are wrong still prints it (correct: false) and exits 1.
func contractRun(name string, o options, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(w, o)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractMetric{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	return nil
}

// machine describes where and on what a report was measured.
type machine struct {
	Cores      int                       `json:"cores"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	GoVersion  string                    `json:"go_version"`
	OS         string                    `json:"os"`
	Arch       string                    `json:"arch"`
	Commit     string                    `json:"commit"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Workloads  map[string]map[string]any `json:"workload_constants"`
}

func machineBlock(o options) machine {
	m := machine{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown", Seed: o.seed, Seconds: o.seconds,
		Workloads: map[string]map[string]any{},
	}
	// The driver's checkout is not a git repository; "unknown" is then
	// the honest answer.
	if outb, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(outb))
	}
	for _, w := range workloads {
		m.Workloads[w.name] = w.constants()
	}
	return m
}

// report is the typed output of the multi-run modes.
type report struct {
	Machine machine   `json:"machine"`
	Runs    []*result `json:"runs"`
}

func (r *report) write(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fullReport runs every workload untraced, then traced, and prints every
// metric by name with its unit.
func fullReport(o options, out string) error {
	rep := &report{Machine: machineBlock(o)}
	bad := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			run := runUntraced
			if traced {
				run = runTraced
			}
			res, err := run(w, o)
			if err != nil {
				return err
			}
			printResult(os.Stdout, res)
			rep.Runs = append(rep.Runs, res)
			if !res.Correct {
				bad++
			}
		}
	}
	b, err := json.MarshalIndent(rep.Machine, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("machine %s\n", b)
	if err := rep.write(out); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d runs had failed operations", bad)
	}
	return nil
}

func printResult(w *os.File, res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  %.0f s  inputs_sha %s  attempted %d  failed %d\n",
		res.Workload, kind, res.Seed, res.Seconds, res.InputsSHA, res.Attempted, res.Failed)
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		if m.Samples > 0 {
			fmt.Fprintf(w, "%-40s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "%-40s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
}

// printSpec prints BENCHMARK.json from the metric and workload tables.
func printSpec() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // bound 0 is omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
