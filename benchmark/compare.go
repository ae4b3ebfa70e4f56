package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// repeatRuns runs the whole untraced set n times (workloads interleaved,
// so drift over the session spreads over all of them) and prints, per
// workload and end-to-end metric, the median, quartiles and spread.
func repeatRuns(n int, o options, out string) error {
	rep := &report{Machine: machineBlock(o)}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			res, err := runUntraced(w, o)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s failed=%d\n", i+1, n, w.name, res.Failed)
			rep.Runs = append(rep.Runs, res)
		}
	}
	if err := rep.write(out); err != nil {
		return err
	}
	failed := 0
	fmt.Printf("%-16s %-20s %14s %14s %14s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := rep.values(w.name, d.Name)
			q1, q3 := quartiles(vs)
			fmt.Printf("%-16s %-20s %14.4f %14.4f %14.4f %7.2f%%  %s\n", w.name, d.Name, median(vs), q1, q3, 100*spread(vs), d.Unit)
		}
	}
	for _, r := range rep.Runs {
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed across the runs", failed)
	}
	return nil
}

// values lists one end-to-end metric of one workload over a report's
// untraced runs, in run order.
func (r *report) values(workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Traced {
			if m, ok := run.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict applies one metric's bound to the medians and spreads of two
// sets of runs. The change is worse when the new median is past the old
// one by more than the bound, in the metric's bad direction; better when
// it is past it by more than the bound in the good direction; unresolved
// when either side's own spread exceeds the bound, so the medians cannot
// carry the call.
func verdict(d metricDef, old, new []float64) (string, float64) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return "unresolved", 0
	}
	change := (mn - mo) / mo // positive: the value grew
	if d.Better == higher {
		change = -change // positive: it got worse
	}
	switch {
	case spread(old) > d.Bound || spread(new) > d.Bound:
		return "unresolved", change
	case change > d.Bound:
		return "worse", change
	case change < -d.Bound:
		return "better", change
	default:
		return "same", change
	}
}

// compareFiles prints one row per workload and end-to-end metric and
// fails when any is worse, when the two sides were fed different inputs,
// or when either side has failed operations.
func compareFiles(oldPath, newPath string) error {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	sha := func(r *report, workload string) string {
		for _, run := range r.Runs {
			if run.Workload == workload {
				return run.InputsSHA
			}
		}
		return ""
	}
	worse, unresolved := 0, 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "spr.old", "spr.new", "verdict")
	for _, w := range workloads {
		if a, b := sha(oldRep, w.name), sha(newRep, w.name); a != b {
			return fmt.Errorf("%s: inputs differ (inputs_sha %s vs %s): not comparable", w.name, a, b)
		}
		for _, d := range endToEnd {
			ov, nv := oldRep.values(w.name, d.Name), newRep.values(w.name, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				return fmt.Errorf("%s %s: missing on one side", w.name, d.Name)
			}
			v, change := verdict(d, ov, nv)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%%  %s\n",
				w.name, d.Name, median(ov), median(nv), 100*change, 100*spread(ov), 100*spread(nv), v)
		}
	}
	failed := 0
	for _, r := range append(oldRep.Runs, newRep.Runs...) {
		failed += r.Failed
	}
	fmt.Printf("worse %d  unresolved %d  failed operations %d\n", worse, unresolved, failed)
	if worse > 0 || failed > 0 {
		return fmt.Errorf("%d metrics worse, %d failed operations", worse, failed)
	}
	return nil
}
