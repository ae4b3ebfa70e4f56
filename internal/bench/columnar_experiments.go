package bench

import (
	"fmt"
	"time"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/workload"
)

// E21 measures the engine's refresh step on the production-shaped hot
// path: prepared plans (compile once, operand replicas maintained across
// refreshes), windows pre-compacted by the storage layer, and the batch
// images the commit path and window cache hand every CQ of the round, so
// the measured step is exactly the per-refresh work a pushed refresh
// performs. Latency, heap allocations, and allocated bytes per step come
// from the same loop. The experiment was built as a row-vs-columnar
// comparison; the row evaluator lost every cell and was deleted
// (EXPERIMENTS.md E21 records its last numbers), so these rows are now the
// committed reference for the one evaluator. Each arm is checked for
// vacuity: it must record vector steps.
func E21(scale Scale) (*Table, error) {
	rounds := 2 + 2*scale.Iterations
	t := &Table{
		ID:    "E21",
		Title: "columnar refresh: typed kernels + pooled batch arena",
		Note: fmt.Sprintf("prepared refresh step; selection: |R| = %d stocks, %d-row update batches; join: |A|=|B|=|C| = %d; median of %d refreshes",
			scale.BaseRows, e21BatchRows(scale), scale.BaseRows/5, rounds),
		Header: []string{"workload", "|dW| rows", "us/refresh"},
	}
	workloads := []struct {
		name string
		run  func() (e21Arm, error)
	}{
		{"selection", func() (e21Arm, error) { return e21Select(scale, rounds) }},
		// The row keeps the name it had beside the forced truth-table row
		// ("3-way join", retired with that strategy), so BENCH_E21.json
		// diffs across the retirement compare like with like.
		{"3-way join (auto)", func() (e21Arm, error) { return e21Join(scale, rounds) }},
	}
	for _, w := range workloads {
		arm, err := w.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		t.Rows = append(t.Rows, []string{w.name, fmt.Sprint(arm.rows), us(arm.lat)})
		t.AllocsPerOp = append(t.AllocsPerOp, arm.allocs)
		t.BytesPerOp = append(t.BytesPerOp, arm.bytes)
	}
	return t, nil
}

// e21Arm is one workload's measurement.
type e21Arm struct {
	lat    time.Duration
	allocs uint64
	bytes  uint64
	rows   int // signed window rows per refresh (last round)
}

// e21BatchRows sizes the selection workload's per-refresh update batch:
// a 4% window, the regime where the paper's differential argument holds
// and per-row evaluation cost dominates the refresh.
func e21BatchRows(scale Scale) int {
	k := scale.BaseRows / 25
	if k < 1 {
		k = 1
	}
	return k
}

// e21Engine builds the measured engine with a private registry so the
// vacuity check reads this arm's counters only.
func e21Engine() (*dra.Engine, *obs.Registry) {
	reg := obs.NewRegistry()
	eng := dra.NewEngine()
	eng.Instrument(reg)
	return eng, reg
}

// e21Prep mirrors the refresh manager's window handling outside the
// measured region: windows arrive pre-compacted (the window cache folds
// them once per round for every CQ), and the context carries the
// prebuilt batch images the storage boundary shares across consumers.
// The returned context is what prep.Step sees.
func e21Prep(ctx *dra.Context, eng *dra.Engine) {
	if eng.CompactDeltas {
		for name, d := range ctx.Deltas {
			ctx.Deltas[name] = d.Compact()
		}
		ctx.Compacted = true
	}
	ctx.Batches = make(map[string]*batch.Batch, len(ctx.Deltas))
	for name, d := range ctx.Deltas {
		if b, ok := batch.FromDelta(nil, d); ok {
			ctx.Batches[name] = b
		}
	}
}

// e21Check fails an arm that never ran the columnar kernels.
func e21Check(reg *obs.Registry) error {
	if reg.Snapshot().Counter("dra.vector_steps") == 0 {
		return fmt.Errorf("arm took zero vector steps")
	}
	return nil
}

// e21Select drives the Example-2 selection over modify-heavy update
// batches and measures only the prepared refresh step.
func e21Select(scale Scale, rounds int) (e21Arm, error) {
	f, err := newEngineFixture(scale.BaseRows, 21, workload.DefaultMix, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		return e21Arm{}, err
	}
	eng, reg := e21Engine()
	prep, err := eng.Prepare(f.plan, dra.StrategyAuto)
	if err != nil {
		return e21Arm{}, err
	}
	defer prep.Close()
	k := e21BatchRows(scale)
	var arm e21Arm
	times := make([]time.Duration, 0, rounds)
	var allocs, bytes uint64
	for r := 0; r < rounds; r++ {
		if err := f.gen.Batch(k); err != nil {
			return e21Arm{}, err
		}
		// Version counters must be snapshotted before the refresh
		// timestamp is issued (see storage.ChangeCounts).
		versions := f.store.ChangeCounts()
		ts := f.store.Now()
		ctx, err := f.ctx()
		if err != nil {
			return e21Arm{}, err
		}
		ctx.Versions = versions
		e21Prep(ctx, eng)
		arm.rows = ctx.Deltas["stocks"].Len()
		var res *dra.Result
		lat, al, by, err := stopwatchAllocs(1, func() error {
			r, err := prep.Step(ctx, ts)
			res = r
			return err
		})
		if err != nil {
			return e21Arm{}, err
		}
		times = append(times, lat)
		allocs += al
		bytes += by
		f.prev = res.ApplyTo(f.prev)
		f.lastTS = ts
		f.store.CollectGarbage(f.lastTS)
	}
	if err := e21Check(reg); err != nil {
		return e21Arm{}, err
	}
	sortDurations(times)
	arm.lat = times[len(times)/2]
	arm.allocs = allocs / uint64(rounds)
	arm.bytes = bytes / uint64(rounds)
	return arm, nil
}

// e21Join drives the E5 3-way join with two changed operands per
// refresh, as a registered CQ runs it: the telescoping kernel over the
// operand replicas. Unmeasured warm-up steps build the replicas and bring
// them and the pooled buffers to their working size (the row's history
// was measured the same way).
func e21Join(scale Scale, rounds int) (e21Arm, error) {
	jf, err := newJoinFixture(scale.BaseRows/5, 21)
	if err != nil {
		return e21Arm{}, err
	}
	eng, reg := e21Engine()
	prep, err := eng.Prepare(jf.plan, dra.StrategyAuto)
	if err != nil {
		return e21Arm{}, err
	}
	defer prep.Close()
	const warm = 16
	var arm e21Arm
	times := make([]time.Duration, 0, rounds)
	var allocs, bytes uint64
	for r := -warm; r < rounds; r++ {
		if err := jf.touch(scale.BaseRows/100, "a", "c"); err != nil {
			return e21Arm{}, err
		}
		versions := jf.store.ChangeCounts()
		ts := jf.store.Now()
		ctx, err := jf.ctx()
		if err != nil {
			return e21Arm{}, err
		}
		ctx.Versions = versions
		e21Prep(ctx, eng)
		arm.rows = 0
		for _, d := range ctx.Deltas {
			arm.rows += d.Len()
		}
		var res *dra.Result
		lat, al, by, err := stopwatchAllocs(1, func() error {
			r, err := prep.Step(ctx, ts)
			res = r
			return err
		})
		if err != nil {
			return e21Arm{}, err
		}
		if r >= 0 {
			times = append(times, lat)
			allocs += al
			bytes += by
		}
		jf.prev = res.ApplyTo(jf.prev)
		jf.lastTS = ts
	}
	if err := e21Check(reg); err != nil {
		return e21Arm{}, err
	}
	sortDurations(times)
	arm.lat = times[len(times)/2]
	arm.allocs = allocs / uint64(rounds)
	arm.bytes = bytes / uint64(rounds)
	return arm, nil
}
