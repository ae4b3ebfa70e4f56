package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/diorama/continual/internal/dra"
)

// E16 measures what a standing query gains over the paper's stateless
// Algorithm 1 on a repeated 3-way join workload, over identical update
// streams: unprepared Reevaluate compiles the plan and executes every
// unchanged operand's pre-state from the snapshot each refresh (the
// truth table); a Prepared compiles once, keeps a replica per operand
// and telescopes over them. Hits > 0 on the prepared arm confirms the
// replicas survive across refreshes instead of being rebuilt.
func E16(scale Scale) (*Table, error) {
	rounds := 2 + 2*scale.Iterations
	t := &Table{
		ID:    "E16",
		Title: "prepared (telescoping over replicas) vs unprepared Algorithm 1: 3-way join refresh",
		Note: fmt.Sprintf("|A|=|B|=|C| = %d, 10 modified tuples per refresh, %d refreshes",
			scale.BaseRows/5, rounds),
		Header: []string{"pipeline", "us/refresh", "allocs/refresh", "ix hits", "ix misses"},
	}
	for _, prepared := range []bool{false, true} {
		lat, allocs, hits, misses, err := runPreparedArm(scale, rounds, prepared)
		if err != nil {
			return nil, err
		}
		name := "reevaluate"
		if prepared {
			name = "prepared"
		}
		t.Rows = append(t.Rows, []string{
			name, us(lat), fmt.Sprint(allocs), fmt.Sprint(hits), fmt.Sprint(misses),
		})
	}
	return t, nil
}

// runPreparedArm drives `rounds` refreshes over a fresh join fixture and
// reports the median per-refresh latency, mean allocations per refresh
// (runtime.MemStats.Mallocs around the refresh call only), and the
// operand index cache totals.
func runPreparedArm(scale Scale, rounds int, prepared bool) (lat time.Duration, allocs uint64, hits, misses int, err error) {
	jf, err := newJoinFixture(scale.BaseRows/5, 16)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	engine := scale.NewEngine()
	var prep *dra.Prepared
	if prepared {
		prep, err = engine.Prepare(jf.plan, dra.StrategyAuto)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer prep.Close()
	}
	times := make([]time.Duration, 0, rounds)
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		if err := jf.touch(10, "a"); err != nil {
			return 0, 0, 0, 0, err
		}
		// Version counters must be snapshotted before the refresh
		// timestamp is issued (see storage.ChangeCounts).
		versions := jf.store.ChangeCounts()
		ts := jf.store.Now()
		ctx, err := jf.ctx()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ctx.Versions = versions
		var res *dra.Result
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if prepared {
			res, err = prep.Step(ctx, ts)
		} else {
			res, err = engine.Reevaluate(jf.plan, ctx, ts)
		}
		times = append(times, time.Since(start))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		mallocs += ms1.Mallocs - ms0.Mallocs
		hits += res.Stats.IndexCacheHits
		misses += res.Stats.IndexCacheMisses
		jf.prev = res.ApplyTo(jf.prev)
		jf.lastTS = ts
	}
	sortDurations(times)
	return times[len(times)/2], mallocs / uint64(rounds), hits, misses, nil
}
