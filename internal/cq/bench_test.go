package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// roundBench is the fixture of BenchmarkRefreshRound: a 4,096-row quotes
// table and 64 instrumented selection CQs over it, each with a
// subscriber, refreshed by Poll or by push dispatch on one worker (so the
// allocation count does not depend on the machine's core count).
type roundBench struct {
	store *storage.Store
	mgr   *Manager
	reg   *obs.Registry
	tids  []relation.TID
	rng   *rand.Rand
}

const roundBenchRows = 4096

func quotesRow(rng *rand.Rand, id int) []relation.Value {
	return []relation.Value{
		relation.Int(int64(id)), relation.Str(fmt.Sprintf("S%06d", id)),
		relation.Int(int64(rng.Intn(128))),
		relation.Float(float64(rng.Intn(1_000_000)) / 1000), relation.Int(int64(rng.Intn(10_000))),
	}
}

func newRoundBench(b *testing.B, push bool) *roundBench {
	b.Helper()
	rb := newQuotesBench(b, Config{UseDRA: true, AutoGC: true, Push: push, Parallelism: 1})
	// Four shapes, sixteen constants each: thresholds, ranges, and two
	// conjunctions over two columns.
	var queries []string
	for i := 0; i < 16; i++ {
		queries = append(queries,
			fmt.Sprintf("SELECT * FROM quotes WHERE px > %d", 990-10*i),
			fmt.Sprintf("SELECT sym, px FROM quotes WHERE px > %d AND px < %d", 20*i, 20*i+20+10*i),
			fmt.Sprintf("SELECT id, px, vol FROM quotes WHERE px > %d AND sector < %d", 100+20*i, 8+i),
			fmt.Sprintf("SELECT id, sym, vol FROM quotes WHERE vol < %d AND px > %d", 9500-300*i, 980-20*i))
	}
	rb.register(b, queries)
	return rb
}

// newQuotesBench builds the quotes table and an instrumented manager
// over it with cfg (its Metrics set here).
func newQuotesBench(b *testing.B, cfg Config) *roundBench {
	b.Helper()
	rb := &roundBench{store: storage.NewStore(), rng: rand.New(rand.NewSource(1))}
	if err := rb.store.CreateTable("quotes", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "sector", Type: relation.TInt},
		relation.Column{Name: "px", Type: relation.TFloat},
		relation.Column{Name: "vol", Type: relation.TInt},
	)); err != nil {
		b.Fatal(err)
	}
	tx := rb.store.Begin()
	for i := 0; i < roundBenchRows; i++ {
		tid, err := tx.Insert("quotes", quotesRow(rb.rng, i))
		if err != nil {
			b.Fatal(err)
		}
		rb.tids = append(rb.tids, tid)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	rb.reg = obs.NewRegistry()
	rb.store.Instrument(rb.reg)
	cfg.Metrics = rb.reg
	rb.mgr = NewManagerConfig(rb.store, cfg)
	return rb
}

// register registers the queries as q00, q01, ..., each notifying
// empty refreshes too and with a subscriber.
func (rb *roundBench) register(b *testing.B, queries []string) {
	b.Helper()
	for i, q := range queries {
		name := fmt.Sprintf("q%02d", i)
		if _, err := rb.mgr.Register(Def{Name: name, Query: q, NotifyEmpty: true}); err != nil {
			b.Fatal(err)
		}
		if _, err := rb.mgr.SubscribeFunc(name, func(Notification, bool) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// commit modifies 64 random quotes in one transaction: a new price and
// volume, identity columns kept.
func (rb *roundBench) commit(b *testing.B) {
	tx := rb.store.Begin()
	for i := 0; i < 64; i++ {
		id := rb.rng.Intn(len(rb.tids))
		if err := tx.Update("quotes", rb.tids[id], quotesRow(rb.rng, id)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// push commits and waits for the dispatches the commit fanned out.
func (rb *roundBench) push(b *testing.B) {
	rb.commit(b)
	rb.mgr.FlushPush()
}

func (rb *roundBench) poll(b *testing.B) {
	if n, err := rb.mgr.Poll(); err != nil || n != 64 {
		b.Fatalf("poll refreshed %d CQs (err %v), want 64", n, err)
	}
}

// BenchmarkRefreshRound measures the refresh of 64 selection CQs over one
// shared 64-row window: the round driver, the window and its columnar
// image shared by the round, and per CQ the trigger test, the step
// context, the evaluator's step, the result maintenance, the refresh
// span and the notification delivered to a subscriber. These three arms
// are gated by scripts/check-allocs.sh:
//
//	round  one Poll; the commit runs with the timer stopped. Its
//	       allocs/op is what a refresh allocates beyond its window's own
//	       rows.
//	push   one commit plus FlushPush, which fans the commit out to one
//	       dispatch per CQ; every dispatch at the commit's timestamp
//	       reads the same window cache.
//	members  one commit plus FlushPush to a template group of 200
//	       members, each selecting one quote by id: one group step,
//	       its change dispatched to the few members it matches (about
//	       three of 200 per commit), and 200 member refreshes, nearly
//	       all of them empty.
//
// Parallelism is E15 (benchParallelism): one Poll of 100 CQs over 4
// tables on 1, 2, 4 and 8 workers. It is not gated.
func BenchmarkRefreshRound(b *testing.B) {
	b.Run("round", func(b *testing.B) {
		rb := newRoundBench(b, false)
		defer func() { _ = rb.mgr.Close() }()
		for i := 0; i < 3; i++ {
			rb.commit(b) // warm-up: pools and reused buffers reach window size
			rb.poll(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rb.commit(b)
			b.StartTimer()
			rb.poll(b)
		}
	})
	b.Run("push", func(b *testing.B) {
		rb := newRoundBench(b, true)
		defer func() { _ = rb.mgr.Close() }()
		for i := 0; i < 3; i++ {
			rb.push(b) // warm-up, as in the round arm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.push(b)
		}
		b.StopTimer()
		if n := rb.reg.Snapshot().Counter("cq.refreshes"); n != int64(64*(3+b.N)) {
			b.Fatalf("%d refreshes over %d commits, want 64 per commit", n, 3+b.N)
		}
	})
	b.Run("members", func(b *testing.B) {
		rb := newQuotesBench(b, Config{UseDRA: true, AutoGC: true, Push: true, ShareTemplates: true, Parallelism: 1})
		defer func() { _ = rb.mgr.Close() }()
		const members = 200
		var queries []string
		for i := 0; i < members; i++ {
			queries = append(queries, fmt.Sprintf("SELECT * FROM quotes WHERE id = %d", 20*i))
		}
		rb.register(b, queries)
		if n := rb.reg.Snapshot().Gauge("cq.templates"); n != 1 {
			b.Fatalf("%d template groups, want 1", n)
		}
		for i := 0; i < 3; i++ {
			rb.push(b) // warm-up, as in the round arm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.push(b)
		}
		b.StopTimer()
		snap := rb.reg.Snapshot()
		if n := snap.Counter("cq.refreshes"); n != int64(members*(3+b.N)) {
			b.Fatalf("%d refreshes over %d commits, want %d per commit", n, 3+b.N, members)
		}
		b.ReportMetric(float64(snap.Counter("cq.refreshes_empty"))/float64(snap.Counter("cq.refreshes")), "empty_share")
	})
	b.Run("Parallelism", func(b *testing.B) {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchParallelism(b, workers) })
		}
	})
}

// benchParallelism is E15, the Parallelism arm of BenchmarkRefreshRound:
// one Poll of 100 selection CQs over 4 tables on a pool of workers, a
// 125-row insert batch committed to every table before it with the
// timer stopped. The speedup over one worker is bounded by
// min(workers, GOMAXPROCS); cache_hit_% is the share of window requests
// the round's shared window cache served, 96 by construction (one miss
// per table).
func benchParallelism(b *testing.B, workers int) {
	const tables, cqs = 4, 100
	reg := obs.NewRegistry()
	store := storage.NewStore()
	store.Instrument(reg)
	rng := rand.New(rand.NewSource(1))
	insert := func(n int) {
		for t := 0; t < tables; t++ {
			tx := store.Begin()
			for i := 0; i < n; i++ {
				if _, err := tx.Insert(fmt.Sprintf("s%d", t), []relation.Value{
					relation.Str(fmt.Sprintf("S%06d", rng.Intn(1_000_000))), relation.Float(float64(rng.Intn(200))),
				}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for t := 0; t < tables; t++ {
		if err := store.CreateTable(fmt.Sprintf("s%d", t), relation.MustSchema(
			relation.Column{Name: "name", Type: relation.TString},
			relation.Column{Name: "price", Type: relation.TFloat},
		)); err != nil {
			b.Fatal(err)
		}
	}
	insert(2500)
	mgr := NewManagerConfig(store, Config{UseDRA: true, AutoGC: true, Parallelism: workers, Metrics: reg})
	defer func() { _ = mgr.Close() }()
	for i := 0; i < cqs; i++ {
		q := fmt.Sprintf("SELECT * FROM s%d WHERE price > %d", i%tables, 25*(1+i%4))
		if _, err := mgr.Register(Def{Name: fmt.Sprintf("cq%d", i), Query: q}); err != nil {
			b.Fatal(err)
		}
	}
	before := reg.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		insert(125)
		b.StartTimer()
		if n, err := mgr.Poll(); err != nil || n != cqs {
			b.Fatalf("poll refreshed %d CQs (err %v), want %d", n, err, cqs)
		}
	}
	b.StopTimer()
	snap := reg.Snapshot()
	hits := snap.Counter("storage.window_cache.hits") - before.Counter("storage.window_cache.hits")
	misses := snap.Counter("storage.window_cache.misses") - before.Counter("storage.window_cache.misses")
	b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache_hit_%")
}

// BenchmarkTemplateTenants is E20: N `price > X` tenants over a 400-row
// quotes table, X spread over the top price quartile, registered as
// private plans (unshared) or as members of one template group (shared).
// Each op is one round: 100 price jitters below every threshold and 2
// spike rows alternating between the quiet zone and the threshold band,
// committed with the timer stopped, then one Poll. It reports the
// registration rate (reg/s, untimed) and, for the shared arm, template
// steps, dispatch matches per round and dispatch candidates per match.
// The 100k and 1M points skip under -short.
func BenchmarkTemplateTenants(b *testing.B) {
	for _, pt := range []struct {
		n      int
		shared bool
	}{{10_000, false}, {10_000, true}, {100_000, false}, {100_000, true}, {1_000_000, true}} {
		arm := "unshared"
		if pt.shared {
			arm = "shared"
		}
		b.Run(fmt.Sprintf("%s/N=%d", arm, pt.n), func(b *testing.B) {
			if testing.Short() && pt.n > 10_000 {
				b.Skip("100k and 1M tenants skip under -short")
			}
			const rows, priceMax = 400, 200.0
			const quiet = 0.7 * priceMax // below every member threshold
			rng := rand.New(rand.NewSource(int64(pt.n)))
			store := storage.NewStore()
			if err := store.CreateTable("quotes", relation.MustSchema(
				relation.Column{Name: "name", Type: relation.TString},
				relation.Column{Name: "price", Type: relation.TFloat},
			)); err != nil {
				b.Fatal(err)
			}
			tids := make([]relation.TID, rows)
			prices := make([]float64, rows)
			set := func(tx *storage.Tx, i int, p float64) {
				prices[i] = p
				if err := tx.Update("quotes", tids[i], []relation.Value{relation.Str(fmt.Sprintf("Q%05d", i)), relation.Float(p)}); err != nil {
					b.Fatal(err)
				}
			}
			tx := store.Begin()
			for i := range tids {
				prices[i] = rng.Float64() * quiet
				tid, err := tx.Insert("quotes", []relation.Value{relation.Str(fmt.Sprintf("Q%05d", i)), relation.Float(prices[i])})
				if err != nil {
					b.Fatal(err)
				}
				tids[i] = tid
			}
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			mgr := NewManagerConfig(store, Config{UseDRA: true, AutoGC: true, Metrics: reg, ShareTemplates: pt.shared})
			defer func() { _ = mgr.Close() }()
			start := time.Now()
			for i := 0; i < pt.n; i++ {
				q := fmt.Sprintf("SELECT * FROM quotes WHERE price > %.4f", priceMax*(0.75+0.25*float64(i)/float64(pt.n)))
				if _, err := mgr.Register(Def{Name: fmt.Sprintf("t%07d", i), Query: q}); err != nil {
					b.Fatal(err)
				}
			}
			regRate := float64(pt.n) / time.Since(start).Seconds()
			before := reg.Snapshot()
			b.ResetTimer()
			for r := 0; r < b.N; r++ {
				b.StopTimer()
				tx := store.Begin()
				for k := 0; k < 100; k++ {
					i := 2 + rng.Intn(rows-2)
					set(tx, i, min(max(prices[i]+rng.Float64()*4-2, 0), quiet))
				}
				for k := 0; k < 2; k++ {
					p := rng.Float64() * quiet
					if r%2 == 0 {
						p = priceMax * (0.75 + 0.25*rng.Float64())
					}
					set(tx, k, p)
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := mgr.Poll(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(regRate, "reg/s")
			if pt.shared {
				snap := reg.Snapshot()
				count := func(name string) float64 { return float64(snap.Counter(name) - before.Counter(name)) }
				matches := count("cq.template.dispatch_matches")
				b.ReportMetric(count("cq.template.steps")/float64(b.N), "steps/round")
				b.ReportMetric(matches/float64(b.N), "matches/round")
				b.ReportMetric(count("cq.template.dispatch_candidates")/max(matches, 1), "cand/match")
			}
		})
	}
}

// registerBench is the fixture of BenchmarkRegister: tables a, b and c
// of rows each (columns id, k, v; k is the join key, unique per table)
// and a manager on one worker.
type registerBench struct {
	store *storage.Store
	mgr   *Manager
	rng   *rand.Rand
}

func newRegisterBench(b *testing.B, rows int) *registerBench {
	b.Helper()
	rb := &registerBench{store: storage.NewStore(), rng: rand.New(rand.NewSource(1))}
	schema := relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "v", Type: relation.TFloat},
	)
	for _, table := range []string{"a", "b", "c"} {
		if err := rb.store.CreateTable(table, schema); err != nil {
			b.Fatal(err)
		}
		tx := rb.store.Begin()
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert(table, []relation.Value{
				relation.Int(int64(i)), relation.Int(int64(i)), relation.Float(float64(rb.rng.Intn(1000))),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	rb.mgr = NewManagerConfig(rb.store, Config{UseDRA: true, Parallelism: 1})
	return rb
}

// touch commits one insert into a, moving the store clock.
func (rb *registerBench) touch(b *testing.B) {
	tx := rb.store.Begin()
	if _, err := tx.Insert("a", []relation.Value{relation.Int(-1), relation.Int(-1), relation.Float(0)}); err != nil {
		b.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

const join3 = "SELECT a.id, b.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE a.v > 100"

// BenchmarkRegister measures CQ registration, the initial execution
// included.
//
//	burst  each op registers, at one store timestamp, sixteen selection
//	       CQs, one 3-way join and one GROUP BY over 16k-row tables (the
//	       selections and the GROUP BY over a; a commit before every op,
//	       timer stopped, moves the clock), and then drops them. Gated by
//	       scripts/check-allocs.sh.
//	stall  each op registers and drops the 3-way join over 20k-row
//	       tables while a writer commits one-row updates to a as fast as
//	       it can; it reports the writer's commit latency (commit_max_us,
//	       commit_p99_us over every commit of the run), which is how long
//	       a registration holds the writers up.
func BenchmarkRegister(b *testing.B) {
	b.Run("burst", func(b *testing.B) {
		rb := newRegisterBench(b, 16<<10)
		defer func() { _ = rb.mgr.Close() }()
		var defs []Def
		for i := 0; i < 16; i++ {
			defs = append(defs, Def{Name: fmt.Sprintf("sel%02d", i),
				Query: fmt.Sprintf("SELECT id, v FROM a WHERE v > %d AND k < %d", 900-10*i, 8000+100*i)})
		}
		defs = append(defs,
			Def{Name: "join3", Query: join3},
			Def{Name: "rollup", Query: "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM a WHERE id < 4096 GROUP BY k"})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rb.touch(b)
			b.StartTimer()
			for _, def := range defs {
				if _, err := rb.mgr.Register(def); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, def := range defs {
				if err := rb.mgr.Drop(def.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	})
	b.Run("stall", func(b *testing.B) {
		rb := newRegisterBench(b, 20_000)
		defer func() { _ = rb.mgr.Close() }()
		stop := make(chan struct{})
		lats := make(chan []time.Duration)
		go func() {
			var out []time.Duration
			for n := 0; ; n++ {
				select {
				case <-stop:
					lats <- out
					return
				default:
				}
				start := time.Now()
				tx := rb.store.Begin()
				if err := tx.Update("a", relation.TID(1+n%1000), []relation.Value{
					relation.Int(int64(n % 1000)), relation.Int(int64(n % 1000)), relation.Float(float64(n % 1000)),
				}); err == nil {
					_, _ = tx.Commit()
				}
				out = append(out, time.Since(start))
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rb.mgr.Register(Def{Name: "join3", Query: join3}); err != nil {
				b.Fatal(err)
			}
			if err := rb.mgr.Drop("join3"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		out := <-lats
		slices.Sort(out)
		if len(out) == 0 {
			b.Fatal("the writer committed nothing")
		}
		b.ReportMetric(float64(out[len(out)-1].Microseconds()), "commit_max_us")
		b.ReportMetric(float64(out[len(out)*99/100].Microseconds()), "commit_p99_us")
		b.ReportMetric(float64(len(out))/float64(b.N), "commits/op")
	})
}
