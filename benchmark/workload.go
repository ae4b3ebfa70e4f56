package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// cqDef is one continual query of a workload.
type cqDef struct {
	name    string
	query   string
	trigger sql.TriggerSpec
	// kind is the dra step bucket the layer replay times this query
	// under: "select", "join", "agg" or "distinct".
	kind string
	// group names the shared template a query belongs to when the
	// workload shares templates ("" for a private plan); the replay's
	// stand-alone router holds one route per group, as the engine does.
	group string
	// witness queries are registered with NotifyEmpty, so every refresh
	// round delivers a notification: a commit counts as notified once
	// every witness has delivered one with ExecTS at or past it.
	witness bool
	// leaf marks the last stage of a cascade; commit → leaf notification
	// latency is reported per layer.
	leaf bool
	// oracle queries are compared against complete re-evaluation at the
	// end of the run (all but the unsampled tenants of mix_push).
	oracle bool
	// stale queries (epsilon triggers) lag by design and are refreshed
	// once before the oracle compares them.
	stale bool
}

// workload is the source of truth for one benchmark workload: every
// size, rate and option is a constant here.
type workload struct {
	name string
	why  string

	tables func(scale float64) []tableDef
	cqs    func(scale float64) []cqDef

	// Engine assembly (cq.Config defaults otherwise).
	durable         bool
	checkpointEvery int
	push            bool
	share           bool
	ticker          time.Duration

	// Transaction stream.
	txRows int
	mix    [3]int // insert, delete, modify percent
	// rotation lists, per successive transaction, the table written.
	rotation []int
	// pollEvery is the number of commits per Poll (poll workloads).
	pollEvery int
	// openRate is the open-loop rate in commits/s for the first openShare
	// of the measured window; the rest runs closed loop. 0: closed only.
	openRate  int
	openShare float64
	warmup    int // transactions before timing starts

	// Layer replay only.
	// joinKeys maps a join operand table to its join column: the replay
	// maintains one stand-alone relation.MutableIndex per entry.
	joinKeys map[string]int
	// mirror is the query a remote.MirrorCQ refreshes over loopback.
	mirror string
}

// sloLimit is the notification latency limit behind slo_miss_share.
const sloLimit = 20 * time.Millisecond

func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}

// at returns the workload with its transaction size and warm-up scaled
// like its tables, so the delta-to-base ratio — which the engine's
// strategy choice depends on — stays close at every scale. Transactions
// keep at least 16 rows: below that a conjunction's left conjunct can
// select nothing from a window, which the engine mishandles (README,
// "Known limits").
func (w *workload) at(scale float64) *workload {
	if scale == 1 {
		return w
	}
	c := *w
	c.txRows = scaled(w.txRows, scale, min(w.txRows, 16))
	c.warmup = scaled(w.warmup, scale, hashedTxns)
	return &c
}

func (w *workload) constants() map[string]any {
	rows := map[string]int{}
	for _, t := range w.tables(1) {
		rows[t.name] = t.rows
	}
	return map[string]any{
		"rows": rows, "cqs": len(w.cqs(1)), "tx_rows": w.txRows, "mix_ins_del_mod": w.mix,
		"poll_every": w.pollEvery, "open_rate_per_s": w.openRate, "open_share": w.openShare,
		"warmup_txns": w.warmup, "durable": w.durable, "checkpoint_every": w.checkpointEvery,
		"push": w.push, "share_templates": w.share, "ticker_ms": w.ticker.Milliseconds(),
		"slo_ms": sloLimit.Milliseconds(),
	}
}

var workloads = []*workload{selectFanout, join3Churn, mixPush, cascadeDurable}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- quotes: shared by select_fanout and mix_push ----------------------

const nSectors = 128

var quotesSchema = relation.MustSchema(
	relation.Column{Name: "id", Type: relation.TInt},
	relation.Column{Name: "sym", Type: relation.TString},
	relation.Column{Name: "sector", Type: relation.TInt},
	relation.Column{Name: "px", Type: relation.TFloat},
	relation.Column{Name: "vol", Type: relation.TInt},
)

func symbol(id int) string { return fmt.Sprintf("S%06d", id) }

// px is uniform on [0,1000) to three decimals, so `px > 1000-10*s` has
// selectivity s percent; vol is uniform on [0,10000).
func drawPx(r *rand.Rand) float64 { return float64(r.Intn(1_000_000)) / 1000 }

func quotesTable(rows int) tableDef {
	return tableDef{
		name: "quotes", schema: quotesSchema, rows: rows,
		newRow: func(r *rand.Rand, id int) []relation.Value {
			return []relation.Value{
				relation.Int(int64(id)), relation.Str(symbol(id)),
				relation.Int(int64(r.Intn(nSectors))),
				relation.Float(drawPx(r)), relation.Int(int64(r.Intn(10_000))),
			}
		},
		// A tick: new price and volume, identity columns kept.
		modify: func(r *rand.Rand, old []relation.Value) []relation.Value {
			return []relation.Value{old[0], old[1], old[2],
				relation.Float(drawPx(r)), relation.Int(int64(r.Intn(10_000)))}
		},
	}
}

// --- select_fanout -----------------------------------------------------

var selectFanout = &workload{
	name: "select_fanout",
	why:  "paper regime: 64 selection/projection CQs over a large table, tiny deltas; storage window, batch build, dra selection, cq per-CQ overhead",
	tables: func(s float64) []tableDef {
		return []tableDef{quotesTable(scaled(50_000, s, 256))}
	},
	cqs:       selectFanoutCQs,
	txRows:    64,
	mix:       [3]int{10, 10, 80},
	rotation:  []int{0},
	pollEvery: 1,
	warmup:    128,
}

// selectFanoutCQs is 64 distinct selection/projection queries in four
// shapes (threshold, range, and two conjunctions of ranges on two
// columns), selectivities from 1 % to about 20 %. In every conjunction
// the left conjunct passes most rows: see README, "Known limits", for
// the engine defect a selective left conjunct runs into.
func selectFanoutCQs(float64) []cqDef {
	out := make([]cqDef, 0, 64)
	add := func(q string) {
		out = append(out, cqDef{name: fmt.Sprintf("q%02d", len(out)), query: q, kind: "select", witness: true, oracle: true})
	}
	for i := 0; i < 16; i++ {
		add(fmt.Sprintf("SELECT * FROM quotes WHERE px > %d", 990-10*i)) // 1..16 %
	}
	for i := 0; i < 16; i++ {
		lo := 20 * i
		add(fmt.Sprintf("SELECT sym, px FROM quotes WHERE px > %d AND px < %d", lo, lo+20+10*i)) // 2..17 %
	}
	for i := 0; i < 16; i++ {
		add(fmt.Sprintf("SELECT id, px, vol FROM quotes WHERE px > %d AND sector < %d", 100+20*i, 8+i)) // 5..11 %
	}
	for i := 0; i < 16; i++ {
		add(fmt.Sprintf("SELECT id, sym, vol FROM quotes WHERE vol < %d AND px > %d", 9500-300*i, 980-20*i)) // 2..17 %
	}
	return out
}

// --- join3_churn -------------------------------------------------------

func keyedTable(name string, rows int) tableDef {
	return tableDef{
		name: name,
		schema: relation.MustSchema(
			relation.Column{Name: "id", Type: relation.TInt},
			relation.Column{Name: "k", Type: relation.TInt},
			relation.Column{Name: "v", Type: relation.TFloat},
		),
		rows: rows,
		// k is the join key: ids map onto keys 1:1 at seeding, and a
		// tenth of modifications move a row to another key, so the
		// maintained indexes see removals and insertions, not only
		// in-place value changes.
		newRow: func(r *rand.Rand, id int) []relation.Value {
			return []relation.Value{relation.Int(int64(id)), relation.Int(int64(id % rows)), relation.Float(drawPx(r))}
		},
		modify: func(r *rand.Rand, old []relation.Value) []relation.Value {
			k := old[1]
			if r.Intn(10) == 0 {
				k = relation.Int(int64(r.Intn(rows)))
			}
			return []relation.Value{old[0], k, relation.Float(drawPx(r))}
		},
	}
}

var join3Churn = &workload{
	name: "join3_churn",
	why:  "join arm: four equi-join CQs over three tables under modify-heavy churn; dra join terms and relation.MutableIndex maintenance dominate",
	tables: func(s float64) []tableDef {
		n := scaled(20_000, s, 512)
		return []tableDef{keyedTable("a", n), keyedTable("b", n), keyedTable("c", n)}
	},
	cqs: func(float64) []cqDef {
		q := func(name, query string) cqDef {
			return cqDef{name: name, query: query, kind: "join", witness: true, oracle: true}
		}
		return []cqDef{
			q("j3_hi", "SELECT a.id, b.id, c.id, a.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE a.v > 500"),
			q("j3_lo", "SELECT a.id, b.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE c.v < 300"),
			q("j2", "SELECT a.id, b.id, a.v, b.v FROM a JOIN b ON a.k = b.k WHERE b.v < 400"),
			q("j2_proj", "SELECT b.id, c.v FROM b JOIN c ON b.k = c.k"),
		}
	},
	txRows:    128,
	mix:       [3]int{5, 5, 90},
	rotation:  []int{0, 1, 2},
	pollEvery: 1,
	warmup:    96,
	joinKeys:  map[string]int{"a": 1, "b": 1, "c": 1},
}

// --- mix_push ----------------------------------------------------------

const (
	mixTenants   = 200
	mixEqCQs     = 50
	mixPositions = 2_000
	mixQuotes    = 50_000
	// mixMinQuotes keeps every private selection's result well above
	// twice the window at any scale: below that the engine's cost model
	// re-picks StrategyPropagate, which scans the live relation while
	// push-mode commits write it (README, "Known limits").
	mixMinQuotes = 8_192
)

func positionsTable(rows, quotes int) tableDef {
	return tableDef{
		name: "positions",
		schema: relation.MustSchema(
			relation.Column{Name: "id", Type: relation.TInt},
			relation.Column{Name: "sym", Type: relation.TString},
			relation.Column{Name: "acct", Type: relation.TInt},
			relation.Column{Name: "qty", Type: relation.TInt},
		),
		rows: rows,
		newRow: func(r *rand.Rand, id int) []relation.Value {
			return []relation.Value{relation.Int(int64(id)), relation.Str(symbol(r.Intn(quotes))),
				relation.Int(int64(r.Intn(200))), relation.Int(int64(1 + r.Intn(1000)))}
		},
		modify: func(r *rand.Rand, old []relation.Value) []relation.Value {
			return []relation.Value{old[0], old[1], old[2], relation.Int(int64(1 + r.Intn(1000)))}
		},
	}
}

var mixPush = &workload{
	name: "mix_push",
	why:  "realistic mix: durable, push, shared templates, ticker, joins, epsilon aggregate, cascade; open loop then closed loop, so queueing and cross-layer costs show",
	tables: func(s float64) []tableDef {
		quotes := scaled(mixQuotes, s, mixMinQuotes)
		return []tableDef{quotesTable(quotes), positionsTable(scaled(mixPositions, s, 1024), quotes)}
	},
	cqs:       mixPushCQs,
	durable:   true,
	push:      true,
	share:     true,
	ticker:    50 * time.Millisecond,
	txRows:    16,
	mix:       [3]int{10, 10, 80},
	rotation:  []int{0, 0, 0, 0, 0, 0, 0, 1},
	pollEvery: 1,
	openRate:  mixOpenRate,
	openShare: 0.6,
	warmup:    128,
	joinKeys:  map[string]int{"quotes": 1, "positions": 1},
	mirror:    "SELECT id, sym, px FROM quotes WHERE px > 990",
}

// mixOpenRate is R, the open-loop rate of mix_push in commits/s: about
// 40 % of the closed-loop capacity measured once on the seed commit on
// the 2-core sandbox (see README, "How R was measured"), then frozen.
const mixOpenRate = 220

func mixPushCQs(scale float64) []cqDef {
	tenants := scaled(mixTenants, scale, 8)
	eqs := scaled(mixEqCQs, scale, 4)
	quotes := scaled(mixQuotes, scale, mixMinQuotes)
	var out []cqDef
	// Tenant alerts on one template: thresholds in the top 0.5 % of px.
	// Every sampleEvery-th tenant is a witness and is oracle-checked.
	sampleEvery := tenants / 64
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for i := 0; i < tenants; i++ {
		sampled := i%sampleEvery == 0
		out = append(out, cqDef{
			name:    fmt.Sprintf("tenant%04d", i),
			query:   fmt.Sprintf("SELECT id, sym, px FROM quotes WHERE px > %.3f", 995+5*float64(i)/float64(tenants)),
			kind:    "select",
			group:   "tenant",
			witness: sampled, oracle: sampled,
		})
	}
	// Watch-list entries on a second template: one symbol each.
	for i := 0; i < eqs; i++ {
		out = append(out, cqDef{
			name:   fmt.Sprintf("watch%04d", i),
			query:  fmt.Sprintf("SELECT id, sym, px, vol FROM quotes WHERE sym = '%s'", symbol((i*7919)%quotes)),
			kind:   "select",
			group:  "watch",
			oracle: i%4 == 0,
		})
	}
	for i, q := range []string{
		"SELECT * FROM quotes WHERE vol > 1000 AND px > 900",
		"SELECT sym, px FROM quotes WHERE sector = 3",
		"SELECT id, vol FROM quotes WHERE vol < 100",
		"SELECT id, sym, px, vol FROM quotes WHERE vol > 2000 AND sector < 110 AND px < 20",
		"SELECT sym, vol FROM quotes WHERE vol > 1000 AND sector = 5",
		"SELECT id, px FROM quotes WHERE px > 400 AND px < 420",
		"SELECT id, sector, px FROM quotes WHERE px > 100 AND sector > 120",
		"SELECT sym FROM quotes WHERE vol > 9900",
	} {
		out = append(out, cqDef{name: fmt.Sprintf("sel%d", i), query: q, kind: "select", witness: true, oracle: true})
	}
	out = append(out,
		cqDef{name: "exposure", kind: "join", witness: true, oracle: true,
			query: "SELECT positions.acct, quotes.sym, quotes.px, positions.qty FROM positions JOIN quotes ON positions.sym = quotes.sym WHERE quotes.px > 500"},
		cqDef{name: "bigpos", kind: "join", witness: true, oracle: true,
			query: "SELECT positions.id, quotes.px FROM positions JOIN quotes ON positions.sym = quotes.sym WHERE positions.qty > 900"},
		cqDef{name: "totalvol", kind: "agg", oracle: true, stale: true,
			query:   "SELECT SUM(vol) AS total FROM quotes",
			trigger: sql.TriggerSpec{Kind: sql.TriggerEpsilon, Bound: 200_000}},
		cqDef{name: "sector_roll", kind: "agg", oracle: true,
			query: "SELECT sector, SUM(vol) AS v, COUNT(*) AS n INTO sector_vol FROM quotes GROUP BY sector"},
		cqDef{name: "sector_hot", kind: "select", oracle: true, leaf: true,
			query: "SELECT sector, v FROM sector_vol WHERE v > 1500000"},
	)
	return out
}

// --- cascade_durable ---------------------------------------------------

const (
	evKeys    = 2_000
	evBuckets = 32
)

func eventsTable(rows int) tableDef {
	return tableDef{
		name: "events",
		schema: relation.MustSchema(
			relation.Column{Name: "id", Type: relation.TInt},
			relation.Column{Name: "k", Type: relation.TInt},
			relation.Column{Name: "bucket", Type: relation.TInt},
			relation.Column{Name: "v", Type: relation.TInt},
		),
		rows: rows,
		newRow: func(r *rand.Rand, id int) []relation.Value {
			k := r.Intn(evKeys)
			return []relation.Value{relation.Int(int64(id)), relation.Int(int64(k)),
				relation.Int(int64(k % evBuckets)), relation.Int(int64(1 + r.Intn(100)))}
		},
		modify: func(r *rand.Rand, old []relation.Value) []relation.Value {
			return []relation.Value{old[0], old[1], old[2], relation.Int(int64(1 + r.Intn(100)))}
		},
	}
}

var cascadeDurable = &workload{
	name:   "cascade_durable",
	why:    "storage the other way round: 32 durable commits per refresh through a 3-stage GROUP BY rollup plus DISTINCT; commit path, WAL, materialize writes and checkpoints dominate",
	tables: func(s float64) []tableDef { return []tableDef{eventsTable(scaled(100_000, s, 512))} },
	cqs: func(float64) []cqDef {
		return []cqDef{
			{name: "roll_key", kind: "agg", oracle: true,
				query: "SELECT k, bucket, SUM(v) AS s, COUNT(*) AS n INTO by_key FROM events GROUP BY k, bucket"},
			{name: "roll_bucket", kind: "agg", oracle: true,
				query: "SELECT bucket, SUM(s) AS s, SUM(n) AS n INTO by_bucket FROM by_key GROUP BY bucket"},
			{name: "hot_buckets", kind: "select", oracle: true, witness: true, leaf: true,
				query: "SELECT bucket, s FROM by_bucket WHERE s > 150000"},
			{name: "live_keys", kind: "distinct", oracle: true, witness: true,
				query: "SELECT DISTINCT k FROM events"},
		}
	},
	durable:         true,
	checkpointEvery: 4_000,
	txRows:          8,
	mix:             [3]int{40, 40, 20},
	rotation:        []int{0},
	pollEvery:       32,
	warmup:          256,
}
