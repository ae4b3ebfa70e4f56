// Package workload provides the parameterized update generators used by
// the benchmarks and tests: a stock ticker (the paper's running example)
// and a bank of checking accounts (the Section 3.2/5.3 epsilon example).
// All generators are deterministic under a seed.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// Mix is the fraction of each update kind in a batch; the fields should
// sum to 1 (they are normalized otherwise).
type Mix struct {
	Insert float64
	Delete float64
	Modify float64
}

// DefaultMix mirrors a ticker feed: mostly in-place price changes.
var DefaultMix = Mix{Insert: 0.15, Delete: 0.05, Modify: 0.80}

// AppendOnlyMix never deletes or modifies.
var AppendOnlyMix = Mix{Insert: 1}

func (m Mix) normalized() Mix {
	total := m.Insert + m.Delete + m.Modify
	if total <= 0 {
		return DefaultMix
	}
	return Mix{Insert: m.Insert / total, Delete: m.Delete / total, Modify: m.Modify / total}
}

// StockSchema is (name STRING, price FLOAT, volume INT).
func StockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
}

// Stocks generates ticker updates against a store table.
type Stocks struct {
	rng   *rand.Rand
	store *storage.Store
	table string
	mix   Mix
	// PriceMax bounds generated prices; selectivity sweeps pick the
	// predicate threshold relative to it.
	PriceMax float64
	live     []relation.TID
	nextSym  int
}

// NewStocks creates a generator over an existing table.
func NewStocks(store *storage.Store, table string, seed int64, mix Mix) *Stocks {
	return &Stocks{
		rng:      rand.New(rand.NewSource(seed)),
		store:    store,
		table:    table,
		mix:      mix.normalized(),
		PriceMax: 200,
	}
}

// Live returns the number of live tuples the generator tracks.
func (g *Stocks) Live() int { return len(g.live) }

func (g *Stocks) row() []relation.Value {
	g.nextSym++
	return []relation.Value{
		relation.Str(fmt.Sprintf("S%05d", g.nextSym)),
		relation.Float(g.rng.Float64() * g.PriceMax),
		relation.Int(int64(g.rng.Intn(10_000))),
	}
}

// Seed inserts n initial rows in batches.
func (g *Stocks) Seed(n int) error {
	const batch = 1000
	for n > 0 {
		k := batch
		if n < k {
			k = n
		}
		tx := g.store.Begin()
		for i := 0; i < k; i++ {
			tid, err := tx.Insert(g.table, g.row())
			if err != nil {
				tx.Abort()
				return err
			}
			g.live = append(g.live, tid)
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// Batch applies n updates in a single transaction, drawn from the mix.
func (g *Stocks) Batch(n int) error {
	tx := g.store.Begin()
	for i := 0; i < n; i++ {
		r := g.rng.Float64()
		switch {
		case r < g.mix.Insert || len(g.live) == 0:
			tid, err := tx.Insert(g.table, g.row())
			if err != nil {
				tx.Abort()
				return err
			}
			g.live = append(g.live, tid)
		case r < g.mix.Insert+g.mix.Delete:
			k := g.rng.Intn(len(g.live))
			if err := tx.Delete(g.table, g.live[k]); err != nil {
				tx.Abort()
				return err
			}
			g.live[k] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
		default:
			k := g.rng.Intn(len(g.live))
			if err := tx.Update(g.table, g.live[k], g.row()); err != nil {
				tx.Abort()
				return err
			}
		}
	}
	_, err := tx.Commit()
	return err
}

// AccountSchema is (owner STRING, amount FLOAT).
func AccountSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "owner", Type: relation.TString},
		relation.Column{Name: "amount", Type: relation.TFloat},
	)
}

// Accounts generates checking-account activity: deposits insert rows,
// withdrawals delete them — matching the paper's reading of Deposits and
// Withdrawals as insertions(Δ) and deletions(Δ).
type Accounts struct {
	rng    *rand.Rand
	store  *storage.Store
	table  string
	live   []accountRow
	nextID int
	// MaxAmount bounds individual transaction sizes.
	MaxAmount float64
}

type accountRow struct {
	tid    relation.TID
	amount float64
}

// NewAccounts creates a generator over an existing table.
func NewAccounts(store *storage.Store, table string, seed int64) *Accounts {
	return &Accounts{
		rng:       rand.New(rand.NewSource(seed)),
		store:     store,
		table:     table,
		MaxAmount: 100_000,
	}
}

// Deposit inserts one deposit of the given amount (random if <= 0).
func (g *Accounts) Deposit(amount float64) error {
	if amount <= 0 {
		amount = g.rng.Float64() * g.MaxAmount
	}
	g.nextID++
	tx := g.store.Begin()
	tid, err := tx.Insert(g.table, []relation.Value{
		relation.Str(fmt.Sprintf("acct%06d", g.nextID)),
		relation.Float(amount),
	})
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	g.live = append(g.live, accountRow{tid: tid, amount: amount})
	return nil
}

// Withdraw deletes a random deposit row (a withdrawal in the paper's
// model). It is a no-op on an empty table.
func (g *Accounts) Withdraw() error {
	if len(g.live) == 0 {
		return nil
	}
	k := g.rng.Intn(len(g.live))
	tx := g.store.Begin()
	if err := tx.Delete(g.table, g.live[k].tid); err != nil {
		tx.Abort()
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	g.live[k] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return nil
}

// Activity runs n random operations, biased towards deposits.
func (g *Accounts) Activity(n int) error {
	for i := 0; i < n; i++ {
		if g.rng.Float64() < 0.65 || len(g.live) == 0 {
			if err := g.Deposit(0); err != nil {
				return err
			}
		} else if err := g.Withdraw(); err != nil {
			return err
		}
	}
	return nil
}
