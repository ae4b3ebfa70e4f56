package cq

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// TestRefusedMaterializeRetry: a refresh whose step succeeded but whose
// INTO commit the overloaded store refused leaves the CQ at its last
// execution, while its evaluator has folded the window already. The
// retry steps from the last execution again, so the evaluator re-seeds
// there (dra.pre_tuples_scanned moves) and folds the window once: the
// result and the target read 15, not the window counted twice.
func TestRefusedMaterializeRetry(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "owner", Type: relation.TString},
		relation.Column{Name: "amount", Type: relation.TInt},
	)
	s := newStoreWith(t, map[string]relation.Schema{"accounts": schema})
	deposit := func(amount int64) {
		commit(t, s, func(tx *storage.Tx) error {
			_, err := tx.Insert("accounts", []relation.Value{relation.Str("a"), relation.Int(amount)})
			return err
		})
	}
	reg := obs.NewRegistry()
	m := NewManagerConfig(s, Config{UseDRA: true, Metrics: reg})
	defer func() { _ = m.Close() }()
	const q = "SELECT owner, SUM(amount) AS total INTO totals FROM accounts GROUP BY owner"
	if _, err := m.Register(Def{Name: "sums", Query: q}); err != nil {
		t.Fatal(err)
	}
	deposit(10)
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}

	deposit(5)
	s.SetWatermarks(storage.Watermarks{HardRows: 1})
	if _, err := m.Poll(); !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("Poll under the hard watermark: %v, want ErrOverloaded", err)
	}
	if n := reg.Snapshot().Counter("dra.pre_tuples_scanned"); n != 0 {
		t.Fatalf("%d pre-state tuples read before the retry", n)
	}
	s.SetWatermarks(storage.Watermarks{})
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("dra.pre_tuples_scanned"); n == 0 {
		t.Error("the retry did not re-seed")
	}

	result, err := m.Result("sums")
	if err != nil {
		t.Fatal(err)
	}
	target, err := s.Snapshot("totals")
	if err != nil {
		t.Fatal(err)
	}
	for name, rel := range map[string]*relation.Relation{"result": result, "totals": target} {
		if rel.Len() != 1 || rel.At(0).Values[1].AsInt() != 15 {
			t.Errorf("%s after the retry:\n%s\nwant a = 15", name, rel)
		}
	}
}

// TestServingNeverReseeds: a join CQ and a GROUP BY CQ (over a join, and
// over one table), polled and pushed through 50 commit-and-refresh
// rounds, always step from their evaluator's position: no refresh reads a
// pre-state, and the results stay equal to the queries run from scratch.
func TestServingNeverReseeds(t *testing.T) {
	tradeSchema := relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)
	queries := map[string]string{
		"joined": "SELECT s.name, s.price, t.volume FROM stocks s JOIN trades t ON s.name = t.sym",
		"rollup": "SELECT s.name, SUM(t.volume) AS v, COUNT(*) AS n FROM stocks s JOIN trades t ON s.name = t.sym GROUP BY s.name",
		"volume": "SELECT sym, SUM(volume) AS v FROM trades GROUP BY sym",
	}
	for _, push := range []bool{false, true} {
		t.Run(fmt.Sprintf("push=%v", push), func(t *testing.T) {
			s := newStoreWith(t, map[string]relation.Schema{"stocks": stockSchema(), "trades": tradeSchema})
			var stocks, trades []relation.TID
			for i := 0; i < 5; i++ {
				stocks = append(stocks, insertStock(t, s, fmt.Sprintf("S%d", i), float64(100+i)))
			}
			reg := obs.NewRegistry()
			// A generous budget: the deadline never fires on a healthy
			// serving path, so nothing re-seeds.
			m := NewManagerConfig(s, Config{UseDRA: true, Push: push, Metrics: reg, Guard: guard.Policy{Budget: time.Minute}})
			defer func() { _ = m.Close() }()
			for name, q := range queries {
				if _, err := m.Register(Def{Name: name, Query: q}); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 50; round++ {
				commit(t, s, func(tx *storage.Tx) error {
					sym := relation.Str(fmt.Sprintf("S%d", round%5))
					tid, err := tx.Insert("trades", []relation.Value{sym, relation.Int(int64(round))})
					trades = append(trades, tid)
					if err == nil && round%3 == 0 {
						err = tx.Update("stocks", stocks[round%5], []relation.Value{sym, relation.Float(float64(round))})
					}
					if err == nil && round%4 == 3 {
						err = tx.Delete("trades", trades[round/2])
					}
					return err
				})
				if push {
					m.FlushPush()
				} else if _, err := m.Poll(); err != nil {
					t.Fatal(err)
				}
				if n := reg.Snapshot().Counter("dra.pre_tuples_scanned"); n != 0 {
					t.Fatalf("round %d: refreshes read %d pre-state tuples", round, n)
				}
			}
			for name, q := range queries {
				got, err := m.Result(name)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := algebra.PlanSQL(q, s.Live())
				if err != nil {
					t.Fatal(err)
				}
				want, err := dra.InitialResult(algebra.Optimize(plan), s.Live())
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualContents(want) {
					t.Errorf("%s:\nmaintained:\n%s\nfrom scratch:\n%s", name, got, want)
				}
			}
			if n := reg.Snapshot().Counter("cq.refreshes"); n < 50*int64(len(queries)) {
				t.Errorf("%d refreshes, want one per CQ per round", n)
			}
		})
	}
}
