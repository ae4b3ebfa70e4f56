package workload

import (
	"testing"

	"github.com/diorama/continual/internal/storage"
)

func TestStocksSeedAndBatch(t *testing.T) {
	s := storage.NewStore()
	if err := s.CreateTable("stocks", StockSchema()); err != nil {
		t.Fatal(err)
	}
	g := NewStocks(s, "stocks", 1, DefaultMix)
	if err := g.Seed(2500); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Snapshot("stocks")
	if snap.Len() != 2500 || g.Live() != 2500 {
		t.Fatalf("seeded = %d live = %d", snap.Len(), g.Live())
	}
	mark := s.Now()
	if err := g.Batch(100); err != nil {
		t.Fatal(err)
	}
	d, err := s.DeltaSince("stocks", mark)
	if err != nil {
		t.Fatal(err)
	}
	// A batch is one transaction: repeat updates to the same tuple fold
	// into a single differential row, so the count may be slightly below
	// the operation count.
	if d.Len() < 90 || d.Len() > 100 {
		t.Errorf("delta rows = %d, want ~100", d.Len())
	}
	ins, del, mod := d.Counts()
	if mod < ins+del {
		t.Errorf("default mix should be modify-heavy: %d/%d/%d", ins, del, mod)
	}
	// Store and tracker agree.
	snap, _ = s.Snapshot("stocks")
	if snap.Len() != g.Live() {
		t.Errorf("store %d vs tracker %d", snap.Len(), g.Live())
	}
}

func TestStocksDeterministicUnderSeed(t *testing.T) {
	run := func() int {
		s := storage.NewStore()
		_ = s.CreateTable("stocks", StockSchema())
		g := NewStocks(s, "stocks", 7, DefaultMix)
		_ = g.Seed(100)
		_ = g.Batch(50)
		snap, _ := s.Snapshot("stocks")
		return snap.Len()
	}
	if run() != run() {
		t.Error("generator is not deterministic under a fixed seed")
	}
}

func TestAppendOnlyMixNeverDeletes(t *testing.T) {
	s := storage.NewStore()
	_ = s.CreateTable("stocks", StockSchema())
	g := NewStocks(s, "stocks", 3, AppendOnlyMix)
	_ = g.Seed(10)
	mark := s.Now()
	if err := g.Batch(200); err != nil {
		t.Fatal(err)
	}
	d, _ := s.DeltaSince("stocks", mark)
	ins, del, mod := d.Counts()
	if del != 0 || mod != 0 || ins != 200 {
		t.Errorf("append-only mix produced %d/%d/%d", ins, del, mod)
	}
}

func TestAccountsDepositWithdraw(t *testing.T) {
	s := storage.NewStore()
	_ = s.CreateTable("accounts", AccountSchema())
	g := NewAccounts(s, "accounts", 5)
	if err := g.Deposit(1000); err != nil {
		t.Fatal(err)
	}
	if err := g.Deposit(2000); err != nil {
		t.Fatal(err)
	}
	if err := g.Withdraw(); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Snapshot("accounts")
	if snap.Len() != 1 {
		t.Fatalf("accounts = %d", snap.Len())
	}
	if err := g.Activity(50); err != nil {
		t.Fatal(err)
	}
	d, _ := s.DeltaSince("accounts", 0)
	ins, del, _ := d.Counts()
	if ins == 0 || del == 0 {
		t.Errorf("activity should mix deposits and withdrawals: %d/%d", ins, del)
	}
}
