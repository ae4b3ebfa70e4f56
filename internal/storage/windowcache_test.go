package storage

import (
	"errors"
	"sync"
	"testing"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
)

func sv(name string, price float64) []relation.Value {
	return []relation.Value{relation.Str(name), relation.Float(price)}
}

func TestWindowCacheSharesFetches(t *testing.T) {
	s := newStockStore(t)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	t0 := s.Now()
	tx := s.Begin()
	if _, err := tx.Insert("stocks", sv("DEC", 150)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("stocks", sv("IBM", 75)); err != nil {
		t.Fatal(err)
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	w1, err := c.Window("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Len() != 2 {
		t.Fatalf("window len = %d, want 2", w1.Len())
	}
	w2, err := c.Window("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("second fetch of the same window must return the cached entry")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different window is its own entry.
	if _, err := c.Window("stocks", t1, s.Now(), false); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["storage.window_cache.hits"]; got != 1 {
		t.Errorf("storage.window_cache.hits = %d, want 1", got)
	}
	if got := snap.Counters["storage.window_cache.misses"]; got != 2 {
		t.Errorf("storage.window_cache.misses = %d, want 2", got)
	}
}

func TestWindowCacheCompactDerivesFromRaw(t *testing.T) {
	s := newStockStore(t)
	t0 := s.Now()
	tx := s.Begin()
	tid, err := tx.Insert("stocks", sv("DEC", 150))
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = s.Begin()
	if err := tx.Update("stocks", tid, sv("DEC", 149)); err != nil {
		t.Fatal(err)
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	raw, err := c.Window("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := c.Window("stocks", t0, t1, true)
	if err != nil {
		t.Fatal(err)
	}
	// Insert then update folds to a single net insert at 149.
	if raw.Len() <= compacted.Len() {
		t.Fatalf("compacted window (%d rows) must be smaller than raw (%d rows)", compacted.Len(), raw.Len())
	}
	if compacted.Len() != 1 {
		t.Fatalf("compacted len = %d, want 1", compacted.Len())
	}
	again, err := c.Window("stocks", t0, t1, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != compacted {
		t.Error("compacted entry must be cached too")
	}
}

// TestWindowCacheSurvivesGC pins down the ownership contract: a cached
// window keeps serving the round even if garbage collection truncates
// (and shifts) the live delta rows it came from mid-round.
func TestWindowCacheSurvivesGC(t *testing.T) {
	s := newStockStore(t)
	t0 := s.Now()
	tx := s.Begin()
	if _, err := tx.Insert("stocks", sv("DEC", 150)); err != nil {
		t.Fatal(err)
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	w, err := c.Window("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	s.CollectGarbage(s.Now())
	if w.Len() != 1 || w.Rows()[0].New[0].AsString() != "DEC" {
		t.Fatalf("cached window corrupted by GC: %+v", w.Rows())
	}
	// The cached entry still serves hits...
	if again, err := c.Window("stocks", t0, t1, false); err != nil || again != w {
		t.Fatalf("cached window no longer served after GC: %v", err)
	}
	// ...while a fresh fetch of the discarded range reports staleness.
	if _, err := s.NewWindowCache().Window("stocks", t0, t1, false); !errors.Is(err, ErrStaleWindow) {
		t.Fatalf("fresh fetch after GC = %v, want ErrStaleWindow", err)
	}
}

func TestWindowCacheUnknownTable(t *testing.T) {
	s := newStockStore(t)
	if _, err := s.NewWindowCache().Window("nope", 0, s.Now(), false); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v, want ErrNoSuchTable", err)
	}
}

func TestWindowCacheConcurrent(t *testing.T) {
	s := newStockStore(t)
	t0 := s.Now()
	tx := s.Begin()
	for i := 0; i < 50; i++ {
		if _, err := tx.Insert("stocks", sv("S", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d, err := c.Window("stocks", t0, t1, i%2 == 0)
				if err != nil || d.Len() != 50 {
					t.Errorf("window: len=%d err=%v", d.Len(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := c.Stats()
	if misses != 2 || hits != 8*50-2 {
		t.Errorf("stats = %d hits / %d misses, want %d/2", hits, misses, 8*50-2)
	}
}

// TestWindowBatchSharesOneConversion: the columnar image of a window is
// built once per cache key and shared.
func TestWindowBatchSharesOneConversion(t *testing.T) {
	s := newStockStore(t)
	t0 := s.Now()
	tx := s.Begin()
	if _, err := tx.Insert("stocks", sv("DEC", 150)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("stocks", sv("IBM", 75)); err != nil {
		t.Fatal(err)
	}
	t1 := mustCommit(t, tx)

	c := s.NewWindowCache()
	b1, err := c.WindowBatch("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == nil || b1.Len() != 2 {
		t.Fatalf("window batch = %v, want 2 rows", b1)
	}
	b2, err := c.WindowBatch("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("second WindowBatch must share the first conversion")
	}
	// The image mirrors the row window exactly.
	w, err := c.Window("stocks", t0, t1, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != b1.Len() {
		t.Fatalf("rows: window %d vs batch %d", w.Len(), b1.Len())
	}
}
