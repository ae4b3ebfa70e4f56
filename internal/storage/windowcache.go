package storage

import (
	"fmt"
	"sync"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// WindowCache shares differential-window fetches among the refreshes
// that read windows ending at one store timestamp. The paper's system
// active delta zone (Section 5.4) implies that concurrent continual
// queries over the same tables consume the very same differential
// windows; the cache materializes each (table, from, to) window — its
// compacted form and its columnar image too — once, so N CQs sharing a
// table cost one fetch, one compaction and one conversion instead of N.
//
// Entries are owned copies, detached from the live delta: they stay
// valid if garbage collection truncates (and shifts) the underlying
// rows. Callers must treat them as read-only — the whole point is that
// many CQ refresh workers read the same entry. A cache may serve every
// reader whose windows end at the same timestamp `to`, for as long as
// the store clock still reads `to`: a commit ticks the clock under the
// store's write lock before it appends, so no window (from, to] changes
// once `to` has been issued. Once the clock has moved, start a new
// cache: reads at the new timestamp share nothing with the old one.
//
// WindowCache is safe for concurrent use.
type WindowCache struct {
	s            *Store
	mu           sync.Mutex
	entries      map[windowKey]*delta.Delta
	cols         map[windowKey]*batch.Batch // each entry's columnar image
	hits, misses int64
}

type windowKey struct {
	table    string
	from, to vclock.Timestamp
	compact  bool
}

// NewWindowCache returns an empty window cache over the store.
func (s *Store) NewWindowCache() *WindowCache {
	return &WindowCache{
		s:       s,
		entries: make(map[windowKey]*delta.Delta),
		cols:    make(map[windowKey]*batch.Batch),
	}
}

// Window returns the table's differential rows with from < TS <= to,
// folded to their net per-tid effect when compact is set. The first
// call per key fetches from the store; later calls share the entry.
// Like DeltaSince it returns ErrStaleWindow when garbage collection
// has already discarded part of the requested window.
func (c *WindowCache) Window(table string, from, to vclock.Timestamp, compact bool) (*delta.Delta, error) {
	key := windowKey{table: table, from: from, to: to, compact: compact}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.entries[key]; ok {
		c.hits++
		if m := c.s.met; m != nil {
			m.windowHits.Inc()
		}
		return d, nil
	}
	var d *delta.Delta
	if compact {
		// Derive from the raw entry when present: compaction is the
		// expensive half, and the store scan need not repeat.
		if raw, ok := c.entries[windowKey{table: table, from: from, to: to}]; ok {
			d = raw.Compact()
		}
	}
	if d == nil {
		var err error
		d, err = c.s.window(table, from, to, compact)
		if err != nil {
			return nil, err
		}
	}
	c.misses++
	if m := c.s.met; m != nil {
		m.windowMisses.Inc()
	}
	c.entries[key] = d
	return d, nil
}

// WindowBatch returns the columnar image of the same window Window
// would return, built once per key and shared read-only by every reader
// of the cache. The batch is unpooled (it outlives no pool generation)
// and its rows match the row window exactly, in the same order.
func (c *WindowCache) WindowBatch(table string, from, to vclock.Timestamp, compact bool) (*batch.Batch, error) {
	key := windowKey{table: table, from: from, to: to, compact: compact}
	c.mu.Lock()
	if b, ok := c.cols[key]; ok {
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()
	// Window takes the same lock; fetch (or share) the row form first.
	d, err := c.Window(table, from, to, compact)
	if err != nil {
		return nil, err
	}
	b, ok := batch.FromDelta(nil, d)
	if !ok {
		// Cannot happen: every stored value was conformed to its column
		// at the write boundary (Tx) or on recovery.
		return nil, fmt.Errorf("storage: window of %q: %w", table, relation.ErrTypeMismatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, seen := c.cols[key]; seen {
		return prev, nil // raced with another worker; share its image
	}
	c.cols[key] = b
	return b, nil
}

// Stats reports the cache's hit/miss counts.
func (c *WindowCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// window materializes an owned copy of one differential window
// (from < TS <= to), optionally compacted. Unlike DeltaSince the result
// never aliases the live delta's row storage, so it survives a
// concurrent TruncateBefore.
func (s *Store) window(table string, from, to vclock.Timestamp, compact bool) (*delta.Delta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if from < t.lowWater {
		if m := s.met; m != nil {
			m.staleWindow.Inc()
		}
		return nil, fmt.Errorf("%w: want >%d, low water %d", ErrStaleWindow, from, t.lowWater)
	}
	w := t.dlt.Window(from, to)
	if compact {
		return w.Compact(), nil
	}
	return w.Clone(), nil
}
