package storage

import (
	"cmp"
	"fmt"
	"slices"
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
// windows; the cache builds each (table, from, to, compact) window once
// per form — the columnar image the refresh steps read, and the row form
// for readers that want rows — so N CQs sharing a table cost one fold
// instead of N. Beside the windows it shares whole tables as of one
// timestamp (At): every CQ seeded at ts reads one image per table.
//
// Entries share the committed rows' value slices and own everything
// else: an image holds its values in its own columns, and a row-form
// window its own row headers, so both stay intact when garbage
// collection truncates (and shifts) the live log or later commits
// replace the same tids' values — committed values are never written
// (see delta.Row). Callers must treat entries as read-only: many CQ
// refresh workers read the same one. A cache may serve every reader
// whose windows end at the same timestamp `to`, for as long as the
// store clock still reads `to`: a commit ticks the clock under the
// store's write lock before it appends, so no window (from, to] changes
// once `to` has been issued. Once the clock has moved, start a new
// cache: reads at the new timestamp share nothing with the old one.
//
// WindowCache is safe for concurrent use.
type WindowCache struct {
	s  *Store
	mu sync.Mutex
	// rows and images hold the windows in row and columnar form, each
	// map made on first use: a round without epsilon triggers reads no
	// row window.
	rows         map[windowKey]*delta.Delta
	images       map[windowKey]*batch.Batch
	hits, misses int64

	// tables and snaps hold whole tables as of one timestamp, for the
	// initial executions that read them (At): the columnar image every
	// compiled kernel seeds from, and the row form complete
	// re-evaluation executes over. Neither counts as a window hit or
	// miss, and both are made on first use: most caches serve refreshes
	// only.
	tables map[tableKey]*batch.Batch
	snaps  map[tableKey]*relation.Relation
}

type windowKey struct {
	table    string
	from, to vclock.Timestamp
	compact  bool
}

type tableKey struct {
	table string
	ts    vclock.Timestamp
}

// NewWindowCache returns an empty window cache over the store.
func (s *Store) NewWindowCache() *WindowCache {
	return &WindowCache{s: s} // maps made on first use
}

// At returns the store as of ts as a source whose table images and
// snapshots are built once per (table, ts) and shared by every reader
// of the cache: one image serves every CQ seeded at ts. A table's state
// at ts cannot change once ts has been issued, so the entries stay
// exact whatever commits later; like every entry they are read-only.
func (c *WindowCache) At(ts vclock.Timestamp) HistoricView {
	return HistoricView{s: c.s, ts: ts, cache: c}
}

// tableAt serves (table, ts) from *entries, or builds it under the
// cache lock so each is built once.
func tableAt[T any](c *WindowCache, entries *map[tableKey]T, table string, ts vclock.Timestamp,
	build func(string, vclock.Timestamp) (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := tableKey{table, ts}
	if e, ok := (*entries)[key]; ok {
		return e, nil
	}
	e, err := build(table, ts)
	if err == nil {
		if *entries == nil {
			*entries = make(map[tableKey]T)
		}
		(*entries)[key] = e
	}
	return e, err
}

// Window returns the table's differential rows with from < TS <= to,
// folded to their net per-tid effect when compact is set. The first
// call per key reads the store; later calls share the entry. Like
// DeltaSince it returns ErrStaleWindow when garbage collection has
// already discarded part of the requested window.
func (c *WindowCache) Window(table string, from, to vclock.Timestamp, compact bool) (*delta.Delta, error) {
	return cached(c, &c.rows, windowKey{table, from, to, compact}, c.s.window)
}

// WindowBatch returns the columnar image of the same window Window
// would return (Store.WindowImage), built once per key and shared
// read-only by every reader of the cache.
func (c *WindowCache) WindowBatch(table string, from, to vclock.Timestamp, compact bool) (*batch.Batch, error) {
	return cached(c, &c.images, windowKey{table, from, to, compact}, c.s.WindowImage)
}

// cached serves key from entries, or builds it under the cache lock so
// each form of a window is built exactly once, one miss per build.
func cached[T any](c *WindowCache, entries *map[windowKey]T, key windowKey,
	build func(string, vclock.Timestamp, vclock.Timestamp, bool) (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := (*entries)[key]; ok {
		c.hits++
		if m := c.s.met; m != nil {
			m.windowHits.Inc()
		}
		return e, nil
	}
	e, err := build(key.table, key.from, key.to, key.compact)
	if err != nil {
		return e, err
	}
	c.misses++
	if m := c.s.met; m != nil {
		m.windowMisses.Inc()
	}
	if *entries == nil {
		*entries = make(map[windowKey]T)
	}
	(*entries)[key] = e
	return e, nil
}

// Len counts the table's differential rows with from < TS <= to in the
// live log, without copying them or touching the cache. It fails like
// Window on an unknown table or a collected window.
func (c *WindowCache) Len(table string, from, to vclock.Timestamp) (int, error) {
	s := c.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.windowTableLocked(table, from)
	if err != nil {
		return 0, err
	}
	return len(t.dlt.WindowRows(from, to)), nil
}

// Stats reports the cache's hit/miss counts.
func (c *WindowCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// WindowImage builds the columnar image of the table's differential
// window from < TS <= to in the ordered signed form (TS column set),
// folded to its net per-tid effect when compact is set (delta.Fold). It
// is one pass over the live log under the read lock: no row-form copy
// of the window is made. The image is unpooled and owns its columns.
func (s *Store) WindowImage(table string, from, to vclock.Timestamp, compact bool) (*batch.Batch, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.windowTableLocked(table, from)
	if err != nil {
		return nil, err
	}
	rows := t.dlt.WindowRows(from, to)
	b := batch.New(t.rel.Schema(), 2*len(rows))
	b.EnableTS()
	ok := true
	if compact {
		delta.Fold(rows, func(r delta.Row) { ok = ok && b.AppendChange(r) })
	} else {
		for i := 0; ok && i < len(rows); i++ {
			ok = b.AppendChange(rows[i])
		}
	}
	if !ok {
		// Cannot happen: every stored value was conformed to its column
		// at the write boundary (Tx) or on recovery.
		return nil, fmt.Errorf("storage: window of %q: %w", table, relation.ErrTypeMismatch)
	}
	return b, nil
}

// TableImage builds the columnar image of the table as of ts: every
// row of its state at ts as one +1 row (TS column unset), in no
// particular order — the operand of an initial execution, which the
// differential kernels evaluate as one step from the empty state with
// ΔR = R. It is one pass over the live relation and the log after ts
// under the read lock: a row untouched since ts is read in place, and a
// row touched since takes its values from the first log row after ts
// (its Old; no row when that first row inserted it). No copy of the
// table is made and nothing is unapplied. Like a window it fails with
// ErrStaleWindow once garbage collection has passed ts. The image owns
// its columns and shares string payloads with the committed rows, which
// nobody writes (see delta.Row).
func (s *Store) TableImage(table string, ts vclock.Timestamp) (*batch.Batch, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.windowTableLocked(table, ts)
	if err != nil {
		return nil, err
	}
	if m := s.met; m != nil {
		m.snapshots.Inc()
	}
	after := t.dlt.After(ts).Rows()
	b := batch.New(t.rel.Schema(), t.rel.Len()+len(after))
	// byTID lists the rows after ts by tid, earliest first within a tid:
	// the first of each tid holds the row's state at ts.
	byTID := make([]int32, len(after))
	for i := range byTID {
		byTID[i] = int32(i)
	}
	slices.SortStableFunc(byTID, func(i, j int32) int { return cmp.Compare(after[i].TID, after[j].TID) })
	touched := func(tid relation.TID) bool {
		_, found := slices.BinarySearchFunc(byTID, tid, func(i int32, tid relation.TID) int {
			return cmp.Compare(after[i].TID, tid)
		})
		return found
	}
	ok := true
	for _, tu := range t.rel.Tuples() {
		if len(after) == 0 || !touched(tu.TID) {
			ok = ok && b.AppendRow(tu.TID, +1, tu.Values)
		}
	}
	for k, i := range byTID {
		r := &after[i]
		if (k == 0 || after[byTID[k-1]].TID != r.TID) && r.Old != nil {
			ok = ok && b.AppendRow(r.TID, +1, r.Old)
		}
	}
	if !ok {
		// Cannot happen: every stored value was conformed to its column.
		return nil, fmt.Errorf("storage: image of %q: %w", table, relation.ErrTypeMismatch)
	}
	return b, nil
}

// window is the row form of one differential window (from < TS <= to),
// optionally compacted: row headers of its own over the shared values,
// so it survives a concurrent TruncateBefore.
func (s *Store) window(table string, from, to vclock.Timestamp, compact bool) (*delta.Delta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.windowTableLocked(table, from)
	if err != nil {
		return nil, err
	}
	w := t.dlt.Window(from, to)
	if compact {
		return w.Compact(), nil
	}
	return w.Detach(), nil
}

// windowTableLocked resolves the table a window (from, …] is read from,
// failing when garbage collection has discarded rows past from. Caller
// holds s.mu.
func (s *Store) windowTableLocked(table string, from vclock.Timestamp) (*Table, error) {
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
	return t, nil
}
