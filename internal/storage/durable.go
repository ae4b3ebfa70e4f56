package storage

import (
	"fmt"
	"slices"
	"sort"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// WALSink receives the durable form of every state change the store
// commits, BEFORE the change is applied in memory (write-ahead order):
// a sink error fails the operation and leaves the store untouched, so
// the store never holds state the log cannot reproduce (or, for a
// Tx.SetJournal commit, its journal step). *wal.Log satisfies this
// interface directly; internal/durable wraps it to count commits for
// auto-checkpointing.
type WALSink interface {
	AppendTx(ts vclock.Timestamp, rows []wal.TxRow) error
	AppendCreateTable(name string, schema relation.Schema) error
	AppendDropTable(name string) error
}

// SetWALSink attaches a write-ahead sink. Set it AFTER recovery replay
// (replayed changes must not be re-logged) and before the store is
// shared. A nil sink detaches.
func (s *Store) SetWALSink(sink WALSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
}

// State is a consistent cut of the whole store: the logical clock, the
// tid allocator, and every table's base relation, retained differential
// relation, GC low-water mark and change counter. The counters stay in
// the cut for the checkpoint format and for ChangeCounts' readers (the
// repo benchmark); no evaluator validates state by them — a dra.Prepared
// keeps its state at one position instead.
type State struct {
	TS      vclock.Timestamp
	NextTID uint64
	Tables  []wal.TableState
}

// CheckpointState copies the store state under the store lock and, at
// the same consistent point, runs cut — the caller rotates the WAL
// there, so the returned state plus the replay of segments at or after
// the rotation reproduces the live store exactly.
//
// The copy is of tuple and row headers only; their value slices are
// shared with the store. That is safe because a committed value slice
// is never written (Relation.Update replaces a tuple's slice, Delete
// swaps headers), while the headers themselves are rewritten in place
// (Delete's swap, TruncateBefore's shift and clearing of vacated slots)
// and so must be copied here.
func (s *Store) CheckpointState(cut func() error) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cut != nil {
		if err := cut(); err != nil {
			return State{}, err
		}
	}
	st := State{TS: s.clock.Now(), NextTID: uint64(s.nextID)}
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	// Deterministic order keeps checkpoint bytes reproducible.
	sort.Strings(names)
	for _, name := range names {
		t := s.tables[name]
		st.Tables = append(st.Tables, wal.TableState{
			Name:      name,
			Schema:    t.rel.Schema(),
			Tuples:    slices.Clone(t.rel.Tuples()),
			DeltaRows: slices.Clone(t.dlt.Rows()),
			LowWater:  t.lowWater,
			Version:   t.version,
		})
	}
	return st, nil
}

// Restore loads a checkpointed state into an empty store. It refuses a
// non-empty store: recovery always rebuilds from scratch. The store
// takes ownership of the state's value slices, conforming them in
// place: a caller whose slices are shared (CheckpointState's output
// shares the live store's) clones them first.
func (s *Store) Restore(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tables) != 0 {
		return fmt.Errorf("storage: restore into non-empty store")
	}
	for _, ts := range st.Tables {
		t := &Table{
			store:    s,
			name:     ts.Name,
			rel:      relation.New(ts.Schema),
			dlt:      delta.New(ts.Schema),
			lowWater: ts.LowWater,
			version:  ts.Version,
		}
		for _, tu := range ts.Tuples {
			if err := ts.Schema.Conform(tu.Values); err != nil {
				return fmt.Errorf("storage: restore %q tid %d: %w", ts.Name, tu.TID, err)
			}
			if err := t.rel.Insert(tu); err != nil {
				return fmt.Errorf("storage: restore %q: %w", ts.Name, err)
			}
		}
		for _, r := range ts.DeltaRows {
			if err := conformRow(ts.Schema, &r); err != nil {
				return fmt.Errorf("storage: restore %q delta tid %d: %w", ts.Name, r.TID, err)
			}
			if err := t.dlt.Append(r); err != nil {
				return fmt.Errorf("storage: restore %q delta: %w", ts.Name, err)
			}
			s.noteDeltaAppendLocked(r)
		}
		s.tables[ts.Name] = t
		if m := s.met; m != nil {
			m.deltaTotal.Add(int64(t.dlt.Len()))
			m.tableGauge(ts.Name).Set(int64(t.dlt.Len()))
		}
	}
	s.clock.AdvanceTo(st.TS)
	if relation.TID(st.NextTID) > s.nextID {
		s.nextID = relation.TID(st.NextTID)
	}
	s.recomputeOverloadLocked()
	if m := s.met; m != nil {
		m.tables.Set(int64(len(s.tables)))
	}
	return nil
}

// conformRow passes both halves of a recovered differential row through
// the write boundary's rule, in place. A data directory written before
// the boundary checked kinds can hold untyped NULLs (and INT/FLOAT
// drift); recovery brings them under their columns' types, and a row
// that cannot be is reported like any other record the state cannot
// absorb.
func conformRow(schema relation.Schema, r *delta.Row) error {
	if r.Old != nil {
		if err := schema.Conform(r.Old); err != nil {
			return err
		}
	}
	if r.New != nil {
		return schema.Conform(r.New)
	}
	return nil
}

// ApplyReplay applies one logged transaction during recovery: the same
// apply as Commit, with the logged timestamp and rows instead of a fresh
// tick, and without re-logging. Replay is strict — a row that does not
// apply cleanly means the log and the checkpoint disagree, which is
// corruption, not a crash artifact. A logged transaction is a client's
// (derived commits are re-derived, not logged), so its inserts move the
// tid allocator as its live commit did.
func (s *Store) ApplyReplay(ts vclock.Timestamp, rows []wal.TxRow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range rows {
		tr := &rows[i]
		t, ok := s.tables[tr.Table]
		if !ok {
			return fmt.Errorf("%w: %q in replay", ErrNoSuchTable, tr.Table)
		}
		// The record's slices become the differential row's.
		if err := conformRow(t.rel.Schema(), &tr.Row); err != nil {
			return fmt.Errorf("storage: replay at ts %d: %q tid %d: %w", ts, tr.Table, tr.Row.TID, err)
		}
	}
	if err := s.applyLocked(ts, rows, true, make(map[*Table]int, 1)); err != nil {
		return fmt.Errorf("storage: replay at ts %d: %w", ts, err)
	}
	return nil
}
