// Package storage implements the in-memory multi-table store that plays
// the role of an information source in the reproduction. Transactions
// (Begin/Insert/Update/Delete/Commit) mutate base relations and, on
// commit, append the net change of the transaction to the table's
// differential relation, timestamped with the store's logical clock —
// exactly the capture discipline of Example 1 in the paper.
//
// The store keeps, per table, the current contents plus the accumulated
// differential relation. Any earlier state within the retained delta
// window can be reconstructed — in row form by SnapshotAt, as a columnar
// image by TableImage — which is how DRA obtains "the contents of each
// base relation after the last execution of the CQ" (input (ii) of
// Algorithm 1) and a CQ its initial execution without the store having to
// keep explicit snapshots.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// Errors returned by the store.
var (
	ErrNoSuchTable   = errors.New("storage: no such table")
	ErrTableExists   = errors.New("storage: table already exists")
	ErrTxDone        = errors.New("storage: transaction already finished")
	ErrNoSuchTuple   = errors.New("storage: no such tuple")
	ErrStaleWindow   = errors.New("storage: requested snapshot is older than the retained delta window")
	ErrWriteConflict = errors.New("storage: write-write conflict")
)

// Table is one base relation plus its differential relation.
type Table struct {
	store *Store // owning store; guards rel/dlt/lowWater with its mutex
	name  string
	rel   *relation.Relation
	dlt   *delta.Delta
	// lowWater is the timestamp up to (and including) which delta rows
	// have been garbage collected; SnapshotAt below it is impossible.
	lowWater vclock.Timestamp
	// version counts committed transactions that touched this table. It
	// never resets (GC does not change base contents), so an unchanged
	// version proves the base relation — at any timestamp — is identical
	// to what it was when the version was last read. The checkpoint
	// carries it; nothing in the engine keys validity off it.
	version uint64
}

// Version returns the table's change counter: the number of committed
// transactions that have touched it since creation.
func (t *Table) Version() uint64 {
	t.store.mu.RLock()
	defer t.store.mu.RUnlock()
	return t.version
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() relation.Schema { return t.rel.Schema() }

// DeltaLen returns the number of retained differential-relation rows —
// the quantity the paper's space argument (Section 5.4) is about, and
// the direct measure of GC effectiveness.
func (t *Table) DeltaLen() int {
	t.store.mu.RLock()
	defer t.store.mu.RUnlock()
	return t.dlt.Len()
}

// LowWater returns the timestamp up to (and including) which delta rows
// have been garbage collected. Snapshot reconstruction below it returns
// ErrStaleWindow.
func (t *Table) LowWater() vclock.Timestamp {
	t.store.mu.RLock()
	defer t.store.mu.RUnlock()
	return t.lowWater
}

// Store is a named collection of tables sharing one logical clock.
// All exported methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	clock  *vclock.Clock
	tables map[string]*Table
	nextID relation.TID
	// met is nil on uninstrumented stores; set once by Instrument before
	// the store is shared, so hot paths read it without synchronization
	// concerns beyond the store mutex they already hold.
	met *metrics
	// sink, when set, receives every committed change in write-ahead
	// order (see SetWALSink in durable.go). Nil on in-memory stores.
	sink WALSink
	// hook, when set, receives every committed transaction under the
	// store mutex, after the commit applies (see SetCommitHook in
	// commithook.go). Nil unless push-based refresh is enabled.
	hook CommitHook

	// Degraded-mode state (see watermark.go): the configured
	// watermarks, the current overload level, the running retained
	// delta volume they are evaluated against, and the transition
	// observer.
	wm         Watermarks
	overload   OverloadLevel
	deltaRows  int
	deltaBytes int64
	pressure   PressureHook
}

// NewStore creates an empty store with a fresh logical clock.
func NewStore() *Store {
	return &Store{
		clock:  vclock.New(),
		tables: make(map[string]*Table),
		nextID: 1,
	}
}

// Clock exposes the store's logical clock (read-only use intended).
func (s *Store) Clock() *vclock.Clock { return s.clock }

// Now returns the current logical time.
func (s *Store) Now() vclock.Timestamp { return s.clock.Now() }

// CreateTable registers a new empty table.
func (s *Store) CreateTable(name string, schema relation.Schema) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if s.sink != nil {
		if err := s.sink.AppendCreateTable(name, schema); err != nil {
			return fmt.Errorf("storage: log create table %q: %w", name, err)
		}
	}
	s.tables[name] = &Table{
		store: s,
		name:  name,
		rel:   relation.New(schema),
		dlt:   delta.New(schema),
	}
	if m := s.met; m != nil {
		m.tables.Set(int64(len(s.tables)))
		m.tableGauge(name).Set(0)
	}
	return nil
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	if s.sink != nil {
		if err := s.sink.AppendDropTable(name); err != nil {
			return fmt.Errorf("storage: log drop table %q: %w", name, err)
		}
	}
	delete(s.tables, name)
	var freedBytes int64
	for _, r := range t.dlt.Rows() {
		freedBytes += approxRowBytes(r)
	}
	s.noteDeltaDropLocked(t.dlt.Len(), freedBytes)
	s.recomputeOverloadLocked()
	if m := s.met; m != nil {
		m.tables.Set(int64(len(s.tables)))
		m.deltaTotal.Add(-int64(t.dlt.Len()))
		m.tableGauge(name).Set(0)
	}
	return nil
}

// Table returns the named table handle for read-only inspection
// (DeltaLen, LowWater, Schema). The handle stays valid after DropTable
// but reports on a detached table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// TableNames lists the tables in sorted order.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schema returns the schema of the named table.
func (s *Store) Schema(table string) (relation.Schema, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return relation.Schema{}, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	return t.rel.Schema(), nil
}

// Snapshot returns a deep copy of the current contents of a table.
func (s *Store) Snapshot(table string) (*relation.Relation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	return t.rel.Clone(), nil
}

// Contents returns the live relation of a table for read-only use by the
// query engine. Callers must not mutate it and must not retain it across
// commits. Use Snapshot for an owned copy.
func (s *Store) Contents(table string) (*relation.Relation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	return t.rel, nil
}

// SnapshotAt reconstructs the contents of the table as of logical time ts
// (i.e. including every commit with timestamp <= ts) by unapplying the
// delta suffix from the current contents.
func (s *Store) SnapshotAt(table string, ts vclock.Timestamp) (*relation.Relation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if ts < t.lowWater {
		if m := s.met; m != nil {
			m.staleWindow.Inc()
		}
		return nil, fmt.Errorf("%w: want %d, low water %d", ErrStaleWindow, ts, t.lowWater)
	}
	snap := t.rel.Clone()
	if err := t.dlt.After(ts).Unapply(snap); err != nil {
		return nil, fmt.Errorf("snapshot %q at %d: %w", table, ts, err)
	}
	if m := s.met; m != nil {
		m.snapshots.Inc()
	}
	return snap, nil
}

// DeltaSince returns the differential relation rows of the table with
// timestamps strictly greater than ts. The result has row headers of its
// own — later commits and garbage collection leave it intact — and
// shares the committed rows' value slices, which nobody writes (see
// delta.Row): callers must not write them either.
func (s *Store) DeltaSince(table string, ts vclock.Timestamp) (*delta.Delta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.windowTableLocked(table, ts)
	if err != nil {
		return nil, err
	}
	return t.dlt.After(ts).Detach(), nil
}

// DeltaLen returns the number of retained delta rows for a table.
func (s *Store) DeltaLen(table string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	return t.dlt.Len(), nil
}

// ChangeCount returns the per-table change counter (see Table.Version).
// Unknown tables report 0: a cache keyed on the counter then observes a
// "changed" transition the moment the table exists, which is the safe
// direction.
func (s *Store) ChangeCount(table string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return 0
	}
	return t.version
}

// ChangeCounts snapshots every table's change counter in one lock
// acquisition. The engine reads none of them; the counters are kept for
// the checkpoint format and for this API's readers (the repo benchmark).
func (s *Store) ChangeCounts() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.tables))
	for name, t := range s.tables {
		out[name] = t.version
	}
	return out
}

// CollectGarbage drops delta rows with timestamps <= horizon on every
// table (Section 5.4: horizon is the lower boundary of the system active
// delta zone): CollectGarbageTables with every table at horizon. It
// returns the total number of rows collected.
func (s *Store) CollectGarbage(horizon vclock.Timestamp) int {
	s.mu.RLock()
	horizons := make(map[string]vclock.Timestamp, len(s.tables))
	for name := range s.tables {
		horizons[name] = horizon
	}
	s.mu.RUnlock()
	return s.CollectGarbageTables(horizons)
}

// CollectGarbageTables drops delta rows per table at table-specific
// horizons — the cascade-aware refinement of CollectGarbage. A table's
// horizon is the minimum last-execution timestamp over the CQs that
// actually read it, so a derived table's retention extends exactly to
// its slowest downstream consumer while tables with only fast readers
// collect further. Tables absent from the map are left untouched.
// Returns the total number of rows collected.
func (s *Store) CollectGarbageTables(horizons map[string]vclock.Timestamp) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	var freedBytes int64
	for name, horizon := range horizons {
		t, ok := s.tables[name]
		if !ok {
			continue
		}
		for _, r := range t.dlt.Rows() {
			if r.TS > horizon {
				break
			}
			freedBytes += approxRowBytes(r)
		}
		n := t.dlt.TruncateBefore(horizon)
		total += n
		if horizon > t.lowWater {
			t.lowWater = horizon
		}
		if m := s.met; m != nil && n > 0 {
			m.tableGauge(t.name).Set(int64(t.dlt.Len()))
		}
	}
	s.noteDeltaDropLocked(total, freedBytes)
	s.recomputeOverloadLocked()
	if m := s.met; m != nil {
		m.gcRuns.Inc()
		m.gcRows.Add(int64(total))
		m.deltaTotal.Add(-int64(total))
	}
	return total
}

// NewTID allocates a fresh tuple identifier.
func (s *Store) NewTID() relation.TID {
	s.mu.Lock()
	defer s.mu.Unlock()
	tid := s.nextID
	s.nextID++
	return tid
}

// writeOp is one buffered mutation inside a transaction.
type writeOp struct {
	table string
	row   delta.Row // Old/New as in a differential row; TS filled at commit
}

// Tx is a transaction. Mutations are buffered in the write set and become
// visible (and are appended to the differential relations) atomically at
// Commit, stamped with a single commit timestamp — so the differential
// relation records the net effect per transaction, as in Example 1.
type Tx struct {
	store *Store
	ops   []writeOp
	done  bool
	// pending maps table/tid to the index in ops of the buffered write,
	// for read-your-writes and intra-tx folding. Indexes (not pointers)
	// are stored because append may reallocate ops.
	pending map[string]map[relation.TID]int
	// origin/depth carry materialization provenance onto the commit
	// event (SetOrigin); zero for ordinary client transactions.
	origin string
	depth  int
}

// SetOrigin tags the transaction as the materialization of a continual
// query's refresh: origin is the producing CQ, depth is its cascade
// stage plus one. The pair rides the commit event (CommitEvent.Origin/
// Depth), letting the push router and metrics distinguish derived
// deltas — and their hop count — from client writes.
func (tx *Tx) SetOrigin(origin string, depth int) {
	tx.origin = origin
	tx.depth = depth
}

// Begin starts a transaction.
func (s *Store) Begin() *Tx {
	return &Tx{store: s, pending: make(map[string]map[relation.TID]int)}
}

func (tx *Tx) pendingFor(table string) map[relation.TID]int {
	m, ok := tx.pending[table]
	if !ok {
		m = make(map[relation.TID]int)
		tx.pending[table] = m
	}
	return m
}

// pendingRow returns the buffered write for table/tid, if any. The pointer
// is valid only until the next append to tx.ops.
func (tx *Tx) pendingRow(table string, tid relation.TID) (*delta.Row, bool) {
	i, ok := tx.pending[table][tid]
	if !ok {
		return nil, false
	}
	return &tx.ops[i].row, true
}

// conformed is the write boundary: it returns the transaction's own copy
// of a row for table with every value given its column's type
// (relation.Schema.Conform), or the arity or type error that rejects the
// write. Nothing behind it — base relations, differential rows, the log,
// the columnar window images — ever holds a value its column cannot.
//
// The copy is also the last one a value gets: from here on the slice is
// committed as is — the differential row's New and the base relation's
// tuple are the same slice, and a later modification's Old aliases it —
// because a committed value slice is never written (see delta.Row). The
// copy shields all of them from the caller's later writes.
func (tx *Tx) conformed(op, table string, values []relation.Value) ([]relation.Value, error) {
	schema, err := tx.store.Schema(table)
	if err != nil {
		return nil, err
	}
	row := cloneValues(values)
	if err := schema.Conform(row); err != nil {
		return nil, fmt.Errorf("storage: %s %q: %w", op, table, err)
	}
	return row, nil
}

// Insert buffers an insertion and returns the assigned tid.
func (tx *Tx) Insert(table string, values []relation.Value) (relation.TID, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	row, err := tx.conformed("insert into", table, values)
	if err != nil {
		return 0, err
	}
	tid := tx.store.NewTID()
	tx.ops = append(tx.ops, writeOp{table: table, row: delta.Row{TID: tid, New: row}})
	tx.pendingFor(table)[tid] = len(tx.ops) - 1
	return tid, nil
}

// InsertWithTID buffers an insertion with a caller-chosen tid (used by
// translators replaying external identities, e.g. Example 1's tids).
func (tx *Tx) InsertWithTID(table string, tid relation.TID, values []relation.Value) error {
	if tx.done {
		return ErrTxDone
	}
	row, err := tx.conformed("insert into", table, values)
	if err != nil {
		return err
	}
	tx.ops = append(tx.ops, writeOp{table: table, row: delta.Row{TID: tid, New: row}})
	tx.pendingFor(table)[tid] = len(tx.ops) - 1
	return nil
}

// currentValues resolves the visible values of a tuple inside the tx:
// pending writes shadow the committed state.
func (tx *Tx) currentValues(table string, tid relation.TID) ([]relation.Value, error) {
	if p, ok := tx.pendingRow(table, tid); ok {
		if p.New == nil {
			return nil, fmt.Errorf("%w: tid %d deleted in this tx", ErrNoSuchTuple, tid)
		}
		return p.New, nil
	}
	tx.store.mu.RLock()
	defer tx.store.mu.RUnlock()
	t, ok := tx.store.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	tu, ok := t.rel.Lookup(tid)
	if !ok {
		return nil, fmt.Errorf("%w: tid %d in %q", ErrNoSuchTuple, tid, table)
	}
	return tu.Values, nil
}

// Update buffers an in-place modification of the tuple with the given tid.
func (tx *Tx) Update(table string, tid relation.TID, values []relation.Value) error {
	if tx.done {
		return ErrTxDone
	}
	row, err := tx.conformed("update", table, values)
	if err != nil {
		return err
	}
	old, err := tx.currentValues(table, tid)
	if err != nil {
		return err
	}
	if p, ok := tx.pendingRow(table, tid); ok {
		// Fold into the pending op: keep the original Old, replace New.
		p.New = row
		return nil
	}
	tx.ops = append(tx.ops, writeOp{table: table, row: delta.Row{TID: tid, Old: old, New: row}})
	tx.pendingFor(table)[tid] = len(tx.ops) - 1
	return nil
}

// Delete buffers a deletion of the tuple with the given tid.
func (tx *Tx) Delete(table string, tid relation.TID) error {
	if tx.done {
		return ErrTxDone
	}
	old, err := tx.currentValues(table, tid)
	if err != nil {
		return err
	}
	if p, ok := tx.pendingRow(table, tid); ok {
		if p.Old == nil {
			// Inserted in this tx: the op nets to nothing. Mark it void.
			p.New = nil
			p.Old = nil
			return nil
		}
		p.New = nil
		return nil
	}
	tx.ops = append(tx.ops, writeOp{table: table, row: delta.Row{TID: tid, Old: old}})
	tx.pendingFor(table)[tid] = len(tx.ops) - 1
	return nil
}

// Commit applies the write set atomically and appends the net per-tuple
// changes to the differential relations with a single commit timestamp.
func (tx *Tx) Commit() (vclock.Timestamp, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tx.done = true
	s := tx.store
	var commitStart time.Time
	if s.met != nil {
		commitStart = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Hard degraded mode rejects writes outright: retention is past the
	// hard watermark, so accepting more deltas would grow the backlog
	// the overload is made of. Reads and GC still run; the level drops
	// (hysteresis in recomputeOverloadLocked) once GC catches up.
	if s.overload == OverloadHard && len(tx.ops) > 0 {
		if m := s.met; m != nil {
			m.overloadRejects.Inc()
		}
		return 0, fmt.Errorf("%w: %d delta rows retained (hard watermark %d rows / %d bytes)",
			ErrOverloaded, s.deltaRows, s.wm.HardRows, s.wm.HardBytes)
	}

	// Validate first so commit is all-or-nothing.
	for _, op := range tx.ops {
		if op.row.Old == nil && op.row.New == nil {
			continue // voided op (insert+delete in same tx)
		}
		t, ok := s.tables[op.table]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, op.table)
		}
		switch op.row.Kind() {
		case delta.Insert:
			if t.rel.Has(op.row.TID) {
				return 0, fmt.Errorf("%w: insert tid %d exists in %q", ErrWriteConflict, op.row.TID, op.table)
			}
		case delta.Delete, delta.Modify:
			cur, ok := t.rel.Lookup(op.row.TID)
			if !ok {
				return 0, fmt.Errorf("%w: tid %d gone from %q", ErrWriteConflict, op.row.TID, op.table)
			}
			if !valuesEqual(cur.Values, op.row.Old) {
				return 0, fmt.Errorf("%w: tid %d changed under tx in %q", ErrWriteConflict, op.row.TID, op.table)
			}
		}
	}

	ts := s.clock.Tick()

	// Write-ahead: the commit is logged before any in-memory state
	// changes. A sink failure fails the whole commit with the store
	// untouched (the consumed clock tick leaves a harmless gap).
	if s.sink != nil {
		walRows := make([]wal.TxRow, 0, len(tx.ops))
		for i := range tx.ops {
			op := &tx.ops[i]
			if op.row.Old == nil && op.row.New == nil {
				continue
			}
			row := op.row
			row.TS = ts
			walRows = append(walRows, wal.TxRow{Table: op.table, Row: row})
		}
		if err := s.sink.AppendTx(ts, walRows); err != nil {
			return 0, fmt.Errorf("storage: log commit: %w", err)
		}
	}

	appended := 0
	touched := make(map[*Table]int, 1)
	for i := range tx.ops {
		op := &tx.ops[i]
		if op.row.Old == nil && op.row.New == nil {
			continue
		}
		t := s.tables[op.table]
		op.row.TS = ts
		switch op.row.Kind() {
		case delta.Insert:
			_ = t.rel.Insert(relation.Tuple{TID: op.row.TID, Values: op.row.New})
		case delta.Delete:
			_ = t.rel.Delete(op.row.TID)
		case delta.Modify:
			_ = t.rel.Update(op.row.TID, op.row.New)
		}
		if err := t.dlt.Append(op.row); err != nil {
			// Cannot happen: single writer under s.mu, monotone clock.
			return 0, fmt.Errorf("storage: delta append: %w", err)
		}
		s.noteDeltaAppendLocked(op.row)
		appended++
		touched[t]++
	}
	for t := range touched {
		t.version++
	}
	if appended > 0 {
		s.recomputeOverloadLocked()
	}
	if m := s.met; m != nil {
		m.commits.Inc()
		m.commitRows.Add(int64(appended))
		m.deltaTotal.Add(int64(appended))
		for t := range touched {
			m.tableGauge(t.name).Set(int64(t.dlt.Len()))
		}
		m.commitNS.Observe(time.Since(commitStart))
	}
	// The commit hook fires under s.mu after the state applies, so a
	// consumer sees events in strict commit order and every event's
	// delta window is already readable.
	if h := s.hook; h != nil && appended > 0 {
		ev := CommitEvent{TS: ts, At: time.Now(), Overload: s.overload, Changes: make([]TableChange, 0, len(touched)),
			Origin: tx.origin, Depth: tx.depth}
		for t, n := range touched {
			ev.Changes = append(ev.Changes, TableChange{Table: t.name, Rows: n})
		}
		h(ev)
	}
	return ts, nil
}

// Abort discards the transaction.
func (tx *Tx) Abort() {
	tx.done = true
	tx.ops = nil
	tx.pending = nil
}

func cloneValues(vs []relation.Value) []relation.Value {
	if vs == nil {
		return nil
	}
	out := make([]relation.Value, len(vs))
	copy(out, vs)
	return out
}

func valuesEqual(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
