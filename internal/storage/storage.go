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
	"slices"
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

// Tx is a transaction. Mutations are buffered in the write set and become
// visible (and are appended to the differential relations) atomically at
// Commit, stamped with a single commit timestamp — so the differential
// relation records the net effect per transaction, as in Example 1.
type Tx struct {
	store *Store
	ops   []wal.TxRow // the write set; TS filled at commit
	done  bool
	// pending maps table/tid to the index in ops of the buffered write,
	// for read-your-writes and intra-tx folding. Indexes (not pointers)
	// are stored because append may reallocate ops.
	pending map[string]map[relation.TID]int
	// origin/depth carry materialization provenance onto the commit
	// event (SetOrigin); zero for ordinary client transactions.
	origin  string
	depth   int
	journal func(ts vclock.Timestamp) error // see SetJournal
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

// SetJournal makes step the transaction's write-ahead step in place of
// the store's WAL sink: Commit calls it with the commit timestamp under
// the store lock, and its error fails the commit with the store
// untouched. A materializing CQ journals its derived commit this way.
func (tx *Tx) SetJournal(step func(ts vclock.Timestamp) error) {
	tx.journal = step
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
	return &tx.ops[i].Row, true
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

// Insert buffers an insertion and returns the assigned tid: a fresh one
// from the store's allocator, drawn past any tid this transaction
// already holds in the table (InsertWithTID may have claimed the next
// one before the allocator moved).
func (tx *Tx) Insert(table string, values []relation.Value) (relation.TID, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	row, err := tx.conformed("insert into", table, values)
	if err != nil {
		return 0, err
	}
	tid := tx.store.NewTID()
	for {
		if _, held := tx.pending[table][tid]; !held {
			break
		}
		tid = tx.store.NewTID()
	}
	tx.ops = append(tx.ops, wal.TxRow{Table: table, Row: delta.Row{TID: tid, New: row}})
	tx.pendingFor(table)[tid] = len(tx.ops) - 1
	return tid, nil
}

// InsertWithTID buffers an insertion with a caller-chosen tid (used by
// translators replaying external identities, e.g. Example 1's tids). A
// client's commit moves the tid allocator past it; a derived one
// (SetOrigin, CommitAt) does not. A tid this transaction already holds
// live in the table — inserted or updated, not deleted — is refused with
// ErrWriteConflict and buffers nothing.
func (tx *Tx) InsertWithTID(table string, tid relation.TID, values []relation.Value) error {
	if tx.done {
		return ErrTxDone
	}
	if p, ok := tx.pendingRow(table, tid); ok && p.New != nil {
		return fmt.Errorf("%w: insert tid %d, which this tx already holds in %q", ErrWriteConflict, tid, table)
	}
	row, err := tx.conformed("insert into", table, values)
	if err != nil {
		return err
	}
	tx.ops = append(tx.ops, wal.TxRow{Table: table, Row: delta.Row{TID: tid, New: row}})
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
	tx.ops = append(tx.ops, wal.TxRow{Table: table, Row: delta.Row{TID: tid, Old: old, New: row}})
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
	tx.ops = append(tx.ops, wal.TxRow{Table: table, Row: delta.Row{TID: tid, Old: old}})
	tx.pendingFor(table)[tid] = len(tx.ops) - 1
	return nil
}

// Commit applies the write set atomically and appends the net per-tuple
// changes to the differential relations with a single commit timestamp.
func (tx *Tx) Commit() (vclock.Timestamp, error) {
	return tx.commit(0)
}

// CommitAt applies the write set as the commit at ts that recovery
// re-derives (SetJournal): no clock tick, write-ahead step or commit
// hook, and, as for every derived commit, no move of the tid allocator.
func (tx *Tx) CommitAt(ts vclock.Timestamp) error {
	_, err := tx.commit(ts)
	return err
}

// commit is Commit, or with at > 0 CommitAt.
func (tx *Tx) commit(at vclock.Timestamp) (vclock.Timestamp, error) {
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

	// An insert deleted in the same tx voids its op, which drops out.
	rows := tx.ops[:0]
	for _, op := range tx.ops {
		if op.Row.Old != nil || op.Row.New != nil {
			rows = append(rows, op)
		}
	}

	// Hard degraded mode rejects writes outright: retention is past the
	// hard watermark, so accepting more deltas would grow the backlog
	// the overload is made of. Reads and GC still run; the level drops
	// (hysteresis in recomputeOverloadLocked) once GC catches up.
	if s.overload == OverloadHard && len(rows) > 0 {
		if m := s.met; m != nil {
			m.overloadRejects.Inc()
		}
		return 0, fmt.Errorf("%w: %d delta rows retained (hard watermark %d rows / %d bytes)",
			ErrOverloaded, s.deltaRows, s.wm.HardRows, s.wm.HardBytes)
	}

	// Validate first so commit is all-or-nothing.
	for _, op := range rows {
		t, ok := s.tables[op.Table]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, op.Table)
		}
		switch op.Row.Kind() {
		case delta.Insert:
			if t.rel.Has(op.Row.TID) {
				return 0, fmt.Errorf("%w: insert tid %d exists in %q", ErrWriteConflict, op.Row.TID, op.Table)
			}
		case delta.Delete, delta.Modify:
			cur, ok := t.rel.Lookup(op.Row.TID)
			if !ok {
				return 0, fmt.Errorf("%w: tid %d gone from %q", ErrWriteConflict, op.Row.TID, op.Table)
			}
			if !slices.EqualFunc(cur.Values, op.Row.Old, relation.Value.Equal) {
				return 0, fmt.Errorf("%w: tid %d changed under tx in %q", ErrWriteConflict, op.Row.TID, op.Table)
			}
		}
	}

	ts := at
	if at == 0 {
		ts = s.clock.Tick()
		for i := range rows {
			rows[i].Row.TS = ts
		}
		// Write-ahead: the commit is logged before any in-memory state
		// changes. A failure fails the whole commit with the store
		// untouched (the consumed clock tick leaves a harmless gap).
		var err error
		switch {
		case tx.journal != nil:
			err = tx.journal(ts)
		case s.sink != nil:
			err = s.sink.AppendTx(ts, rows)
		}
		if err != nil {
			return 0, fmt.Errorf("storage: log commit: %w", err)
		}
	}

	touched := make(map[*Table]int, 1)
	client := at == 0 && tx.origin == ""
	if err := s.applyLocked(ts, rows, client, touched); err != nil || at != 0 {
		return ts, err
	}
	if m := s.met; m != nil {
		m.commits.Inc()
		m.commitRows.Add(int64(len(rows)))
		m.commitNS.Observe(time.Since(commitStart))
	}
	// The commit hook fires under s.mu after the state applies, so a
	// consumer sees events in strict commit order and every event's
	// delta window is already readable.
	if h := s.hook; h != nil && len(rows) > 0 {
		ev := CommitEvent{TS: ts, At: time.Now(), Overload: s.overload, Changes: make([]TableChange, 0, len(touched)),
			Origin: tx.origin, Depth: tx.depth}
		for t, n := range touched {
			ev.Changes = append(ev.Changes, TableChange{Table: t.name, Rows: n})
		}
		h(ev)
	}
	return ts, nil
}

// applyLocked applies rows committed at ts to their tables and
// differential relations — for Commit, CommitAt and ApplyReplay — and
// counts the rows appended per table into touched. Only replay can meet
// a row that does not apply: a commit validated its rows. A client's
// rows (client: a Commit not tagged by SetOrigin, or its replay) move
// the tid allocator past every tid they insert, so a tid the client
// chose (InsertWithTID) is never handed out again, live or after
// recovery; a derived commit's tids (a GROUP BY target's key hashes)
// leave it where it is. Caller holds s.mu.
func (s *Store) applyLocked(ts vclock.Timestamp, rows []wal.TxRow, client bool, touched map[*Table]int) error {
	for _, tr := range rows {
		t, ok := s.tables[tr.Table]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchTable, tr.Table)
		}
		row := tr.Row
		row.TS = ts
		var err error
		switch row.Kind() {
		case delta.Insert:
			err = t.rel.Insert(relation.Tuple{TID: row.TID, Values: row.New})
		case delta.Delete:
			err = t.rel.Delete(row.TID)
		case delta.Modify:
			err = t.rel.Update(row.TID, row.New)
		}
		if err == nil {
			err = t.dlt.Append(row)
		}
		if err != nil {
			return fmt.Errorf("storage: apply %q tid %d: %w", tr.Table, row.TID, err)
		}
		s.noteDeltaAppendLocked(row)
		touched[t]++
		// The top tid has no successor: the allocator stays put.
		if client && row.Kind() == delta.Insert && row.TID >= s.nextID && row.TID != ^relation.TID(0) {
			s.nextID = row.TID + 1
		}
	}
	for t := range touched {
		t.version++
		if m := s.met; m != nil {
			m.tableGauge(t.name).Set(int64(t.dlt.Len()))
		}
	}
	if m := s.met; m != nil {
		m.deltaTotal.Add(int64(len(rows)))
	}
	s.clock.AdvanceTo(ts)
	if len(rows) > 0 {
		s.recomputeOverloadLocked()
	}
	return nil
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
