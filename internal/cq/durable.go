package cq

import (
	"errors"
	"fmt"
	"sort"

	"github.com/diorama/continual/internal/epsilon"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/sql"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// Journal receives registry mutations and executions in write-ahead
// order: the manager calls each hook BEFORE the matching in-memory change
// or notification, and a hook error aborts the operation with the
// manager unchanged. So notifications are at-most-once across crashes:
// an execution whose record was never written was never delivered, and
// after recovery its refresh re-runs differentially. The log holds the
// records in call order. A staged execution waits for the next write
// (refresh.go, outbox); a commit into an INTO target writes its record
// in place of its rows, which Replay re-derives.
//
// The journal sees a CQ's bookkeeping, never its result. The durable
// journal is the write-ahead log itself (*wal.Log), whose fold of these
// records (wal.Registry) is the registry a checkpoint holds and recovery
// resumes; only Health is not journaled (ReadHealth).
type Journal interface {
	// AppendCQ writes a registration or drop record, or an execution
	// whose change commits into the INTO target (rec.TS) as that
	// commit's write-ahead step, behind the staged records.
	AppendCQ(rec *wal.Record) error
	// StageCQExec records one refresh — its sequence number, execution
	// timestamp and whether it ended the sequence — and stages the
	// record: the next write, Flush or any other record, carries it.
	StageCQExec(name string, seq int, ts vclock.Timestamp, terminated bool) error
	// Flush writes every staged record. A failure is final: the journal
	// stops, and no later call succeeds.
	Flush() error
}

// entry renders a new instance, which no refresh has reached yet, to
// its durable form: not terminated, and healthy.
func (inst *instance) entry() *wal.CQEntry {
	e := &wal.CQEntry{
		Name:           inst.def.Name,
		Query:          inst.queryText,
		TriggerKind:    int(inst.trigger.Kind),
		TriggerEvery:   inst.trigger.Every,
		TriggerBound:   inst.trigger.Bound,
		TriggerUpdates: inst.trigger.Updates,
		Mode:           int(inst.mode),
		StopAfterN:     inst.stop.AfterN,
		EpsilonMeasure: int(inst.def.EpsilonMeasure),
		NotifyEmpty:    inst.def.NotifyEmpty,
		Seq:            inst.seq,
		LastExec:       inst.lastExec,
	}
	if inst.trigger.On != nil {
		e.TriggerOn = inst.trigger.On.String()
	}
	return e
}

// ReadHealth sets each entry's Health from its CQ's breaker, taking no
// manager or instance lock: a checkpoint records health after its cut.
// An entry whose CQ is gone keeps its own.
func (m *Manager) ReadHealth(entries []wal.CQEntry) {
	for i := range entries {
		if b, ok := m.breakers.Load(entries[i].Name); ok {
			entries[i].Health = b.(*guard.Breaker).State().String()
		}
	}
}

// Resume reinstalls the recovered CQs Replay left, without journaling:
// each entry's Seq/LastExec carry on the result sequence exactly where
// the previous incarnation stopped, the result is re-derived by one
// initial execution over the store at LastExec, and the trigger starts
// observing there (installLocked).
//
// A reseed reads whole tables as of LastExec, and recovered CQs share
// few LastExec values (one or two after a clean close), so the entries
// are resumed in LastExec order, each run of one LastExec as one round:
// one table image (and, for complete re-evaluation, one snapshot) per
// table, released when the run ends. In that order a template group
// only ever steps forward: it is seeded at its earliest member's
// LastExec and stepped to each later one as its members rejoin.
func (m *Manager) Resume(entries ...wal.CQEntry) error {
	entries = append([]wal.CQEntry(nil), entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].LastExec < entries[j].LastExec })
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = nil // the replay is over
	var rd round
	for i := range entries {
		e := &entries[i]
		if _, live := m.cqs[e.Name]; live {
			continue
		}
		def, err := resumedDef(e)
		if err != nil {
			return err
		}
		if rd.cache == nil || rd.ts != e.LastExec {
			m.rounds++
			rd = round{ts: e.LastExec, cache: m.store.NewWindowCache(), n: m.rounds}
		}
		if _, err := m.installLocked(def, e, rd); err != nil {
			return fmt.Errorf("cq %q: resume: %w", e.Name, err)
		}
	}
	return nil
}

// resumedDef renders a durable entry back to its definition.
func resumedDef(e *wal.CQEntry) (Def, error) {
	def := Def{
		Name:  e.Name,
		Query: e.Query,
		Trigger: sql.TriggerSpec{
			Kind:    sql.TriggerKind(e.TriggerKind),
			Every:   e.TriggerEvery,
			Bound:   e.TriggerBound,
			Updates: e.TriggerUpdates,
		},
		Mode:           sql.ResultMode(e.Mode),
		Stop:           sql.StopSpec{AfterN: e.StopAfterN},
		EpsilonMeasure: epsilon.Measure(e.EpsilonMeasure),
		NotifyEmpty:    e.NotifyEmpty,
	}
	if e.TriggerOn != "" {
		on, err := sql.ParseExpr(e.TriggerOn)
		if err != nil {
			return Def{}, fmt.Errorf("cq %q: recovered trigger expression: %w", e.Name, err)
		}
		def.Trigger.On = on
	}
	var err error
	def.Select, err = sql.ParseSelect(e.Query)
	return def, err
}

// errLegacyLog refuses a segment written before derived commits rode
// their CQ records.
var errLegacyLog = errors.New("cq: the log holds a materializing query's rows as transactions (written before derived commits rode their records): open the data directory with the release that wrote it and close it cleanly first")

// Replay folds one record of the log into the manager during recovery,
// in log order and before Resume. A materializing (INTO) CQ registered
// in the checkpoint (replayed as a registration with TS 0) or the log
// goes live at its first record that needs it, and re-derives each
// commit its records carry — its seed, and at each execution the step
// at ExecTS over the store replayed so far — applying it at the
// record's TS by the live path's reconciling apply. Nothing is
// delivered, journaled or hooked; every other CQ is left to Resume. A
// record of a segment written before derived commits rode their CQ
// records is refused once a producer is registered: it may hold the
// producer's rows, cut off from their record by a crash.
func (m *Manager) Replay(rec *wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.Legacy && len(m.cqs)+len(m.pending) > 0 {
		return errLegacyLog
	}
	switch rec.Kind {
	case wal.KindCQRegister:
		def, err := resumedDef(rec.CQ)
		if err != nil || def.Select.Into == "" {
			return err
		}
		if m.pending == nil {
			m.pending = make(map[string]*wal.CQEntry)
		}
		m.pending[def.Name] = rec.CQ
		if rec.TS == 0 {
			return nil
		}
		inst, err := m.liveLocked(def.Name)
		if err == nil {
			err = m.reconcileTarget(inst, inst.prev.Relation(), rec)
		}
		return err
	case wal.KindCQExec:
		inst, err := m.liveLocked(rec.Name)
		if err != nil || inst == nil {
			return err
		}
		return m.replayExec(inst, rec)
	case wal.KindCQDrop:
		delete(m.pending, rec.Name)
		if inst := m.cqs[rec.Name]; inst != nil {
			inst.closeEval()
			m.forgetLocked(inst) // the target's own drop record follows
		}
	}
	return nil
}

// liveLocked returns the live materializing CQ name, installing it at
// its registry entry first if it is pending; nil if it is neither.
// Caller holds m.mu.
func (m *Manager) liveLocked(name string) (*instance, error) {
	e := m.pending[name]
	if e == nil {
		return m.cqs[name], nil
	}
	delete(m.pending, name)
	def, err := resumedDef(e)
	if err == nil {
		m.rounds++
		_, err = m.installLocked(def, e, round{ts: e.LastExec, cache: m.store.NewWindowCache(), n: m.rounds})
	}
	if err != nil {
		return nil, fmt.Errorf("cq %q: replay: %w", name, err)
	}
	return m.cqs[name], nil
}

// replayExec re-derives one execution of a live materializing CQ.
func (m *Manager) replayExec(inst *instance, rec *wal.Record) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	defer inst.res.Clear()
	m.rounds++
	res, err := m.evaluate(inst, round{ts: rec.ExecTS, cache: m.store.NewWindowCache(), n: m.rounds}, nil)
	if err == nil {
		err = res.Fits(inst.prev)
	}
	if err == nil && rec.TS != 0 {
		err = m.commitReconciled(inst, res.Delta.Rows(), rec)
	}
	if err != nil {
		return fmt.Errorf("cq %q: replay execution %d: %w", inst.def.Name, rec.Seq, err)
	}
	m.advanceLocked(inst, res, rec.ExecTS, rec.Seq, rec.Terminated)
	return nil
}
