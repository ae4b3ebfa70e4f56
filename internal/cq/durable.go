package cq

import (
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
// manager unchanged. This is what makes delivered notifications
// at-most-once across crashes — an execution whose record was never
// written was also never delivered, so after recovery its trigger
// simply re-fires and the refresh re-runs differentially.
//
// An execution is recorded by StageCQExec: the record waits in the
// journal's buffer until a Flush writes it. A private refresh flushes at
// once and delivers inline. A template member, streaming from its
// group, leaves its notification waiting on the instance until the
// refresh worker's Flush has written the record (refresh.go, outbox) —
// one write per worker for a round of members, not one per member.
// Every write carries the staged records ahead of its own, so the log
// holds the records in call order, and a crash can forget only
// executions that delivered nothing: recovery resumes such a CQ at its
// last written execution and re-derives the change there, as if the
// crash had come just before the refresh journaled.
//
// The journal sees a CQ's bookkeeping, never its result: a resumed CQ
// re-derives its result by one initial execution at LastExec. The
// durable journal is the write-ahead log itself (*wal.Log), whose fold
// of these records (wal.Registry) is the registry a checkpoint holds
// and recovery resumes; only Health is not journaled (ReadHealth).
type Journal interface {
	// AppendCQRegister records a new CQ's definition and bookkeeping.
	AppendCQRegister(e *wal.CQEntry) error
	// StageCQExec records one refresh — its sequence number, execution
	// timestamp and whether it ended the sequence — and stages the
	// record: the next write, Flush or any other record, carries it.
	StageCQExec(name string, seq int, ts vclock.Timestamp, terminated bool) error
	// Flush writes every staged record. A failure is final: the journal
	// stops, and no later call succeeds.
	Flush() error
	// AppendCQDrop records removal; its record is written when it returns,
	// carrying the staged records ahead of it.
	AppendCQDrop(name string) error
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

// Resume reinstalls recovered CQs without journaling: each entry's
// Seq/LastExec carry on the result sequence exactly where the previous
// incarnation stopped, the result is re-derived by one initial
// execution over the store at LastExec, and the trigger starts
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
	var rd round
	for i := range entries {
		e := &entries[i]
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
	return def, nil
}
