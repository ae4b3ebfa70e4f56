package wal

import (
	"cmp"
	"fmt"
	"slices"
)

// Registry is the fold of the CQ records, in log order: a registration
// installs a CQ's entry, an execution moves its Seq, LastExec and
// Terminated, a drop removes it. Scan folds the checkpoint's entries and
// the segments after its cut; the live log folds every record it
// stages, so a rotation's cut holds what replaying the segments before
// it computes. Health is not journaled: an entry keeps the one it was
// registered or checkpointed with. The zero value is empty.
type Registry struct {
	cqs map[string]*registered
	n   uint64 // registrations so far
}

type registered struct {
	CQEntry
	n uint64 // its registration's number: Entries keeps their order
}

// Apply folds one record; other kinds than the CQ records pass. An
// execution of a CQ that is not registered is refused.
func (r *Registry) Apply(rec *Record) error {
	switch rec.Kind {
	case KindCQRegister:
		if r.cqs == nil {
			r.cqs = make(map[string]*registered)
		}
		r.n++
		r.cqs[rec.CQ.Name] = &registered{CQEntry: *rec.CQ, n: r.n}
	case KindCQExec:
		c := r.cqs[rec.Name]
		if c == nil {
			return fmt.Errorf("wal: execution record for unregistered cq %q", rec.Name)
		}
		c.Seq, c.LastExec, c.Terminated = rec.Seq, rec.ExecTS, rec.Terminated
	case KindCQDrop:
		delete(r.cqs, rec.Name)
	}
	return nil
}

// Entries returns a copy of the registered CQs' entries in registration
// order.
func (r *Registry) Entries() []CQEntry {
	cs := make([]*registered, 0, len(r.cqs))
	for _, c := range r.cqs {
		cs = append(cs, c)
	}
	slices.SortFunc(cs, func(a, b *registered) int { return cmp.Compare(a.n, b.n) })
	out := make([]CQEntry, len(cs))
	for i, c := range cs {
		out[i] = c.CQEntry
	}
	return out
}

func (r *Registry) seed(entries []CQEntry) {
	for i := range entries {
		_ = r.Apply(&Record{Kind: KindCQRegister, CQ: &entries[i]})
	}
}
