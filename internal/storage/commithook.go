package storage

import (
	"time"

	"github.com/diorama/continual/internal/vclock"
)

// TableChange is one table's share of a committed transaction: the
// number of differential-relation rows the commit appended to it. The
// rows themselves stay in the differential relation, where every reader
// fetches them as part of a window (WindowCache).
type TableChange struct {
	Table string
	Rows  int
}

// CommitEvent describes one committed transaction to a commit hook: the
// commit timestamp, the wall-clock instant the commit applied (the
// anchor for commit-to-notification latency measurements), and the
// per-table change counts. It names what changed, not the changed rows,
// so the hook stays cheap however many consumers fan out behind it.
type CommitEvent struct {
	TS vclock.Timestamp
	At time.Time
	// Overload is the store's degraded-mode level at commit time,
	// carried on the event so a consumer running under the store mutex
	// (the push router) can shed load without calling back into the
	// store.
	Overload OverloadLevel
	Changes  []TableChange
	// Origin names the continual query whose materialization produced
	// this commit (Tx.SetOrigin), empty for ordinary client writes.
	// Depth is that query's cascade stage plus one — the number of
	// materialization hops between the originating client commit and
	// this delta. Routing and metrics use the pair to attribute derived
	// deltas without inspecting table names.
	Origin string
	Depth  int
}

// CommitHook receives every committed transaction, invoked under the
// store mutex immediately after the commit applies — the same ordering
// discipline as the WAL sink (SetWALSink), so events arrive in strict
// commit-timestamp order with the committed state already visible. The
// hook MUST NOT block and MUST NOT call back into the store; it should
// hand the event to its own machinery (the push router enqueues and
// returns). Replayed recovery transactions (ApplyReplay) and
// re-derived commits (Tx.CommitAt) do not fire the hook.
type CommitHook func(ev CommitEvent)

// SetCommitHook attaches (or, with nil, detaches) the commit hook. Set
// it before the store is shared, or detach it before tearing down the
// consumer: the store calls whatever hook is installed at commit time.
func (s *Store) SetCommitHook(h CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}
