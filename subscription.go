package continual

import (
	"errors"
	"sync"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// BackpressurePolicy selects what happens when a subscription's Updates
// buffer is full. Whatever the policy, the engine never blocks on a slow
// consumer — a consumer that falls behind costs itself changes, never
// the refresh pipeline.
type BackpressurePolicy int

const (
	// DropNewest (the default): the new change is discarded; the
	// consumer keeps its queued backlog and sees the gap in the next
	// delivered Change.Dropped.
	DropNewest BackpressurePolicy = iota
	// DropOldest: the oldest queued change is evicted to make room, so
	// the consumer always converges on the freshest state.
	DropOldest
	// Disconnect: the Updates channel closes. The subscription's
	// Resume method reattaches with a differential catch-up.
	Disconnect
)

// SubscribeOptions tunes SubscribeWith.
type SubscribeOptions struct {
	// Buffer is the Updates channel capacity (default 64).
	Buffer int
	// Policy is the full-buffer backpressure policy.
	Policy BackpressurePolicy
}

// Subscription is a handle on a registered continual query: its current
// result, its update stream, and its lifecycle.
type Subscription struct {
	db      *DB
	name    string
	initial *Rows
	updates chan Change
	cancel  func()
	policy  BackpressurePolicy
	buffer  int
	// dropped counts changes discarded because the Updates channel was
	// full (cq.notifications.dropped, shared with the manager's own
	// subscriber buffers).
	dropped *obs.Counter

	// mu guards the backpressure state below; onNotification runs on a
	// refresh worker while Resume/Disconnected run on consumer
	// goroutines.
	mu           sync.Mutex
	droppedSince int
	lastSeq      int
	disconnected bool
}

// Name returns the continual query's name.
func (s *Subscription) Name() string { return s.name }

// Initial returns the result of the query's initial execution.
func (s *Subscription) Initial() *Rows { return s.initial }

// Result returns a snapshot of the query's current complete result
// (maintained incrementally by the engine).
func (s *Subscription) Result() (*Rows, error) {
	rel, err := s.db.manager.Result(s.name)
	if err != nil {
		return nil, err
	}
	return fromRelation(rel), nil
}

// Updates streams one Change per refresh that produced a difference (or
// per refresh at all, with NotifyEmpty). The channel closes when the
// query is dropped, the engine closes, or the Disconnect policy fires.
func (s *Subscription) Updates() <-chan Change { return s.updates }

// Refresh forces a re-evaluation regardless of the trigger condition.
func (s *Subscription) Refresh() error { return s.db.manager.Refresh(s.name) }

// Drop unregisters the continual query.
func (s *Subscription) Drop() error { return s.db.manager.Drop(s.name) }

// Disconnected reports whether the Disconnect policy closed this
// subscription's Updates channel (the query itself is still running).
func (s *Subscription) Disconnected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disconnected
}

// Resume reattaches a subscription whose channel the Disconnect policy
// closed. It returns a fresh Subscription (same buffer and policy) plus
// a catch-up Change: the query's complete current result, with Dropped
// set to the number of refreshes missed while detached. The snapshot and
// the reattachment are atomic, so the new Updates stream continues
// gap-free from the catch-up point — the engine's differential catch-up
// applied to a slow consumer instead of a crashed one.
func (s *Subscription) Resume() (*Subscription, *Change, error) {
	s.mu.Lock()
	last := s.lastSeq
	pol, buf := s.policy, s.buffer
	s.mu.Unlock()
	ns := &Subscription{
		db:      s.db,
		name:    s.name,
		updates: make(chan Change, buf),
		policy:  pol,
		buffer:  buf,
		dropped: s.db.metrics.Counter("cq.notifications.dropped"),
	}
	cancel, catch, err := s.db.manager.ResubscribeFunc(
		cq.ResumeToken{CQ: s.name, Seq: last}, ns.onNotification)
	if err != nil {
		return nil, nil, err
	}
	ns.cancel = cancel
	ns.lastSeq = catch.Seq
	ns.initial = fromRelation(catch.Complete)
	change := toChange(catch)
	// The catch-up always carries the complete result, whatever the
	// query's notification mode: a resumed consumer rebases on state,
	// not on a differential it partially missed.
	change.Complete = rowsData(catch.Complete)
	return ns, &change, nil
}

// toChange converts an internal notification to the public Change
// shape, reading the notification's delta rows straight into Change rows
// in row order: the new half of an insert or modify row into Inserted
// (left nil in deletions mode), the old half of a delete or modify row
// into Deleted, both halves of a modify row into Modified. The notifier
// nets a refresh's delta to one row per tid, so these are exactly the
// notification's Inserted, Deleted and Modified views.
func toChange(n cq.Notification) Change {
	change := Change{
		CQ:         n.CQName,
		Seq:        n.Seq,
		Terminated: n.Terminated,
		Dropped:    n.Dropped,
	}
	switch {
	case n.Delta != nil:
		change.Columns = columnsOf(n.Delta.Schema())
	case n.Complete != nil:
		change.Columns = columnsOf(n.Complete.Schema())
	}
	var nIns, nDel, nMod int
	if n.Delta != nil {
		nIns, nDel, nMod = n.Delta.Counts()
	}
	inserts := n.Mode != sql.ModeDeletions
	if !inserts {
		nMod = 0
	}
	change.Modified = make([]Modification, 0, nMod)
	if n.Delta != nil {
		if inserts {
			change.Inserted = make([][]any, 0, nIns+nMod)
		}
		change.Deleted = make([][]any, 0, nDel+nMod)
		for _, r := range n.Delta.Rows() {
			if r.Old != nil {
				change.Deleted = append(change.Deleted, anyValues(r.Old))
			}
			if !inserts || r.New == nil {
				continue
			}
			change.Inserted = append(change.Inserted, anyValues(r.New))
			if r.Old != nil {
				change.Modified = append(change.Modified, Modification{Old: anyValues(r.Old), New: anyValues(r.New)})
			}
		}
	}
	if n.Mode == sql.ModeComplete {
		change.Complete = rowsData(n.Complete)
	}
	return change
}

// onNotification converts an internal notification to the public Change
// type and enqueues it under the subscription's backpressure policy. It
// is invoked synchronously while the manager delivers a refresh, so when
// Poll returns the Change is already buffered (or accounted for as a
// drop). Sends never block.
func (s *Subscription) onNotification(n cq.Notification, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disconnected {
		return
	}
	if closed {
		s.disconnected = true
		close(s.updates)
		return
	}
	change := toChange(n)
	change.Dropped += s.droppedSince
	select {
	case s.updates <- change:
		s.droppedSince = 0
		s.lastSeq = n.Seq
		return
	default:
	}
	switch s.policy {
	case DropOldest:
		// Evict the oldest queued change; the gap surfaces in Dropped,
		// and the evictee's own Dropped folds in so the count survives
		// chained evictions. onNotification is the only sender (one
		// callback per CQ at a time), so the retry can lose only to a
		// concurrent receive, which also makes room (and means nothing
		// was dropped after all).
		select {
		case old := <-s.updates:
			s.dropped.Inc()
			change.Dropped += old.Dropped + 1
		default:
		}
		select {
		case s.updates <- change:
			s.droppedSince = 0
			s.lastSeq = n.Seq
		default:
			s.dropped.Inc()
			s.droppedSince = change.Dropped + 1
		}
	case Disconnect:
		s.dropped.Inc()
		s.disconnected = true
		close(s.updates)
		// Detach asynchronously: cancel takes the instance lock the
		// delivering refresh currently holds.
		go s.cancel()
	default: // DropNewest
		s.dropped.Inc()
		s.droppedSince++
	}
}

func columnsOf(schema relation.Schema) []string {
	out := make([]string, schema.Len())
	for i := range out {
		out[i] = schema.Col(i).Name
	}
	return out
}

// Subscribe attaches to an already-registered continual query by name.
// This is how subscribers reattach to a query resumed by OpenDurable,
// whose pre-restart Subscription handles did not survive; Initial holds
// the query's current (recovered) result.
func (db *DB) Subscribe(name string) (*Subscription, error) {
	return db.SubscribeWith(name, SubscribeOptions{})
}

// SubscribeWith attaches to an already-registered continual query with
// an explicit buffer size and backpressure policy.
func (db *DB) SubscribeWith(name string, opts SubscribeOptions) (*Subscription, error) {
	current, err := db.manager.Result(name)
	if err != nil {
		return nil, err
	}
	return db.subscribeWith(name, current, opts)
}

// subscribe wires a freshly registered CQ to a Subscription with
// synchronous delivery and the default policy.
func (db *DB) subscribe(name string, initial *relation.Relation) (*Subscription, error) {
	return db.subscribeWith(name, initial, SubscribeOptions{})
}

func (db *DB) subscribeWith(name string, initial *relation.Relation, opts SubscribeOptions) (*Subscription, error) {
	buf := opts.Buffer
	if buf <= 0 {
		buf = 64
	}
	if opts.Policy < DropNewest || opts.Policy > Disconnect {
		return nil, errors.New("continual: unknown backpressure policy")
	}
	sub := &Subscription{
		db:      db,
		name:    name,
		initial: fromRelation(initial),
		updates: make(chan Change, buf),
		policy:  opts.Policy,
		buffer:  buf,
		dropped: db.metrics.Counter("cq.notifications.dropped"),
	}
	cancel, err := db.manager.SubscribeFunc(name, sub.onNotification)
	if err != nil {
		return nil, err
	}
	sub.cancel = cancel
	return sub, nil
}
