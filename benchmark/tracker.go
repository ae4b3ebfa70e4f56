package main

import (
	"sort"
	"sync"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/vclock"
)

// commitRec is one tracked commit: when it was due (open loop) or
// issued (closed loop), and when the last witness notified it.
type commitRec struct {
	ts        vclock.Timestamp
	table     int // the table the commit wrote
	due       time.Time
	done      time.Time // arrival of the newest witness notification so far
	remaining int       // witnesses still to notify
	phase     int8
	sample    bool // contributes a latency sample (last commit of a poll group)
}

// Phases of a run; only open and closed are measured.
const (
	phaseWarm int8 = iota
	phaseOpen
	phaseClosed
)

// tracker matches witness notifications to commits. A commit is notified
// when every witness query that reads the table it wrote has delivered a
// notification with ExecTS at or past the commit's timestamp (a query
// whose operands the commit did not touch has nothing to refresh); its
// latency ends at the last of those.
// Notifications may arrive before the committing goroutine has recorded
// the commit (push dispatch is asynchronous), so each witness also keeps
// the newest ExecTS it delivered and when.
type tracker struct {
	mu      sync.Mutex
	commits []commitRec
	reads   [][]bool           // per witness: reads[table] — its operand tables
	cursor  []int              // per witness: first commit it has not notified
	lastTS  []vclock.Timestamp // per witness: newest ExecTS delivered
	lastAt  []time.Time
	lastSeq []int
	acked   int
	wake    chan struct{} // pulsed when a commit becomes fully notified

	seqGaps int
	dropped int

	leafSeen int // newest commit a leaf notification has been matched to
	leafLat  []time.Duration

	spans *spanLog // nil unless tracing
}

func newTracker(witnesses int) *tracker {
	return &tracker{
		reads:    make([][]bool, witnesses),
		cursor:   make([]int, witnesses),
		lastTS:   make([]vclock.Timestamp, witnesses),
		lastAt:   make([]time.Time, witnesses),
		lastSeq:  make([]int, witnesses),
		wake:     make(chan struct{}, 1),
		leafSeen: -1,
	}
}

// callback is the SubscribeFunc body of witness i, whose registration
// produced Seq 1.
func (t *tracker) callback(i int) func(cq.Notification, bool) {
	t.lastSeq[i] = 1
	return func(n cq.Notification, closed bool) {
		if closed {
			return
		}
		now := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		if n.Seq != t.lastSeq[i]+1 {
			t.seqGaps++
		}
		t.lastSeq[i] = n.Seq
		t.dropped += n.Dropped
		if n.ExecTS > t.lastTS[i] {
			t.lastTS[i], t.lastAt[i] = n.ExecTS, now
		}
		c := t.cursor[i]
		for ; c < len(t.commits) && t.commits[c].ts <= n.ExecTS; c++ {
			if rec := &t.commits[c]; t.reads[i][rec.table] {
				t.ack(rec, now)
			}
		}
		t.cursor[i] = c
	}
}

// leafCallback wraps a cascade leaf's callback (inner may be nil): each
// leaf notification is matched to the newest commit it covers, once, and
// the time from that commit to the notification is a leaf latency.
func (t *tracker) leafCallback(inner func(cq.Notification, bool)) func(cq.Notification, bool) {
	return func(n cq.Notification, closed bool) {
		if !closed {
			now := time.Now()
			t.mu.Lock()
			i := sort.Search(len(t.commits), func(i int) bool { return t.commits[i].ts > n.ExecTS }) - 1
			if i > t.leafSeen {
				t.leafSeen = i
				if rec := &t.commits[i]; rec.phase != phaseWarm {
					t.leafLat = append(t.leafLat, now.Sub(rec.due))
				}
			}
			t.mu.Unlock()
		}
		if inner != nil {
			inner(n, closed)
		}
	}
}

// ack records one witness's notification of rec. Caller holds t.mu.
func (t *tracker) ack(rec *commitRec, at time.Time) {
	if at.After(rec.done) {
		rec.done = at
	}
	rec.remaining--
	if rec.remaining > 0 {
		return
	}
	t.acked++
	if t.spans != nil && rec.sample {
		t.spans.add("request", rec.due, rec.done, -1, int64(rec.ts))
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// add records a commit. Witnesses that already delivered a notification
// covering it are credited at the time that notification arrived.
func (t *tracker) add(ts vclock.Timestamp, table int, due time.Time, phase int8, sample bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	readers := 0
	for i := range t.reads {
		if t.reads[i][table] {
			readers++
		}
	}
	t.commits = append(t.commits, commitRec{ts: ts, table: table, due: due, done: due, remaining: readers, phase: phase, sample: sample})
	idx := len(t.commits) - 1
	rec := &t.commits[idx]
	for i := range t.cursor {
		if t.cursor[i] == idx && t.lastTS[i] >= ts {
			t.cursor[i] = idx + 1
			if t.reads[i][table] {
				t.ack(rec, t.lastAt[i])
			}
		}
	}
}

// waitAll blocks until every recorded commit is notified or the timeout
// passes; it reports whether all were.
func (t *tracker) waitAll(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		t.mu.Lock()
		ok := t.acked == len(t.commits)
		t.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-t.wake:
		case <-deadline.C:
			return false
		}
	}
}

// takeFaults returns and clears the sequence gaps and dropped
// notifications the witnesses have seen.
func (t *tracker) takeFaults() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seqGaps + t.dropped
	t.seqGaps, t.dropped = 0, 0
	return n
}

// unacked is the number of recorded commits not yet notified.
func (t *tracker) unacked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.commits) - t.acked
}
