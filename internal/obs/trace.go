package obs

import (
	"sync"
	"time"
)

// Field is one key/value annotation on a span. Values are int64 — every
// quantity the engine traces (rows, terms, bytes, timestamps) is a
// count, which keeps spans allocation-light.
type Field struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// Span is one timed region of a refresh. A span is owned by a single
// goroutine while open; once its root is finished and recorded it
// belongs to the log, which may hand its memory to a later Start when
// the ring evicts it: after Finish the owner must not touch a root span
// again. Readers see copies (TraceLog.Recent), never the ring's spans.
type Span struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Fields   []Field       `json:"fields,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	log  *TraceLog // set on roots; recorded at Finish
	done bool
	// buf backs Fields up to the widest span the engine records (a
	// maintainer's cq.refresh: ten fields), so annotating a span
	// allocates nothing beyond the span itself.
	buf [10]Field
}

func newSpan(name string, log *TraceLog) *Span {
	sp := &Span{}
	sp.open(name, log)
	return sp
}

// open (re)starts sp as a fresh span, keeping only its memory: the
// field buffer and the children slice's backing.
func (sp *Span) open(name string, log *TraceLog) {
	clear(sp.Children)
	*sp = Span{Name: name, Start: time.Now(), Children: sp.Children[:0], log: log}
	sp.Fields = sp.buf[:0]
}

// clone deep-copies a finished span for a reader.
func (sp *Span) clone() *Span {
	c := &Span{Name: sp.Name, Start: sp.Start, Duration: sp.Duration, done: true}
	c.Fields = append(c.buf[:0], sp.Fields...)
	for _, ch := range sp.Children {
		c.Children = append(c.Children, ch.clone())
	}
	return c
}

// SetField annotates the span. Nil-safe.
func (sp *Span) SetField(key string, value int64) {
	if sp == nil {
		return
	}
	sp.Fields = append(sp.Fields, Field{Key: key, Value: value})
}

// Child opens a sub-span. Nil-safe: a nil parent yields a nil child.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	c := newSpan(name, nil)
	sp.Children = append(sp.Children, c)
	return c
}

// Finish stamps the duration; on a root span it also records the
// completed trace into the owning log, which owns the span from then on.
// Nil-safe; a second Finish is a no-op, for a root only until the log
// reuses it.
func (sp *Span) Finish() {
	if sp == nil || sp.done {
		return
	}
	sp.done = true
	sp.Duration = time.Since(sp.Start)
	if sp.log != nil {
		sp.log.record(sp)
	}
}

// TraceLog is a fixed-capacity ring buffer of recent finished root
// spans. Recording happens once per refresh (not per event), so a mutex
// is fine here. A root span the ring evicts is reused by a later Start,
// so once the ring has filled, tracing a refresh allocates nothing. A
// nil *TraceLog is a valid no-op tracer.
type TraceLog struct {
	mu   sync.Mutex
	buf  []*Span
	next int
	n    int
	// free holds the evicted roots Start reuses. It never holds more
	// than the roots open at once: each Start takes one, each eviction
	// returns one.
	free []*Span
}

// NewTraceLog creates a ring holding the last capacity root spans.
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*Span, capacity)}
}

// Start opens a root span, in the memory of one the ring evicted when
// there is one; Finish records it into the log. Nil-safe: a nil log
// yields a nil span and the whole trace disappears.
func (l *TraceLog) Start(name string) *Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	var sp *Span
	if n := len(l.free); n > 0 {
		sp = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	if sp == nil {
		return newSpan(name, l)
	}
	sp.open(name, l)
	return sp
}

func (l *TraceLog) record(sp *Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if old := l.buf[l.next]; old != nil {
		l.free = append(l.free, old)
	}
	l.buf[l.next] = sp
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// Recent returns copies of the recorded traces, newest first: the
// caller owns them, and they stay as they are however often the ring
// wraps and reuses the spans they were copied from.
func (l *TraceLog) Recent() []*Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Span, 0, l.n)
	for i := 0; i < l.n; i++ {
		idx := (l.next - 1 - i + len(l.buf)) % len(l.buf)
		out = append(out, l.buf[idx].clone())
	}
	return out
}

// Len reports how many traces are recorded.
func (l *TraceLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
