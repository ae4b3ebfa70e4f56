package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one harness-recorded interval at a layer boundary. Times are
// nanoseconds since the log's origin; parent is an index into the same
// log (-1 for roots); trace is the commit timestamp the work belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Trace  int64  `json:"trace"`
}

// spanLog keeps spans in memory until the run ends. It is bounded: past
// maxSpans new spans are counted, not kept, so a long run cannot grow
// the heap it is measuring.
type spanLog struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int
}

const maxSpans = 200_000

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) add(name string, start, end time.Time, parent int32, trace int64) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{
		Name: name, Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
		Parent: parent, Trace: trace,
	})
	return int32(len(l.spans) - 1)
}

// finish closes a span that was added open, before its children ran.
func (l *spanLog) finish(i int32, end time.Time, trace int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = end.Sub(l.origin).Nanoseconds()
	l.spans[i].Trace = trace
}

// write stores the spans under dir as trace-<name>.json.
func (l *spanLog) write(dir, name string, meta map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"meta": meta, "dropped_spans": l.dropped, "spans": l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
