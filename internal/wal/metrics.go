package wal

import (
	"time"

	"github.com/diorama/continual/internal/obs"
)

// metrics bundles the wal.* instruments. A nil *metrics is valid and
// records nothing, so the log is usable without a registry.
type metrics struct {
	appendNS     *obs.Histogram
	fsyncNS      *obs.Histogram
	checkpointNS *obs.Histogram
	bytes        *obs.Counter
	records      *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		appendNS:     reg.Histogram("wal.append_ns"),
		fsyncNS:      reg.Histogram("wal.fsync_ns"),
		checkpointNS: reg.Histogram("wal.checkpoint_ns"),
		bytes:        reg.Counter("wal.bytes"),
		records:      reg.Counter("wal.records"),
	}
}

// observeAppend records one write of n bytes carrying frames records:
// wal.append_ns samples count writes, wal.records the frames they
// carried, staged or not.
func (m *metrics) observeAppend(d time.Duration, n, frames int) {
	if m == nil {
		return
	}
	m.appendNS.Observe(d)
	m.bytes.Add(int64(n))
	m.records.Add(int64(frames))
}

func (m *metrics) observeFsync(d time.Duration) {
	if m == nil {
		return
	}
	m.fsyncNS.Observe(d)
}

func (m *metrics) observeCheckpoint(d time.Duration) {
	if m == nil {
		return
	}
	m.checkpointNS.Observe(d)
}
