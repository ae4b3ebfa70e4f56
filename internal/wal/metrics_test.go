package wal_test

import (
	"testing"

	"github.com/diorama/continual/internal/faults"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/vclock"
	"github.com/diorama/continual/internal/wal"
)

// wal.append_ns takes one sample per write, wal.records counts the
// frames the writes carried, staged or not, and wal.bytes their size:
// records per write is wal.records over the append_ns count.
func TestMetricsCountWritesAndRecords(t *testing.T) {
	reg := obs.NewRegistry()
	fs := faults.NewMemFS(1)
	l, err := wal.Open("wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check := func(step string, writes, records int64) {
		t.Helper()
		snap := reg.Snapshot()
		if got := snap.Histograms["wal.append_ns"].Count; got != writes {
			t.Errorf("%s: wal.append_ns count = %d, want %d writes", step, got, writes)
		}
		if got := snap.Counter("wal.records"); got != records {
			t.Errorf("%s: wal.records = %d, want %d", step, got, records)
		}
		if got := snap.Histograms["wal.fsync_ns"].Count; got != writes {
			t.Errorf("%s: wal.fsync_ns count = %d, want %d (fsync=always syncs every write)", step, got, writes)
		}
	}
	check("open", 0, 0) // the segment magic is no record
	l.SeedRegistry([]wal.CQEntry{{Name: "q"}})

	if err := l.AppendTx(1, []wal.TxRow{txRow("stocks", 1, 1, "row-000")}); err != nil {
		t.Fatal(err)
	}
	check("append", 1, 1)
	bytesOne := reg.Snapshot().Counter("wal.bytes")
	if bytesOne <= 0 {
		t.Fatalf("wal.bytes = %d after one append", bytesOne)
	}

	for seq := 1; seq <= 16; seq++ {
		if err := l.StageCQExec("q", seq, vclock.Timestamp(seq), false); err != nil {
			t.Fatal(err)
		}
	}
	check("stage", 1, 1) // staged frames are counted when written
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flush", 2, 17)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	check("empty flush", 2, 17)

	if err := l.StageCQExec("q", 17, 17, false); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTx(2, []wal.TxRow{txRow("stocks", 2, 2, "row-001")}); err != nil {
		t.Fatal(err)
	}
	check("staged ahead of an append", 3, 19)
	if got := reg.Snapshot().Counter("wal.bytes"); got <= 2*bytesOne {
		t.Errorf("wal.bytes = %d, want more than two transactions' %d", got, 2*bytesOne)
	}
}
