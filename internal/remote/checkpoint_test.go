package remote

import (
	"strings"
	"testing"

	"github.com/diorama/continual/internal/storage"
)

func TestCheckpointOpRefusedWithoutHandler(t *testing.T) {
	_, _, client := startServer(t)
	err := client.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "no durable store") {
		t.Fatalf("checkpoint on bare server: %v", err)
	}
}

func TestCheckpointOpInvokesHandler(t *testing.T) {
	store := storage.NewStore()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	calls := 0
	srv.SetCheckpointFunc(func() error { calls++; return nil })
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	if err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("handler invoked %d times, want 2", calls)
	}
}

// TestCheckpointOpString names every op, so an error on any request
// reads "remote: <Op>: ...", never "Op?".
func TestCheckpointOpString(t *testing.T) {
	names := map[Op]string{
		OpListTables: "ListTables",
		OpSchema:     "Schema",
		OpSnapshot:   "Snapshot",
		OpDeltaSince: "DeltaSince",
		OpQuery:      "Query",
		OpNow:        "Now",
		OpStats:      "Stats",
		OpCheckpoint: "Checkpoint",
		OpDeps:       "Deps",
	}
	for op := OpListTables; op <= OpDeps; op++ {
		if got, want := op.String(), names[op]; got != want || want == "" {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := (OpDeps + 1).String(); got != "Op?" {
		t.Errorf("an unknown op is %q, want Op?", got)
	}
}
