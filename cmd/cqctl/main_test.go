package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/storage"
)

// startServer brings up an instrumented daemon with one seeded table,
// mirroring what `cqd -demo` does.
func startServer(t *testing.T) (addr string, store *storage.Store) {
	t.Helper()
	store = storage.NewStore()
	reg := obs.NewRegistry()
	store.Instrument(reg)
	schema, err := relation.NewSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CreateTable("stocks", schema); err != nil {
		t.Fatal(err)
	}
	tx := store.Begin()
	for _, row := range [][]relation.Value{
		{relation.Str("DEC"), relation.Float(150)},
		{relation.Str("IBM"), relation.Float(75)},
	} {
		if _, err := tx.Insert("stocks", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(store)
	srv.Instrument(reg)
	addr, err = srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, store
}

// captureStdout runs fn with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	_ = w.Close()
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("run: %v\noutput:\n%s", runErr, out)
	}
	return string(out)
}

func TestStatsSubcommand(t *testing.T) {
	addr, _ := startServer(t)

	// Generate some server work so the counters are non-zero.
	out := captureStdout(t, func() error {
		return run([]string{"-addr", addr, "query", "SELECT * FROM stocks WHERE price > 120"})
	})
	if !strings.Contains(out, "DEC") {
		t.Fatalf("query output missing row: %q", out)
	}

	out = captureStdout(t, func() error {
		return run([]string{"-addr", addr, "stats"})
	})
	for _, want := range []string{
		"counters",
		"remote.queries_served",
		"remote.bytes_out",
		"storage.commits",
		"storage.delta_len.stocks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// queries_served must have counted the query above.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "remote.queries_served") && strings.Contains(line, " 0") {
			t.Errorf("remote.queries_served still zero: %q", line)
		}
	}
}

func TestStatsAgainstUninstrumentedServer(t *testing.T) {
	// A bare server (no Instrument call) answers OpStats from the
	// registry it instruments itself with.
	store := storage.NewStore()
	srv := remote.NewServer(store)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	out := captureStdout(t, func() error {
		return run([]string{"-addr", addr, "stats"})
	})
	if !strings.Contains(out, "remote.queries_served") {
		t.Errorf("bare server's stats miss its own counters:\n%s", out)
	}
}
