package remote

import (
	"testing"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

func stockSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Type: relation.TString},
		relation.Column{Name: "price", Type: relation.TFloat},
	)
}

func startServer(t *testing.T) (*storage.Store, *Server, *Client) {
	t.Helper()
	store := storage.NewStore()
	if err := store.CreateTable("stocks", stockSchema()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
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
	return store, srv, client
}

func insertStock(t *testing.T, s *storage.Store, name string, price float64) relation.TID {
	t.Helper()
	tx := s.Begin()
	tid, err := tx.Insert("stocks", []relation.Value{relation.Str(name), relation.Float(price)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestListTablesAndSchema(t *testing.T) {
	_, _, client := startServer(t)
	tables, err := client.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "stocks" {
		t.Errorf("tables = %v", tables)
	}
	schema, err := client.Schema("stocks")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 2 || schema.Col(1).Name != "price" {
		t.Errorf("schema = %s", schema)
	}
	if _, err := client.Schema("nosuch"); err == nil {
		t.Error("missing table should error through the wire")
	}
}

func TestSnapshotAndQueryOverWire(t *testing.T) {
	store, _, client := startServer(t)
	insertStock(t, store, "DEC", 150)
	insertStock(t, store, "IBM", 75)

	snap, now, err := client.Snapshot("stocks", Latest)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 || now == 0 {
		t.Errorf("snapshot len=%d now=%d", snap.Len(), now)
	}
	res, _, err := client.Query("SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.At(0).Values[0].AsString() != "DEC" {
		t.Errorf("query result:\n%s", res)
	}
	if _, _, err := client.Query("not sql"); err == nil {
		t.Error("bad query should error")
	}
}

func TestDeltaSinceOverWire(t *testing.T) {
	store, _, client := startServer(t)
	insertStock(t, store, "A", 10)
	mark := store.Now()
	tid := insertStock(t, store, "B", 20)
	tx := store.Begin()
	_ = tx.Update("stocks", tid, []relation.Value{relation.Str("B"), relation.Float(25)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	d, _, err := client.DeltaSince("stocks", mark)
	if err != nil {
		t.Fatal(err)
	}
	ins, del, mod := d.Counts()
	if ins != 1 || del != 0 || mod != 1 {
		t.Errorf("delta counts = %d/%d/%d", ins, del, mod)
	}
	// Value fidelity across gob.
	if d.Rows()[1].New[1].AsFloat() != 25 {
		t.Errorf("modified value = %v", d.Rows()[1].New)
	}
}

func TestMirrorCQRefreshesWithDeltasOnly(t *testing.T) {
	store, _, client := startServer(t)
	insertStock(t, store, "DEC", 150)
	insertStock(t, store, "IBM", 75)

	cq, err := NewMirrorCQ(client, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	if cq.Result().Len() != 1 {
		t.Fatalf("initial = %d", cq.Result().Len())
	}

	insertStock(t, store, "MAC", 130)
	tidLow := insertStock(t, store, "LOW", 10)

	d, err := cq.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	ins, del, mod := d.Counts()
	if ins != 1 || del != 0 || mod != 0 {
		t.Errorf("refresh counts = %d/%d/%d", ins, del, mod)
	}
	if cq.Result().Len() != 2 {
		t.Errorf("result = %d", cq.Result().Len())
	}

	// Deletion propagates through the mirror.
	tx := store.Begin()
	_ = tx.Delete("stocks", tidLow)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := cq.Refresh(); err != nil {
		t.Fatal(err)
	}
	if cq.Result().Len() != 2 {
		t.Errorf("result after irrelevant delete = %d", cq.Result().Len())
	}

	// The mirror result always matches a server-side full query.
	truth, _, err := client.Query("SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Result().EqualContents(truth) {
		t.Errorf("mirror diverged:\n%s\nvs\n%s", cq.Result(), truth)
	}
}

func TestMirrorDeltaBytesSmallerThanFullShipping(t *testing.T) {
	store, _, client := startServer(t)
	for i := 0; i < 500; i++ {
		insertStock(t, store, "S", float64(100+i))
	}
	cq, err := NewMirrorCQ(client, "SELECT * FROM stocks WHERE price > 120")
	if err != nil {
		t.Fatal(err)
	}
	base := client.BytesRead()

	// One small update, then refresh via deltas.
	insertStock(t, store, "S", 9999)
	if _, err := cq.Refresh(); err != nil {
		t.Fatal(err)
	}
	deltaBytes := client.BytesRead() - base

	// The same refresh via full-result shipping.
	base = client.BytesRead()
	if _, _, err := client.Query("SELECT * FROM stocks WHERE price > 120"); err != nil {
		t.Fatal(err)
	}
	fullBytes := client.BytesRead() - base

	if deltaBytes*5 > fullBytes {
		t.Errorf("delta shipping (%d B) should be far below full shipping (%d B)", deltaBytes, fullBytes)
	}
}

func TestMirrorCQJoin(t *testing.T) {
	store, _, client := startServer(t)
	if err := store.CreateTable("trades", relation.MustSchema(
		relation.Column{Name: "sym", Type: relation.TString},
		relation.Column{Name: "volume", Type: relation.TInt},
	)); err != nil {
		t.Fatal(err)
	}
	insertStock(t, store, "DEC", 150)
	tx := store.Begin()
	_, _ = tx.Insert("trades", []relation.Value{relation.Str("DEC"), relation.Int(100)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	cq, err := NewMirrorCQ(client, "SELECT s.name, t.volume FROM stocks s JOIN trades t ON s.name = t.sym")
	if err != nil {
		t.Fatal(err)
	}
	if cq.Result().Len() != 1 {
		t.Fatalf("initial join = %d", cq.Result().Len())
	}
	tx = store.Begin()
	_, _ = tx.Insert("trades", []relation.Value{relation.Str("DEC"), relation.Int(500)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := cq.Refresh(); err != nil {
		t.Fatal(err)
	}
	if cq.Result().Len() != 2 {
		t.Errorf("join after refresh = %d", cq.Result().Len())
	}
}

func TestServerStatsCountWork(t *testing.T) {
	store, srv, client := startServer(t)
	insertStock(t, store, "A", 10)
	if _, _, err := client.Query("SELECT * FROM stocks"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.DeltaSince("stocks", 0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	for name, want := range map[string]int64{"remote.queries_served": 1, "remote.windows_pulled": 1, "remote.tuples_executed": 1} {
		if got := st.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestMultipleClients(t *testing.T) {
	store, srv, c1 := startServer(t)
	insertStock(t, store, "A", 10)
	addrClient := func() *Client {
		c, err := Dial(srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	c2 := addrClient()
	c3 := addrClient()
	for _, c := range []*Client{c1, c2, c3} {
		snap, _, err := c.Snapshot("stocks", Latest)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Len() != 1 {
			t.Errorf("client saw %d rows", snap.Len())
		}
	}
}

func TestNowAndBytesWritten(t *testing.T) {
	store, _, client := startServer(t)
	insertStock(t, store, "A", 1)
	now, err := client.Now()
	if err != nil || now == 0 {
		t.Fatalf("Now = %d, %v", now, err)
	}
	if client.BytesWritten() == 0 {
		t.Error("requests should have written bytes")
	}
}

func TestStaleDeltaWindowErrorsOverWire(t *testing.T) {
	store, _, client := startServer(t)
	insertStock(t, store, "A", 1)
	insertStock(t, store, "B", 2)
	store.CollectGarbage(store.Now())
	if _, _, err := client.DeltaSince("stocks", 0); err == nil {
		t.Error("collected window should error through the wire")
	}
}

// TestQueryOverWireBesideWriters: the remote one-shot query reads one
// committed state while a writer commits, and stamps the reply with that
// state's timestamp: the rows must equal the store as of the returned
// Now. (An unlocked scan stamped after the fact fails both ways, and is
// a data race under -race.)
func TestQueryOverWireBesideWriters(t *testing.T) {
	store, _, client := startServer(t)
	for i := 0; i < 8; i++ {
		insertStock(t, store, string(rune('A'+i)), float64(100+i))
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			rel, err := store.Snapshot("stocks")
			if err != nil {
				done <- err
				return
			}
			tx := store.Begin()
			for _, tu := range rel.Tuples() {
				if err := tx.Update("stocks", tu.TID, []relation.Value{tu.Values[0], relation.Float(tu.Values[1].AsFloat() + 1)}); err != nil {
					done <- err
					return
				}
			}
			if _, err := tx.Insert("stocks", []relation.Value{relation.Str("N"), relation.Float(float64(i))}); err != nil {
				done <- err
				return
			}
			if _, err := tx.Commit(); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		got, now, err := client.Query("SELECT * FROM stocks")
		if err != nil {
			t.Fatal(err)
		}
		want, err := store.SnapshotAt("stocks", now)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualByTID(want) {
			t.Fatalf("query %d: %d rows stamped %d, the store at %d has %d", i, got.Len(), now, now, want.Len())
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
