package continual

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/diorama/continual/internal/relation"
)

func openStocks(t *testing.T) *DB {
	t.Helper()
	db := Open()
	t.Cleanup(func() { _ = db.Close() })
	if err := db.Exec(`CREATE TABLE stocks (name STRING, price FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO stocks VALUES ('DEC', 150), ('QLI', 145), ('IBM', 75)`); err != nil {
		t.Fatal(err)
	}
	return db
}

func recvChange(t *testing.T, sub *Subscription) Change {
	t.Helper()
	select {
	case c := <-sub.Updates():
		return c
	case <-time.After(2 * time.Second):
		t.Fatal("no change within deadline")
		return Change{}
	}
}

func TestExecAndQuery(t *testing.T) {
	db := openStocks(t)
	rows, err := db.Query(`SELECT name, price FROM stocks WHERE price > 120`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d:\n%s", rows.Len(), rows)
	}
	if rows.Col("price") != 1 || rows.Col("nosuch") != -1 {
		t.Errorf("Col lookup broken: %v", rows.Columns)
	}
	if err := db.Exec(`UPDATE stocks SET price = 149 WHERE name = 'DEC'`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`DELETE FROM stocks WHERE name = 'QLI'`); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.Query(`SELECT * FROM stocks WHERE price > 120`)
	if rows.Len() != 1 {
		t.Fatalf("after update/delete rows = %d", rows.Len())
	}
	if got := rows.Data[0][rows.Col("price")].(float64); got != 149 {
		t.Errorf("price = %v", got)
	}
}

func TestExecErrors(t *testing.T) {
	db := Open()
	defer func() { _ = db.Close() }()
	bad := []string{
		"SELECT 1",                       // SELECT through Exec
		"CREATE TABLE t (a NOPE)",        // bad type
		"INSERT INTO missing VALUES (1)", // missing table
		"UPDATE missing SET a = 1",       // missing table
		"DELETE FROM missing",            // missing table
		"garbage",                        // unparsable
	}
	for _, stmt := range bad {
		if err := db.Exec(stmt); err == nil {
			t.Errorf("Exec(%q) should fail", stmt)
		}
	}
	if err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO t VALUES (1, 2)`); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Kinds are checked in one place, the store's write boundary; SQL
	// sees its error.
	if err := db.Exec(`INSERT INTO t VALUES ('str')`); !errors.Is(err, relation.ErrTypeMismatch) {
		t.Errorf("type mismatch: err = %v, want relation.ErrTypeMismatch", err)
	}
	if err := db.Exec(`INSERT INTO t VALUES (1.5)`); !errors.Is(err, relation.ErrTypeMismatch) {
		t.Errorf("non-integral float into INT: err = %v, want relation.ErrTypeMismatch", err)
	}
	if err := db.Exec(`INSERT INTO t VALUES (2.0)`); err != nil {
		t.Errorf("integral float into INT should coerce: %v", err)
	}
	if err := db.Exec(`UPDATE t SET a = 'str'`); !errors.Is(err, relation.ErrTypeMismatch) {
		t.Errorf("UPDATE type mismatch: err = %v, want relation.ErrTypeMismatch", err)
	}
	if err := db.Exec(`UPDATE t SET a = NULL`); err != nil {
		t.Errorf("UPDATE to NULL: %v", err)
	}
}

func TestRegisterAndDifferentialUpdates(t *testing.T) {
	db := openStocks(t)
	sub, err := db.Register("expensive", `SELECT * FROM stocks WHERE price > 120`)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Initial().Len() != 2 {
		t.Fatalf("initial = %d", sub.Initial().Len())
	}

	if err := db.Exec(`INSERT INTO stocks VALUES ('MAC', 130)`); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 1 {
		t.Fatalf("Poll fired %d", n)
	}
	c := recvChange(t, sub)
	if len(c.Inserted) != 1 || c.Inserted[0][0] != "MAC" {
		t.Errorf("change = %+v", c)
	}

	// Modification (Example 1/2): DEC 150 -> 149 stays in the result.
	if err := db.Exec(`UPDATE stocks SET price = 149 WHERE name = 'DEC'`); err != nil {
		t.Fatal(err)
	}
	db.Poll()
	c = recvChange(t, sub)
	if len(c.Modified) != 1 {
		t.Fatalf("modified = %+v", c)
	}
	if c.Modified[0].Old[1].(float64) != 150 || c.Modified[0].New[1].(float64) != 149 {
		t.Errorf("modification = %+v", c.Modified[0])
	}

	res, err := sub.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("maintained result = %d", res.Len())
	}
}

func TestRegisterOptions(t *testing.T) {
	db := openStocks(t)
	if _, err := db.Register("bad", `SELECT * FROM stocks`, TriggerEvery(0)); err == nil {
		t.Error("TriggerEvery(0) should fail")
	}
	if _, err := db.Register("bad", `SELECT * FROM stocks`, StopAfter(0)); err == nil {
		t.Error("StopAfter(0) should fail")
	}
	if _, err := db.Register("bad", `SELECT * FROM stocks`, TriggerEpsilon(5, "not (")); err == nil {
		t.Error("bad epsilon expr should fail")
	}
	if _, err := db.Register("bad", `SELECT * FROM stocks`, WithMode(Mode(99))); err == nil {
		t.Error("unknown mode should fail")
	}
	sub, err := db.Register("ok", `SELECT * FROM stocks WHERE price > 100`,
		TriggerUpdates(2), WithMode(Complete), StopAfter(5), NotifyEmpty())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO stocks VALUES ('X1', 500)`); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 0 {
		t.Error("one update should not fire TriggerUpdates(2)")
	}
	if err := db.Exec(`INSERT INTO stocks VALUES ('X2', 600)`); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 1 {
		t.Error("two updates should fire")
	}
	c := recvChange(t, sub)
	if len(c.Complete) != 4 { // DEC, QLI, X1, X2
		t.Errorf("complete = %d rows", len(c.Complete))
	}
}

func TestRegisterSQLEpsilon(t *testing.T) {
	db := Open()
	defer func() { _ = db.Close() }()
	if err := db.Exec(`CREATE TABLE accounts (owner STRING, amount FLOAT)`); err != nil {
		t.Fatal(err)
	}
	sub, err := db.RegisterSQL(`CREATE CONTINUAL QUERY banksum AS
		SELECT SUM(amount) AS total FROM accounts
		TRIGGER EPSILON 500000 ON amount
		MODE COMPLETE`)
	if err != nil {
		t.Fatal(err)
	}
	_ = db.Exec(`INSERT INTO accounts VALUES ('alice', 400000)`)
	if db.Poll() != 0 {
		t.Error("400k should not trip a 500k epsilon")
	}
	_ = db.Exec(`INSERT INTO accounts VALUES ('bob', 200000)`)
	if db.Poll() != 1 {
		t.Error("600k should trip")
	}
	c := recvChange(t, sub)
	if len(c.Complete) != 1 || c.Complete[0][0].(float64) != 600000 {
		t.Errorf("sum notification = %+v", c)
	}
}

func TestStopAfterTerminatesSubscription(t *testing.T) {
	db := openStocks(t)
	sub, err := db.Register("short", `SELECT * FROM stocks WHERE price > 0`, StopAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = db.Exec(`INSERT INTO stocks VALUES ('A', 1)`)
	db.Poll()
	c := recvChange(t, sub)
	if !c.Terminated {
		t.Errorf("expected terminated change, got %+v", c)
	}
}

func TestFeedSource(t *testing.T) {
	db := Open()
	defer func() { _ = db.Close() }()
	feed, err := db.NewFeed("ticks",
		Column{Name: "sym", Type: String},
		Column{Name: "price", Type: Float},
	)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := db.Register("bigticks", `SELECT * FROM ticks WHERE price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed.Push("IBM", 75.0); err != nil {
		t.Fatal(err)
	}
	if err := feed.Push("DEC", 150.0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	db.Poll()
	c := recvChange(t, sub)
	if len(c.Inserted) != 1 || c.Inserted[0][0] != "DEC" {
		t.Errorf("feed change = %+v", c)
	}
	if err := feed.Push("X", struct{}{}); err == nil {
		t.Error("unsupported type should fail")
	}
}

func TestWatchDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte("q3"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open()
	defer func() { _ = db.Close() }()
	if err := db.WatchDir("files", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	sub, err := db.Register("watch", `SELECT path, size FROM files WHERE size > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Initial().Len() != 1 {
		t.Fatalf("initial files = %d", sub.Initial().Len())
	}
	if err := os.WriteFile(filepath.Join(dir, "new.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	db.Poll()
	c := recvChange(t, sub)
	if len(c.Inserted) != 1 || c.Inserted[0][0] != "new.txt" {
		t.Errorf("watch change = %+v", c)
	}
}

func TestBackgroundLoop(t *testing.T) {
	db := openStocks(t)
	sub, err := db.Register("bg", `SELECT * FROM stocks WHERE price > 120`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Start(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO stocks VALUES ('NEW', 500)`); err != nil {
		t.Fatal(err)
	}
	c := recvChange(t, sub)
	if len(c.Inserted) != 1 {
		t.Errorf("bg change = %+v", c)
	}
}

func TestDropCQClosesUpdates(t *testing.T) {
	db := openStocks(t)
	sub, err := db.Register("temp", `SELECT * FROM stocks`)
	if err != nil {
		t.Fatal(err)
	}
	names := db.CQNames()
	if len(names) != 1 || names[0] != "temp" {
		t.Errorf("CQNames = %v", names)
	}
	if err := db.DropCQ("temp"); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.Updates():
		if ok {
			t.Error("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Error("channel not closed after drop")
	}
	if len(db.Tables()) != 1 {
		t.Errorf("Tables = %v", db.Tables())
	}
}

func TestListenAndServeWithMirror(t *testing.T) {
	server := openStocks(t)
	ln, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	if ln.Addr() == "" {
		t.Fatal("empty bound address")
	}

	mirror, err := DialMirror(ln.Addr(), `SELECT * FROM stocks WHERE price > 120`)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mirror.Close() }()
	if mirror.Result().Len() != 2 {
		t.Fatalf("initial mirror = %d", mirror.Result().Len())
	}
	snapshotBytes := mirror.BytesReceived()
	if snapshotBytes == 0 {
		t.Error("snapshot should have shipped bytes")
	}

	if err := server.Exec(`INSERT INTO stocks VALUES ('MAC', 130)`); err != nil {
		t.Fatal(err)
	}
	if err := server.Exec(`DELETE FROM stocks WHERE name = 'QLI'`); err != nil {
		t.Fatal(err)
	}
	change, err := mirror.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(change.Inserted) != 1 || len(change.Deleted) != 1 {
		t.Errorf("mirror change = %+v", change)
	}
	if mirror.Result().Len() != 2 { // DEC + MAC
		t.Errorf("mirror result = %d", mirror.Result().Len())
	}
	// Delta refresh ships far fewer bytes than the snapshot did.
	if got := mirror.BytesReceived() - snapshotBytes; got >= snapshotBytes {
		t.Errorf("delta refresh shipped %d bytes, snapshot was %d", got, snapshotBytes)
	}

	if _, err := DialMirror(ln.Addr(), "not sql"); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := DialMirror("127.0.0.1:1", "SELECT * FROM stocks"); err == nil {
		t.Error("dead address should fail")
	}
}

func TestSubscriptionAccessorsAndRefresh(t *testing.T) {
	db := openStocks(t)
	sub, err := db.Register("acc", `SELECT * FROM stocks WHERE price > 120`, TriggerEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Name() != "acc" {
		t.Errorf("Name = %q", sub.Name())
	}
	// The trigger won't fire for ages, but Refresh forces re-evaluation.
	if err := db.Exec(`INSERT INTO stocks VALUES ('HI', 500)`); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 0 {
		t.Errorf("poll fired %d", n)
	}
	if err := sub.Refresh(); err != nil {
		t.Fatal(err)
	}
	c := recvChange(t, sub)
	if len(c.Inserted) != 1 {
		t.Errorf("forced refresh change = %+v", c)
	}
	if err := sub.Drop(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Refresh(); err == nil {
		t.Error("refresh after drop should fail")
	}
}

func TestEpsilonAbsoluteOption(t *testing.T) {
	db := Open()
	defer func() { _ = db.Close() }()
	if err := db.Exec(`CREATE TABLE accounts (owner STRING, amount FLOAT)`); err != nil {
		t.Fatal(err)
	}
	// +100 then -100 nets to zero; absolute accumulation still trips 150.
	sub, err := db.Register("churn", `SELECT SUM(amount) AS total FROM accounts`,
		TriggerEpsilon(150, "amount"), EpsilonAbsolute(), NotifyEmpty())
	if err != nil {
		t.Fatal(err)
	}
	_ = sub
	if err := db.Exec(`INSERT INTO accounts VALUES ('a', 100)`); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 0 {
		t.Error("100 absolute should not trip 150")
	}
	if err := db.Exec(`DELETE FROM accounts WHERE owner = 'a'`); err != nil {
		t.Fatal(err)
	}
	if n := db.Poll(); n != 1 {
		t.Error("200 absolute churn should trip 150")
	}
}

func TestRowsStringAndQueryOrderBy(t *testing.T) {
	db := openStocks(t)
	rows, err := db.Query(`SELECT name, price FROM stocks ORDER BY price DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Data[0][0] != "DEC" {
		t.Fatalf("ordered rows = %+v", rows.Data)
	}
	out := rows.String()
	for _, want := range []string{"name", "price", "DEC"} {
		found := false
		for i := 0; i+len(want) <= len(out); i++ {
			if out[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestQueryBesideWriters: a one-shot Query reads one committed state
// while writers commit. Each commit moves value between two rows, so any
// scan that sees part of a commit breaks their constant sum; under -race
// the unlocked scan this replaced is also a reported data race.
func TestQueryBesideWriters(t *testing.T) {
	db := Open()
	t.Cleanup(func() { _ = db.Close() })
	if err := db.Exec(`CREATE TABLE acct (name STRING, bal INT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO acct VALUES ('a', 50), ('b', 50)`); err != nil {
		t.Fatal(err)
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
			from := "a"
			if i%2 == 1 {
				from = "b"
			}
			tx := db.store.Begin()
			rel, err := db.store.Snapshot("acct")
			if err != nil {
				done <- err
				return
			}
			for _, tu := range rel.Tuples() {
				delta := int64(1)
				if tu.Values[0].AsString() == from {
					delta = -1
				}
				if err := tx.Update("acct", tu.TID, []relation.Value{tu.Values[0], relation.Int(tu.Values[1].AsInt() + delta)}); err != nil {
					done <- err
					return
				}
			}
			if _, err := tx.Commit(); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		rows, err := db.Query(`SELECT bal FROM acct`)
		if err != nil {
			t.Fatal(err)
		}
		sum := int64(0)
		for _, r := range rows.Data {
			sum += r[0].(int64)
		}
		if rows.Len() != 2 || sum != 100 {
			t.Fatalf("query %d saw %d rows summing to %d, want 2 summing to 100", i, rows.Len(), sum)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
