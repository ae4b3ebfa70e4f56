package sql

import "testing"

// INTO declares a materialization target between the select list and
// FROM. The durable registry persists queries as rendered text, so the
// clause must round-trip render → parse → render.
func TestParseSelectInto(t *testing.T) {
	sel, err := ParseSelect("SELECT name, price INTO expensive FROM stocks WHERE price > 100")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Into != "expensive" {
		t.Fatalf("Into = %q, want %q", sel.Into, "expensive")
	}
	if len(sel.From) != 1 || sel.From[0].Table != "stocks" {
		t.Fatalf("From = %+v", sel.From)
	}
}

func TestParseSelectIntoRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT * INTO hot FROM stocks",
		"SELECT name, price INTO pricey FROM stocks WHERE (price > 100)",
		"SELECT sector, SUM(price) AS total INTO by_sector FROM stocks GROUP BY sector",
	}
	for _, src := range cases {
		first, err := ParseSelect(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rendered := first.String()
		second, err := ParseSelect(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if second.Into != first.Into {
			t.Fatalf("%s: Into %q -> %q", src, first.Into, second.Into)
		}
		if again := second.String(); again != rendered {
			t.Fatalf("%s: not a fixed point: %q vs %q", src, rendered, again)
		}
	}
}

func TestParseSelectIntoErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT * INTO FROM stocks",   // missing target
		"SELECT * INTO 42 FROM t",     // target must be an identifier
		"SELECT name INTO a b FROM t", // one target only
	} {
		if _, err := ParseSelect(src); err == nil {
			t.Fatalf("%s: expected parse error", src)
		}
	}
}

// A CREATE CONTINUAL QUERY body may carry INTO: the cascade path from
// SQL registration.
func TestParseCreateCQInto(t *testing.T) {
	stmt, err := Parse("CREATE CONTINUAL QUERY roll AS SELECT name, price INTO hot FROM stocks WHERE price > 5 TRIGGER UPDATES 1")
	if err != nil {
		t.Fatal(err)
	}
	create, ok := stmt.(*CreateCQStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if create.Select.Into != "hot" {
		t.Fatalf("Into = %q", create.Select.Into)
	}
}
