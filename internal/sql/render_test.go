package sql

import "testing"

// TestRenderRoundTrip checks render → parse → render reaches a fixed
// point for the query shapes the engine supports, which is the property
// the durable CQ registry relies on.
func TestRenderRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT * FROM stocks`,
		`SELECT name, price FROM stocks WHERE price > 120`,
		`SELECT DISTINCT name FROM stocks`,
		`SELECT s.name, o.qty FROM stocks AS s, orders AS o WHERE s.name = o.name`,
		`SELECT s.name FROM stocks AS s JOIN orders AS o ON s.name = o.name WHERE o.qty > 10`,
		`SELECT SUM(amount) AS total FROM accounts`,
		`SELECT branch, COUNT(*) AS n, AVG(amount) FROM accounts GROUP BY branch`,
		`SELECT branch, SUM(amount) FROM accounts GROUP BY branch HAVING SUM(amount) > 100`,
		`SELECT name FROM stocks WHERE NOT (price < 10 OR price > 100) ORDER BY name DESC LIMIT 5`,
		`SELECT name, price * 2 + 1 FROM stocks WHERE name != 'DEC''s'`,
		`SELECT * FROM stocks WHERE price > -5`,
	}
	for _, q := range queries {
		stmt, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		text := stmt.String()
		stmt2, err := ParseSelect(text)
		if err != nil {
			t.Fatalf("reparse of rendered %q (from %q): %v", text, q, err)
		}
		if text2 := stmt2.String(); text2 != text {
			t.Errorf("render not a fixed point:\n  source   %q\n  render 1 %q\n  render 2 %q", q, text, text2)
		}
	}
}

// FuzzParseSQL is the registry's recovery property over arbitrary input:
// the durable registry persists a CQ as SelectStmt.String() and recovery
// parses it back, so for every query ParseSelect accepts, its rendering
// must parse again and render the same string. The grammar has no
// BETWEEN or IS NULL: those seeds start the corpus on the rejection path.
func FuzzParseSQL(f *testing.F) {
	for _, q := range []string{
		`SELECT name, price INTO expensive FROM stocks WHERE price > 120`,
		`SELECT branch, COUNT(*) AS n, SUM(amount) FROM accounts GROUP BY branch HAVING SUM(amount) > 100`,
		`SELECT name FROM stocks WHERE NOT (price < 10 OR price > 100) ORDER BY name DESC, price LIMIT 5`,
		`SELECT DISTINCT s.name FROM stocks AS s JOIN orders AS o ON s.name = o.name`,
		`SELECT * FROM stocks WHERE price BETWEEN 10 AND 20 AND name IS NOT NULL`,
		`SELECT name, price * 2 + 1 FROM stocks WHERE name != 'DEC''s' OR price IS NULL`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		stmt, err := ParseSelect(q)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := ParseSelect(text)
		if err != nil {
			t.Fatalf("rendering of %q does not parse: %q: %v", q, text, err)
		}
		if text2 := again.String(); text2 != text {
			t.Fatalf("render not a fixed point:\n  source   %q\n  render 1 %q\n  render 2 %q", q, text, text2)
		}
	})
}
