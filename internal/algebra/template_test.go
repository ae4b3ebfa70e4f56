package algebra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/diorama/continual/internal/relation"
)

func extract(t *testing.T, src catSource, query string) (*Template, []relation.Value) {
	t.Helper()
	tpl, params, ok := ExtractTemplate(planFor(t, src, query))
	if !ok {
		t.Fatalf("ExtractTemplate(%q): not templatable", query)
	}
	return tpl, params
}

func TestTemplateSharesAcrossConstants(t *testing.T) {
	src := stocksSource(t)
	t1, p1 := extract(t, src, "SELECT * FROM stocks WHERE price > 100")
	t2, p2 := extract(t, src, "SELECT * FROM stocks WHERE price > 17")
	if t1.Fingerprint != t2.Fingerprint {
		t.Fatalf("same template expected: %#x vs %#x", t1.Fingerprint, t2.Fingerprint)
	}
	if len(t1.Slots) != 1 || t1.Slots[0].Op != ">" || !strings.HasSuffix(t1.Slots[0].Col, "price") {
		t.Fatalf("unexpected slots: %+v", t1.Slots)
	}
	if !p1[0].Equal(relation.Int(100)) || !p2[0].Equal(relation.Int(17)) {
		t.Fatalf("params: %v / %v", p1, p2)
	}
	// A different operator is a different template.
	t3, _ := extract(t, src, "SELECT * FROM stocks WHERE price < 100")
	if t3.Fingerprint == t1.Fingerprint {
		t.Fatal("price<X must not share a template with price>X")
	}
	// So is a different query shape (projection must keep the filter
	// column, or extraction refuses — see TestTemplateRefusesRenamedColumn).
	t4, _ := extract(t, src, "SELECT price, name FROM stocks WHERE price > 100")
	if t4.Fingerprint == t1.Fingerprint {
		t.Fatal("projection must change the template")
	}
}

func TestTemplateConjunctOrderCanonical(t *testing.T) {
	src := stocksSource(t)
	t1, p1 := extract(t, src, "SELECT * FROM stocks WHERE price > 5 AND name = 'IBM'")
	t2, p2 := extract(t, src, "SELECT * FROM stocks WHERE name = 'QLI' AND price > 9")
	if t1.Fingerprint != t2.Fingerprint {
		t.Fatalf("conjunct order changed the template: %#x vs %#x", t1.Fingerprint, t2.Fingerprint)
	}
	// Parameter vectors are slot-aligned regardless of source order.
	for i, s := range t1.Slots {
		if strings.HasSuffix(s.Col, "name") {
			if p1[i].AsString() != "IBM" || p2[i].AsString() != "QLI" {
				t.Fatalf("slot %d (%s): params misaligned: %v / %v", i, s.Col, p1, p2)
			}
		}
	}
}

func TestTemplateFlippedLiteral(t *testing.T) {
	src := stocksSource(t)
	t1, p1 := extract(t, src, "SELECT * FROM stocks WHERE 100 < price")
	t2, p2 := extract(t, src, "SELECT * FROM stocks WHERE price > 100")
	if t1.Fingerprint != t2.Fingerprint {
		t.Fatal("100 < price must normalize to price > 100")
	}
	if !p1[0].Equal(p2[0]) {
		t.Fatalf("params differ: %v vs %v", p1, p2)
	}
}

// A projection that renames another column onto the filter column's
// name must not be stripped: the output "price" is not the compared
// value.
func TestTemplateRefusesRenamedColumn(t *testing.T) {
	src := stocksSource(t)
	p := planFor(t, src, "SELECT name AS price FROM stocks WHERE price > 100")
	if _, _, ok := ExtractTemplate(p); ok {
		t.Fatal("stripped a comparison on a column shadowed by a rename")
	}
}

func TestTemplateRefusesUnsupportedShapes(t *testing.T) {
	src := stocksSource(t)
	for _, q := range []string{
		"SELECT name, COUNT(*) AS n FROM stocks WHERE price > 5 GROUP BY name",
		"SELECT DISTINCT name FROM stocks WHERE price > 5",
		"SELECT * FROM stocks WHERE price > 5 ORDER BY price",
		"SELECT * FROM stocks WHERE price > 5 LIMIT 3",
		"SELECT * FROM stocks",                    // nothing to strip
		"SELECT * FROM stocks WHERE price != 100", // != is not indexable
	} {
		if _, _, ok := ExtractTemplate(planFor(t, src, q)); ok {
			t.Errorf("ExtractTemplate(%q): expected refusal", q)
		}
	}
}

// The core soundness property: executing the original plan equals
// executing the stripped template plan and filtering rows through
// MatchRow with the extracted parameters.
func TestTemplateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		src := randSource(rng)
		query := randTemplatableQuery(rng)
		orig := planFor(t, src, query)
		tpl, params, ok := ExtractTemplate(orig)
		if !ok {
			continue
		}
		want, err := NewExecutor(src.MapSource).Execute(orig)
		if err != nil {
			t.Fatalf("exec %q: %v", query, err)
		}
		full, err := NewExecutor(src.MapSource).Execute(tpl.Plan)
		if err != nil {
			t.Fatalf("exec template of %q: %v", query, err)
		}
		got := relation.New(full.Schema())
		for _, tu := range full.Tuples() {
			if tpl.MatchRow(params, tu.Values) {
				_ = got.Insert(tu)
			}
		}
		if !want.EqualContents(got) {
			t.Fatalf("query %q: original and template+dispatch disagree\nwant %v\ngot  %v",
				query, want, got)
		}
	}
}

// randTemplatableQuery builds SPJ queries over the randSource tables
// with strippable conjuncts (and some residual ones).
func randTemplatableQuery(rng *rand.Rand) string {
	nTables := 1 + rng.Intn(3)
	from := "r"
	if nTables >= 2 {
		from += " JOIN u ON r.s1 = u.s2"
	}
	if nTables >= 3 {
		from += " JOIN w ON u.x = w.x"
	}
	pool := []string{
		fmt.Sprintf("r.a > %d", rng.Intn(200)),
		fmt.Sprintf("r.a <= %d", rng.Intn(200)),
		fmt.Sprintf("r.s1 = 'k%d'", rng.Intn(6)),
		fmt.Sprintf("%d < r.a", rng.Intn(200)),
	}
	if nTables >= 2 {
		pool = append(pool,
			fmt.Sprintf("u.b < %d", rng.Intn(200)),
			fmt.Sprintf("u.x >= %d", rng.Intn(8)),
			fmt.Sprintf("u.b != %d", rng.Intn(200)), // residual
		)
	}
	var conjs []string
	for _, c := range pool {
		if rng.Intn(2) == 0 {
			conjs = append(conjs, c)
		}
	}
	if len(conjs) == 0 {
		conjs = append(conjs, pool[0])
	}
	q := "SELECT * FROM " + from + " WHERE " + conjs[0]
	for _, c := range conjs[1:] {
		q += " AND " + c
	}
	return q
}
