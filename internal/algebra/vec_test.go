package algebra

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

func vecSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "n", Type: relation.TInt},
		relation.Column{Name: "x", Type: relation.TFloat},
		relation.Column{Name: "tag", Type: relation.TString},
		relation.Column{Name: "ok", Type: relation.TBool},
	)
}

func vecBatch(t *testing.T, rng *rand.Rand, rows int) *batch.Batch {
	t.Helper()
	schema := vecSchema()
	b := batch.New(schema, rows)
	tags := []string{"alpha", "beta", "gamma", ""}
	for i := 0; i < rows; i++ {
		vals := []relation.Value{
			relation.Int(rng.Int63n(100)),
			relation.Float(rng.Float64() * 10),
			relation.Str(tags[rng.Intn(len(tags))]),
			relation.Bool(rng.Intn(2) == 0),
		}
		for c := range vals {
			if rng.Intn(10) == 0 {
				vals[c] = relation.TypedNull(schema.Col(c).Type)
			}
		}
		sign := int8(1)
		if rng.Intn(2) == 0 {
			sign = -1
		}
		if !b.AppendRow(relation.TID(i), sign, vals) {
			t.Fatal("append")
		}
	}
	return b
}

// TestSelectBatchMatchesRowPath: for each predicate, the vectorized
// selection must agree row for row (and error for error) with the
// tuple-at-a-time EvalPredicate loop it replaces.
func TestSelectBatchMatchesRowPath(t *testing.T) {
	preds := []string{
		"n > 50",
		"n <= 10",
		"50 < n",
		"n = 7",
		"n != 7",
		"n >= 50",
		"7 != n",
		"50 >= n",
		"x < 5.0",
		"x >= 5.0",
		"5.0 <= x",
		"x > 3",
		"n > 2.5",
		"n <= 2.5",
		"tag = 'alpha'",
		"tag != ''",
		"tag < 'beta'",
		"'beta' <= tag",
		"ok = TRUE",
		"ok != TRUE",
		"ok < TRUE",
		"ok >= FALSE",
		"FALSE < ok",
		"n > 10 AND x < 8.0",
		"n > 10 AND x < 8.0 AND tag != 'beta'",
		"n > 80 OR x < 1.0",
		"NOT (ok = TRUE)",
		"n + 10 > 60",
		"ABS(n - 50) < 20",
		"tag = 'alpha' OR (n > 90 AND ok)",
		"n > NULL",
		// A left conjunct that selects no row: the empty selection must
		// not reach the right conjunct as "all rows".
		"n = 1000 AND x < 8.0",
		"(n = 1000 AND ok) AND x < 8.0",
		"tag = 'alpha' OR (n > 1000 AND x < 8.0)",
	}
	rng := rand.New(rand.NewSource(42))
	b := vecBatch(t, rng, 300)
	schema := vecSchema()
	pool := batch.NewPool()
	scratch := make([]relation.Value, schema.Len())
	for _, src := range preds {
		expr, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ce, err := Compile(expr, schema)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// Row-path oracle.
		var want []int32
		var wantErr error
		for i := 0; i < b.Len(); i++ {
			b.ReadRow(i, scratch)
			ok, err := EvalPredicate(ce, relation.Tuple{TID: b.TIDs[i], Values: scratch})
			if err != nil {
				wantErr = err
				break
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		got, gotErr := SelectBatch(ce, b, nil, nil, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: row=%v vec=%v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: row path selected %d, vec %d", src, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: index %d: row %d vs vec %d", src, i, want[i], got[i])
			}
		}
		// Over an explicit selection (every third row), through a pool:
		// exactly the oracle's rows that lie in it.
		var in, wantIn []int32
		for i := 0; i < b.Len(); i += 3 {
			in = append(in, int32(i))
		}
		for _, i := range want {
			if i%3 == 0 {
				wantIn = append(wantIn, i)
			}
		}
		gotIn, err := SelectBatch(ce, b, in, nil, pool)
		if err != nil || !slices.Equal(gotIn, wantIn) {
			t.Fatalf("%s over a selection: got %v (err %v), want %v", src, gotIn, err, wantIn)
		}
	}
}

// TestSelectBatchErrors: the vec path surfaces the same type errors the
// row path raises.
func TestSelectBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := vecBatch(t, rng, 10)
	for _, src := range []string{"tag > 5", "n AND ok", "tag + 1 > 0"} {
		expr, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ce, err := Compile(expr, vecSchema())
		if err != nil {
			continue // compile-time rejection is fine too
		}
		if _, err := SelectBatch(ce, b, nil, nil, nil); err == nil {
			t.Fatalf("%s: expected evaluation error", src)
		}
	}
}

func TestColumnIndexOf(t *testing.T) {
	schema := vecSchema()
	expr, _ := sql.ParseExpr("tag")
	ce, err := Compile(expr, schema)
	if err != nil {
		t.Fatal(err)
	}
	if idx, ok := ColumnIndexOf(ce); !ok || idx != 2 {
		t.Fatalf("ColumnIndexOf = %d, %v", idx, ok)
	}
	expr, _ = sql.ParseExpr("tag != ''")
	ce, _ = Compile(expr, schema)
	if _, ok := ColumnIndexOf(ce); ok {
		t.Fatal("non-column expression reported as column")
	}
}
