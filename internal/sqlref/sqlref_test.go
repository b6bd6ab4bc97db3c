package sqlref

import (
	"math/rand"
	"testing"

	"crowddb/internal/engine"
	"crowddb/internal/storage"
)

// fixture loads the fixture into a catalog of its own.
func fixture(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	eng := engine.New(cat)
	for _, sql := range Fixture() {
		if _, err := eng.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return cat
}

// TestReferenceCountsWhatTheFixtureHolds holds the interpreter to answers
// worked out from the fixture's definition, not from any engine: NULLs on
// their strides, groups in the order they are first seen, a join that
// drops NULL keys and repeats a key u holds twice, NULLs last under DESC.
func TestReferenceCountsWhatTheFixtureHolds(t *testing.T) {
	cat := fixture(t)
	k := &tCols[1]
	eval := func(q *Query) []storage.Row {
		t.Helper()
		rows, err := Eval(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	nullK := 0
	for i := 0; i < FixtureRows; i++ {
		if i%11 == 0 {
			nullK++
		}
	}
	if got := len(eval(&Query{Items: []Item{{Col: &tCols[0]}}, Where: &isNull{col: k}})); got != nullK {
		t.Errorf("k IS NULL: %d rows, want %d", got, nullK)
	}
	// Comparing with NULL is UNKNOWN either way, so NOT does not bring
	// the NULL rows back.
	if got := len(eval(&Query{Items: []Item{{Col: &tCols[0]}}, Where: &not{&colCmp{col: k, op: "=", lit: storage.Int(3)}}})); got+nullK >= FixtureRows {
		t.Errorf("NOT (k = 3) answers %d rows: NULL k must be neither", got)
	}

	groups := eval(&Query{Items: []Item{{Col: k}, {Agg: "COUNT"}}, GroupBy: []int{0}})
	if len(groups) != 8 || !groups[0][0].IsNull() || Key(groups[1][:1]) != "[1]" {
		t.Errorf("GROUP BY k: %d groups, the first two %v %v: want 8, NULL (row 0) first, then 1", len(groups), groups[0], groups[1])
	}
	total := int64(0)
	for _, g := range groups {
		n, _ := g[1].AsInt()
		total += n
	}
	if total != FixtureRows {
		t.Errorf("the groups count %d rows, want %d", total, FixtureRows)
	}

	// u holds k 0–5, 7, 8, 3 twice and a NULL: a t row joins once per u
	// row of its k — twice for 3, never for 6 or NULL.
	want := 0
	for i := 0; i < FixtureRows; i++ {
		switch {
		case i%11 == 0 || i%7 == 6:
		case i%7 == 3:
			want += 2
		default:
			want++
		}
	}
	if got := len(eval(&Query{Join: true, Items: []Item{{Col: &tCols[0]}, {Col: &uCols[1]}}})); got != want {
		t.Errorf("t JOIN u: %d rows, want %d", got, want)
	}

	desc := eval(&Query{Distinct: true, Items: []Item{{Col: k}}, OrderBy: []Order{{Item: 0, Desc: true}}})
	if Key(desc[0]) != "[6]" || !desc[len(desc)-1][0].IsNull() {
		t.Errorf("DISTINCT k ORDER BY k DESC: %v, want 6 first and NULL last", desc)
	}
}

// TestGenerateIsSeeded: a seed writes the same queries every time.
func TestGenerateIsSeeded(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			if x, y := Generate(a).SQL(), Generate(b).SQL(); x != y {
				t.Fatalf("seed %d wrote %q and %q", seed, x, y)
			}
		}
	}
}
