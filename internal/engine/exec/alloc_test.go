package exec

import (
	"fmt"
	"runtime"
	"testing"

	"crowddb/internal/engine/plan"
	"crowddb/internal/index"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Allocation walls of the batch executor. Each shape runs over a table of
// 8 morsels and over one of 32, serially and with 4 workers in the same
// test, and the bars are ratios between those runs, not machine numbers:
// what an operator allocates may grow with the groups it keeps, the rows
// it returns or the workers it is given — never with the rows that pass
// through it.

// allocCatalog builds facts (morsels×4096 rows; grp cycles through groups
// values, k through the 100 keys of dims, score through 1000) and dims.
func allocCatalog(t *testing.T, morsels, groups int) *storage.Catalog {
	return allocCatalogDims(t, morsels, groups, 100)
}

// allocCatalogDims is allocCatalog with dims rows in dims, of which facts
// still joins the first 100.
func allocCatalogDims(t *testing.T, morsels, groups, dimRows int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(name string, cols ...storage.Column) *storage.Table {
		schema, err := storage.NewSchema(cols...)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := cat.Create(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	facts := mk("facts", storage.Column{Name: "id", Kind: storage.KindInt}, storage.Column{Name: "grp", Kind: storage.KindInt},
		storage.Column{Name: "k", Kind: storage.KindInt}, storage.Column{Name: "score", Kind: storage.KindFloat})
	for i := 0; i < morsels*morselRows; i++ {
		if err := facts.Insert(storage.Int(int64(i)), storage.Int(int64(i%groups)),
			storage.Int(int64(i%100)), storage.Float(float64(i*37%1000))); err != nil {
			t.Fatal(err)
		}
	}
	dims := mk("dims", storage.Column{Name: "k", Kind: storage.KindInt}, storage.Column{Name: "label", Kind: storage.KindText})
	for k := 0; k < dimRows; k++ {
		if err := dims.Insert(storage.Int(int64(k)), storage.Text(fmt.Sprintf("label-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// allocsOf plans sql once at the given degree of parallelism and returns
// the allocations of building and draining its iterator tree, and the
// rows it returned.
func allocsOf(t *testing.T, cat *storage.Catalog, dop int, sql string) (allocs float64, rows int) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt.(*sqlparse.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	plan.Parallelize(p, dop)
	allocs = testing.AllocsPerRun(5, func() { rows = drainPlan(t, p) })
	return allocs, rows
}

func drainPlan(t *testing.T, p *plan.SelectPlan) int {
	t.Helper()
	it, err := Build(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return storage.RowCount(out)
}

// bytesOf is allocsOf in bytes, serially: the heap bytes one build and
// drain of sql's iterator tree allocates.
func bytesOf(t *testing.T, cat *storage.Catalog, sql string) float64 {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt.(*sqlparse.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	drainPlan(t, p)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		drainPlan(t, p)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func TestOperatorAllocationWalls(t *testing.T) {
	small, big := allocCatalog(t, 8, 4), allocCatalog(t, 32, 4)
	manyGroups := allocCatalog(t, 8, 1024)
	shapes := []struct{ name, sql string }{
		{"filtered count", `SELECT COUNT(*) FROM facts WHERE score > 500 AND grp + 0 < 3`},
		{"group by", `SELECT grp, COUNT(*), AVG(score) FROM facts WHERE score > 100 GROUP BY grp`},
		{"join count", `SELECT COUNT(*) FROM facts f JOIN dims d ON f.k = d.k WHERE f.score > 100`},
		{"topn", `SELECT id, score FROM facts WHERE grp < 3 ORDER BY score DESC, id LIMIT 10`},
	}
	for _, shape := range shapes {
		serial, _ := allocsOf(t, small, 1, shape.sql)
		serialBig, _ := allocsOf(t, big, 1, shape.sql)
		par, _ := allocsOf(t, small, 4, shape.sql)
		parBig, _ := allocsOf(t, big, 4, shape.sql)
		t.Logf("%-14s allocs: 8 morsels %.0f serial / %.0f at 4 workers; 32 morsels %.0f / %.0f", shape.name, serial, par, serialBig, parBig)
		// Four times the rows (and matches) may cost bookkeeping per extra
		// morsel, nothing per row: the 24 extra morsels are 98 304 rows.
		const perMorsel = 2
		if serialBig > serial+24*perMorsel || parBig > par+24*perMorsel {
			t.Errorf("%s: allocations grow with the input: %.0f → %.0f serial, %.0f → %.0f at 4 workers",
				shape.name, serial, serialBig, par, parBig)
		}
		if par > 2*serial || parBig > 2*serialBig {
			t.Errorf("%s: 4 workers allocate over twice the serial figure: %.0f vs %.0f (8 morsels), %.0f vs %.0f (32)",
				shape.name, par, serial, parBig, serialBig)
		}
	}

	// What does grow: groups and kept rows — by doubling. 256 times the
	// groups (one INTEGER key: the typed key table) cost a group a slot in
	// each state column, its key and its hash slot, and in allocations
	// only those arrays' doublings: six from 16 to 1 024 for each of the
	// seven (first-seen sequences, three state columns, keys, hash slots
	// and the boxed rows' headers), not one allocation per group. In bytes
	// a group may cost 512: its 120-byte boxed output row and header, and
	// at most twice (the doubling) its 52 bytes of state, key, slot and
	// output cells.
	groupBy := shapes[1].sql
	few, fewRows := allocsOf(t, small, 1, groupBy)
	many, manyRows := allocsOf(t, manyGroups, 1, groupBy)
	if fewRows != 4 || manyRows != 1024 {
		t.Fatalf("group by returned %d and %d groups", fewRows, manyRows)
	}
	if many <= few || many > few+64 {
		t.Errorf("group by: %.0f allocations for 4 groups, %.0f for 1024: want growth by doublings, at most 64 more", few, many)
	}
	fewBytes, manyBytes := bytesOf(t, small, groupBy), bytesOf(t, manyGroups, groupBy)
	if perGroup := (manyBytes - fewBytes) / 1020; perGroup > 512 {
		t.Errorf("group by: %.0f bytes for 4 groups, %.0f for 1024: %.0f a group, want at most 512", fewBytes, manyBytes, perGroup)
	}

	// A join's build costs its rows cells in the store and the index, not
	// allocations: a hundred times the build rows (one INTEGER key on both
	// sides) may add the doublings of the key, chain and slot arrays.
	joinCount := shapes[2].sql
	smallBuild, matches := allocsOf(t, small, 1, joinCount)
	bigBuild, bigMatches := allocsOf(t, allocCatalogDims(t, 8, 4, 10000), 1, joinCount)
	if matches != 1 || bigMatches != 1 {
		t.Fatalf("join count returned %d and %d rows", matches, bigMatches)
	}
	if bigBuild > smallBuild+48 {
		t.Errorf("join count: %.0f allocations building 100 rows, %.0f building 10 000: the build allocates per row", smallBuild, bigBuild)
	}
	top10, _ := allocsOf(t, small, 1, shapes[3].sql)
	top1000, _ := allocsOf(t, small, 1, `SELECT id, score FROM facts WHERE grp < 3 ORDER BY score DESC, id LIMIT 1000`)
	if top1000 > top10+100 {
		t.Errorf("topn: %.0f allocations for LIMIT 10, %.0f for LIMIT 1000: slots grow by doubling, not per row kept", top10, top1000)
	}
}

// TestDeclinedRangeFiltersThroughKernels checks what the planner declines
// a wide index range for: the scan it plans instead lowers both bounds and
// the other conjunct to storage predicates, leaving the per-row evaluator
// nothing.
func TestDeclinedRangeFiltersThroughKernels(t *testing.T) {
	cat := allocCatalog(t, 1, 4)
	facts, _ := cat.Get("facts")
	if err := facts.AttachIndex(index.NewOrdered("facts_id", []string{"id"}, []bool{false})); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.Parse(`SELECT COUNT(*) FROM facts WHERE grp > 1 AND id >= 1000 AND id < 3000`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt.(*sqlparse.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := p.Root.(*plan.Aggregate).Input.(*plan.Scan)
	if !ok || scan.Declined == nil || scan.Declined.Rows != 2000 {
		t.Fatalf("not a scan that declined a 2 000-row probe:\n%v", p.Explain())
	}
	preds, rest := splitVectorizable(scan.Filter, scan.Layout)
	if len(preds) != 3 || rest != nil {
		t.Fatalf("%d predicate kernels and residual %v, want all three conjuncts as kernels", len(preds), rest)
	}
	if n := drainPlan(t, p); n != 1 {
		t.Fatalf("count returned %d rows", n)
	}
}
