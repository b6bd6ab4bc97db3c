package exec

import (
	"fmt"
	"testing"

	"crowddb/internal/engine/plan"
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
	for k := 0; k < 100; k++ {
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
	allocs = testing.AllocsPerRun(5, func() {
		it, err := Build(p.Root)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(out)
	})
	return allocs, rows
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

	// What does grow: groups and kept rows. 256 times the groups must cost
	// more than the 4 did, and still far less than a row's worth each
	// (32 768 rows pass through).
	groupBy := shapes[1].sql
	few, fewRows := allocsOf(t, small, 1, groupBy)
	many, manyRows := allocsOf(t, manyGroups, 1, groupBy)
	if fewRows != 4 || manyRows != 1024 {
		t.Fatalf("group by returned %d and %d groups", fewRows, manyRows)
	}
	if many <= few || many > few+4*1024 {
		t.Errorf("group by: %.0f allocations for 4 groups, %.0f for 1024: want growth, at most a few per group", few, many)
	}
	top10, _ := allocsOf(t, small, 1, shapes[3].sql)
	top1000, _ := allocsOf(t, small, 1, `SELECT id, score FROM facts WHERE grp < 3 ORDER BY score DESC, id LIMIT 1000`)
	if top1000 > top10+100 {
		t.Errorf("topn: %.0f allocations for LIMIT 10, %.0f for LIMIT 1000: slots grow by doubling, not per row kept", top10, top1000)
	}
}
