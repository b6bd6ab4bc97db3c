package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// The paper's tables grow a column with every expansion while a query
// still reads one or two of them: what a query allocates must not grow
// with the width of the table it reads.

// paperTable builds name(id, year, c, …): rows rows, the three columns the
// query reads, and extra more BOOLEAN columns after them — half filled
// like finished expansions, half registered and never filled (all-NULL,
// nil chunks).
func paperTable(t *testing.T, e *Engine, name string, rows, extra int) {
	t.Helper()
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE %s (id INTEGER, year INTEGER, c BOOLEAN)`, name))
	tbl, _ := e.Catalog().Get(name)
	for i := 0; i < rows; i++ {
		c := storage.Bool(i%3 == 0)
		if i%10 == 9 {
			c = storage.Null()
		}
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(1950+i%70)), c); err != nil {
			t.Fatal(err)
		}
	}
	filled := make([]storage.Value, rows)
	for i := range filled {
		filled[i] = storage.Bool(i%2 == 0)
	}
	for x := 0; x < extra; x++ {
		col := storage.Column{Name: fmt.Sprintf("x%d", x), Kind: storage.KindBool, Perceptual: true, Origin: storage.ColumnExpanded}
		if _, err := tbl.AddColumn(col); err != nil {
			t.Fatal(err)
		}
		if x%2 == 0 {
			if err := tbl.FillColumn(col.Name, filled); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// execCost plans sql once and returns what one execution of the plan
// allocates (costOf).
func execCost(t *testing.T, e *Engine, sql string) (allocs, bytes float64, res *Result) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes = costOf(func() {
		if res, err = ExecPlan(p); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, bytes, res
}

// costOf returns what one call of run allocates: objects
// (testing.AllocsPerRun) and bytes (TotalAlloc).
func costOf(run func()) (allocs, bytes float64) {
	const runs = 20
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func TestWideTableCostsWhatANarrowOneDoes(t *testing.T) {
	const rows = 2*storage.ChunkRows + 500 // two sealed chunks and a tail
	e := New(storage.NewCatalog())
	e.SetExecWorkers(1)
	paperTable(t, e, "narrow", rows, 0)
	paperTable(t, e, "wide", rows, 197)
	if tbl, _ := e.Catalog().Get("wide"); tbl.NumCols() != 200 {
		t.Fatalf("wide has %d columns", tbl.NumCols())
	}
	for _, q := range []string{
		`SELECT COUNT(*) FROM %s WHERE c = true AND year > 1985`,
		`SELECT id FROM %s WHERE c = true AND year > 1985 LIMIT 20`,
		`SELECT year, COUNT(*) FROM %s WHERE c = true GROUP BY year`,
	} {
		nAllocs, nBytes, nRes := execCost(t, e, fmt.Sprintf(q, "narrow"))
		wAllocs, wBytes, wRes := execCost(t, e, fmt.Sprintf(q, "wide"))
		if fmt.Sprint(nRes.Rows) != fmt.Sprint(wRes.Rows) || len(nRes.Rows) == 0 {
			t.Fatalf("%s: the tables answer differently: %v vs %v", q, nRes.Rows, wRes.Rows)
		}
		t.Logf("%s: 3 columns %.0f allocs / %.0f B, 200 columns %.0f allocs / %.0f B", q, nAllocs, nBytes, wAllocs, wBytes)
		if wAllocs > 1.1*nAllocs || wBytes > 1.1*nBytes {
			t.Errorf("%s: 200 columns cost %.0f allocs / %.0f B, 3 columns %.0f / %.0f: over 10%% more",
				q, wAllocs, wBytes, nAllocs, nBytes)
		}
	}
}

// A point lookup through an index returns one row and sizes its cursor
// for one. The row-buffer cursor allocated 256 rows × the table's width
// whatever the probe matched: 32 KB for the four columns of
// BenchmarkPointLookup's table, 60 KB for the six of this one. The index
// cursor carries none of the scan form's window state — its 512-byte
// selection bitmap made the cursor 1 KiB, now 384 B: 3 280 B measured
// (3 392 B under -race), 3 920 B with it.
func TestPointLookupAllocatesForOneRow(t *testing.T) {
	e := New(storage.NewCatalog())
	e.SetExecWorkers(1)
	paperTable(t, e, "movies", 5000, 3)
	mustExec(t, e, `CREATE INDEX movies_id ON movies (id)`)
	sql := `SELECT id, year, c FROM movies WHERE id = 4321`
	if plan := flattenPlan(t, mustExec(t, e, "EXPLAIN "+sql)); !strings.Contains(plan, "IndexScan(movies_id") {
		t.Fatalf("not an index probe:\n%s", plan)
	}
	allocs, bytes, res := execCost(t, e, sql)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	t.Logf("point lookup: %.0f allocs, %.0f B per execution", allocs, bytes)
	if bytes > 3400 {
		t.Errorf("point lookup allocates %.0f B per execution, want at most 3 400", bytes)
	}
}

// stmtCost parses sql once and returns what one execution of the statement
// — planning included — allocates: objects and bytes.
func stmtCost(t *testing.T, e *Engine, sql string) (allocs, bytes float64, res *Result) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes = costOf(func() {
		if res, err = e.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, bytes, res
}

// An UPDATE reads the columns its WHERE and SET name and writes the chunk
// its row lies in: on the paper's table, 200 columns wide after the
// expansions, it costs what it costs on three columns, but for the one
// thing a new version has per column — a 32-byte header (storage.colData).
func TestPointUpdateCostsWhatItDoesOnANarrowTable(t *testing.T) {
	const rows = storage.ChunkRows + 500
	e := New(storage.NewCatalog())
	e.SetExecWorkers(1)
	paperTable(t, e, "narrow", rows, 0)
	paperTable(t, e, "wide", rows, 197)
	for _, q := range []string{
		`UPDATE %s SET year = 2001 WHERE id = 77`,                     // a sealed chunk
		`UPDATE %s SET year = year + 1 - 1, c = NULL WHERE id = 4200`, // the tail, two targets, an expression
	} {
		nAllocs, nBytes, nRes := stmtCost(t, e, fmt.Sprintf(q, "narrow"))
		wAllocs, wBytes, wRes := stmtCost(t, e, fmt.Sprintf(q, "wide"))
		if nRes.Affected != 1 || wRes.Affected != 1 {
			t.Fatalf("%s: affected %d and %d rows, want 1", q, nRes.Affected, wRes.Affected)
		}
		t.Logf("%s: 3 columns %.0f allocs / %.0f B, 200 columns %.0f allocs / %.0f B", q, nAllocs, nBytes, wAllocs, wBytes)
		const headers = 197 * 32
		if wAllocs > 1.1*nAllocs || wBytes-headers > 1.1*nBytes {
			t.Errorf("%s: 200 columns cost %.0f allocs / %.0f B (%d B of them column headers), 3 columns %.0f / %.0f: over 10%% more",
				q, wAllocs, wBytes, headers, nAllocs, nBytes)
		}
	}
}

// A DELETE whose range holds nothing is answered by the index's count and
// an empty probe: no window is read, no buffer sized for one.
func TestNoMatchDeleteAllocatesAlmostNothing(t *testing.T) {
	e := New(storage.NewCatalog())
	e.SetExecWorkers(1)
	paperTable(t, e, "movies", 3*storage.ChunkRows, 0)
	mustExec(t, e, `CREATE INDEX movies_id ON movies (id)`)
	sql := `DELETE FROM movies WHERE id < 0`
	if plan := flattenPlan(t, mustExec(t, e, "EXPLAIN "+sql)); !strings.Contains(plan, "IndexRange(movies_id") {
		t.Fatalf("not an index probe:\n%s", plan)
	}
	allocs, bytes, res := stmtCost(t, e, sql)
	t.Logf("no-match DELETE: %.0f allocs, %.0f B per statement", allocs, bytes)
	if res.Affected != 0 || bytes > 4096 {
		t.Errorf("no-match DELETE affected %d rows and allocates %.0f B per statement, want 0 and under 4 KB", res.Affected, bytes)
	}
}
