package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// indexedEngine builds a table with enough shape to exercise every access
// path: an int id, a float score (with some NULLs), and a text tier.
func indexedEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec := func(sql string) *Result {
		t.Helper()
		res, err := e.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec(`CREATE TABLE items (id INTEGER, score FLOAT, tier TEXT)`)
	tbl, _ := e.Catalog().Get("items")
	for i := 0; i < 500; i++ {
		score := storage.Value(storage.Float(float64((i * 37) % 250)))
		if i%50 == 0 {
			score = storage.Null() // NULL keys must never be indexed
		}
		if err := tbl.Insert(storage.Int(int64(i)), score, storage.Text(fmt.Sprintf("t%d", i%5))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE INDEX idx_id ON items (id) USING HASH`)
	mustExec(`CREATE INDEX idx_score ON items (score)`)
	return e
}

// withBallast appends 20 000 rows that no query of these tests selects
// (ids from 500 up, negative scores, a tier of their own): beside them
// the fixture's score ranges hold under 1/32 of the table, which is what
// the planner asks of a range before it probes the index for it.
func withBallast(t *testing.T, e *Engine) *Engine {
	t.Helper()
	tbl, _ := e.Catalog().Get("items")
	for i := 0; i < 20000; i++ {
		if err := tbl.Insert(storage.Int(int64(500+i)), storage.Float(float64(-1-i)), storage.Text("ballast")); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func explainLines(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	res, err := e.ExecSQL("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var out []string
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		out = append(out, s)
	}
	return out
}

func planText(t *testing.T, e *Engine, sql string) string {
	return strings.Join(explainLines(t, e, sql), "\n")
}

func TestExplainChoosesIndexScanForIndexedEquality(t *testing.T) {
	e := indexedEngine(t)
	p := planText(t, e, `SELECT id, tier FROM items WHERE id = 42`)
	if !strings.Contains(p, "IndexScan(idx_id, id=42)") {
		t.Fatalf("plan does not use the hash index:\n%s", p)
	}
	// An unindexed column still plans a plain Scan.
	p = planText(t, e, `SELECT id FROM items WHERE tier = 't1'`)
	if !strings.Contains(p, "Scan(items") || strings.Contains(p, "IndexScan") {
		t.Fatalf("unindexed equality should full-scan:\n%s", p)
	}
}

func TestExplainChoosesIndexRangeForRangeConjuncts(t *testing.T) {
	e := withBallast(t, indexedEngine(t))
	p := planText(t, e, `SELECT id FROM items WHERE score > 100 AND score <= 200`)
	if !strings.Contains(p, "IndexRange(idx_score, 100..200)") {
		t.Fatalf("plan does not use the ordered index:\n%s", p)
	}
	// Residual conjuncts render on the probe node.
	p = planText(t, e, `SELECT id FROM items WHERE score > 100 AND tier = 't1'`)
	if !strings.Contains(p, "IndexRange(idx_score, score > 100) filter=") {
		t.Fatalf("residual missing from IndexRange:\n%s", p)
	}
	// A range on a hash-indexed-only column cannot use the index.
	p = planText(t, e, `SELECT id FROM items WHERE id > 400`)
	if strings.Contains(p, "Index") {
		t.Fatalf("hash index must not answer a range probe:\n%s", p)
	}
}

// TestIndexAnswersMatchScan runs the same queries with and without
// indexes and requires identical results — the index is an access path,
// never a semantics change.
func TestIndexAnswersMatchScan(t *testing.T) {
	indexed := indexedEngine(t)
	plain := New(storage.NewCatalog())
	if _, err := plain.ExecSQL(`CREATE TABLE items (id INTEGER, score FLOAT, tier TEXT)`); err != nil {
		t.Fatal(err)
	}
	src, _ := indexed.Catalog().Get("items")
	dst, _ := plain.Catalog().Get("items")
	src.Scan(func(i int, row storage.Row) bool {
		if err := dst.Insert(row...); err != nil {
			t.Fatal(err)
		}
		return true
	})

	queries := []string{
		`SELECT id, score, tier FROM items WHERE id = 42`,
		`SELECT id FROM items WHERE id = -1`,
		`SELECT id FROM items WHERE 42 = id`,
		`SELECT id, score FROM items WHERE score > 100 AND score <= 200 ORDER BY id`,
		`SELECT id FROM items WHERE score >= 0 ORDER BY id`,
		`SELECT id FROM items WHERE score > 100 AND tier = 't1' ORDER BY id`,
		`SELECT id FROM items WHERE id = 10 AND score IS NULL`,
		`SELECT id, score FROM items WHERE score > 50 ORDER BY score LIMIT 7`,
		`SELECT id, score FROM items WHERE score > 50 ORDER BY score`,
		`SELECT id, score FROM items ORDER BY score LIMIT 9`,
		`SELECT id, score FROM items ORDER BY score DESC LIMIT 9`,
		`SELECT id, score FROM items ORDER BY score`,
		`SELECT count(*) c FROM items WHERE score > 100`,
	}
	for _, q := range queries {
		want, err := plain.ExecSQL(q)
		if err != nil {
			t.Fatalf("%s (plain): %v", q, err)
		}
		got, err := indexed.ExecSQL(q)
		if err != nil {
			t.Fatalf("%s (indexed): %v", q, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows indexed vs %d plain", q, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				g, w := got.Rows[i][j], want.Rows[i][j]
				if g.String() != w.String() || g.Kind() != w.Kind() {
					t.Fatalf("%s: row %d col %d = %v, want %v", q, i, j, g, w)
				}
			}
		}
	}
}

// TestOrderByNullsStayLast covers the elision guard: ORDER BY over a
// column with NULLs must keep NULL rows (sorted last), even when an
// ordered index on that column exists.
func TestOrderByNullsStayLast(t *testing.T) {
	e := indexedEngine(t)
	res, err := e.ExecSQL(`SELECT id, score FROM items ORDER BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("rows = %d, want all 500 (NULL scores must not vanish)", len(res.Rows))
	}
	tail := res.Rows[len(res.Rows)-10]
	if !tail[1].IsNull() {
		t.Fatalf("NULL scores should sort last, tail row = %v", tail)
	}
}

// TestOrderByLimitUsesIndexOrder checks the TopN-to-Limit rewrite: a bare
// ORDER BY key LIMIT n over an ordered index becomes an index-ordered
// Limit with no TopN operator.
func TestOrderByLimitUsesIndexOrder(t *testing.T) {
	e := indexedEngine(t)
	p := planText(t, e, `SELECT id, score FROM items ORDER BY score LIMIT 9`)
	if !strings.Contains(p, "IndexRange(idx_score, score)") || strings.Contains(p, "TopN") {
		t.Fatalf("ORDER BY+LIMIT should ride the ordered index:\n%s", p)
	}
	// DESC rides the same index through a reversed probe (group-wise, so
	// tie order still matches a stable DESC sort).
	p = planText(t, e, `SELECT id, score FROM items ORDER BY score DESC LIMIT 9`)
	if !strings.Contains(p, "IndexRange(idx_score, score desc)") || strings.Contains(p, "TopN") {
		t.Fatalf("DESC should ride the reversed ordered index:\n%s", p)
	}
	// A bounded range already in index order drops the sort entirely.
	p = planText(t, e, `SELECT id, score FROM items WHERE score > 50 ORDER BY score`)
	if strings.Contains(p, "Sort") || !strings.Contains(p, "IndexRange") {
		t.Fatalf("bounded range should elide the sort:\n%s", p)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	e := indexedEngine(t)
	if _, err := e.ExecSQL(`CREATE INDEX idx_id ON items (id)`); err == nil || !strings.Contains(err.Error(), "already has an index") {
		t.Fatalf("duplicate index name: %v", err)
	}
	if _, err := e.ExecSQL(`CREATE INDEX idx_x ON items (nope)`); err == nil || !strings.Contains(err.Error(), "no column") {
		t.Fatalf("missing column: %v", err)
	}
	var missing *MissingColumnError
	if _, err := e.ExecSQL(`CREATE INDEX idx_x ON items (nope)`); errors.As(err, &missing) {
		t.Fatal("CREATE INDEX must not raise MissingColumnError (it would trigger a crowd expansion)")
	}
	if _, err := e.ExecSQL(`CREATE INDEX idx_y ON ghosts (id)`); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("missing table: %v", err)
	}
}

// TestIndexMaintainedAcrossDML checks that inserts, updates, and deletes
// keep index answers correct.
func TestIndexMaintainedAcrossDML(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec := func(sql string) {
		t.Helper()
		if _, err := e.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE kv (k INTEGER, v TEXT)`)
	mustExec(`CREATE INDEX kv_k ON kv (k) USING HASH`)
	mustExec(`CREATE INDEX kv_k_ord ON kv (k)`)
	for i := 0; i < 100; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'v%d')`, i%10, i))
	}
	count := func(sql string) int {
		t.Helper()
		res, err := e.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return len(res.Rows)
	}
	if n := count(`SELECT v FROM kv WHERE k = 3`); n != 10 {
		t.Fatalf("k=3 rows = %d, want 10", n)
	}
	mustExec(`UPDATE kv SET k = 99 WHERE v = 'v3'`) // one row leaves k=3
	if n := count(`SELECT v FROM kv WHERE k = 3`); n != 9 {
		t.Fatalf("after update, k=3 rows = %d, want 9", n)
	}
	if n := count(`SELECT v FROM kv WHERE k = 99`); n != 1 {
		t.Fatalf("after update, k=99 rows = %d, want 1", n)
	}
	mustExec(`DELETE FROM kv WHERE k = 4`)
	if n := count(`SELECT v FROM kv WHERE k = 4`); n != 0 {
		t.Fatalf("after delete, k=4 rows = %d, want 0", n)
	}
	// Delete compacted row IDs; every other key must still answer.
	if n := count(`SELECT v FROM kv WHERE k = 5`); n != 10 {
		t.Fatalf("after delete, k=5 rows = %d, want 10", n)
	}
	if n := count(`SELECT v FROM kv WHERE k >= 8 AND k <= 9`); n != 20 {
		t.Fatalf("range after delete = %d, want 20", n)
	}
}

// TestIndexScanInJoin verifies the access path composes under a join:
// the probe side of the join still picks up an index for its pushed-down
// equality.
func TestIndexScanInJoin(t *testing.T) {
	e := indexedEngine(t)
	if _, err := e.ExecSQL(`CREATE TABLE tags (item INTEGER, tag TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.ExecSQL(fmt.Sprintf(`INSERT INTO tags VALUES (%d, 'tag%d')`, i*10, i)); err != nil {
			t.Fatal(err)
		}
	}
	p := planText(t, e, `SELECT g.tag FROM items i JOIN tags g ON i.id = g.item WHERE i.id = 420`)
	if !strings.Contains(p, "IndexScan(idx_id, id=420)") {
		t.Fatalf("join input should use the index:\n%s", p)
	}
	res, err := e.ExecSQL(`SELECT g.tag FROM items i JOIN tags g ON i.id = g.item WHERE i.id = 420`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d, want 1", len(res.Rows))
	}
	if tag, _ := res.Rows[0][0].AsText(); tag != "tag42" {
		t.Fatalf("tag = %q", tag)
	}
}

// TestResidualFiltersAboveCursors pins down what the storage cursors'
// per-row filter closures used to guarantee, now that the residual of a
// scan or index probe is a Filter on the cursor's rows: it sees exactly
// the rows the vectorized predicates and the probe let through, and an
// evaluation error surfaces after every row that precedes it — across
// cursor batch boundaries (256 rows) — and ends the scan.
func TestResidualFiltersAboveCursors(t *testing.T) {
	e := withBallast(t, indexedEngine(t))

	// Scan: one vectorizable conjunct (id < 490) and one residual.
	run := streamAt(t, e, 1, `SELECT id FROM items WHERE id < 490 AND id + 1 > 480`)
	if run.err != "" || len(run.rows) != 10 {
		t.Fatalf("scan residual: %d rows, err %q", len(run.rows), run.err)
	}
	for i, row := range run.rows {
		if id, _ := row[0].AsInt(); id != int64(480+i) {
			t.Fatalf("scan residual row %d = %v", i, row)
		}
	}

	// Error order: ids 0..299 stream, then row 300 divides by zero.
	run = streamAt(t, e, 1, `SELECT id FROM items WHERE 100 / (id - 300) < 1000`)
	if run.err != "engine: division by zero" || len(run.rows) != 300 {
		t.Fatalf("scan error: %d rows before %q", len(run.rows), run.err)
	}

	// Index probe with a residual: tier t3 is id%5 == 3; the probe is
	// score >= 100 in index order.
	const probe = `SELECT id, score FROM items WHERE score >= 100.0 AND tier = 't3'`
	if plan := planText(t, e, probe); !strings.Contains(plan, "IndexRange(idx_score") || !strings.Contains(plan, "filter=") {
		t.Fatalf("not an index probe with a residual:\n%s", plan)
	}
	run = streamAt(t, e, 1, probe)
	want := 0
	for i := 0; i < 500; i++ {
		if i%50 != 0 && i*37%250 >= 100 && i%5 == 3 {
			want++
		}
	}
	if run.err != "" || len(run.rows) != want {
		t.Fatalf("index residual: %d rows, want %d, err %q", len(run.rows), want, run.err)
	}
	last := -1.0
	for _, row := range run.rows {
		id, _ := row[0].AsInt()
		score, _ := row[1].AsFloat()
		if id%5 != 3 || score < 100 || score < last {
			t.Fatalf("index residual leaked or reordered row %v", row)
		}
		last = score
	}
}

// TestRangeAccessPathCountsBeforeProbing is the table of access-path rule
// 2's count clause: a range on an ordered-indexed column is counted at
// plan time, and probed only if it holds at most 1/32 of the live rows —
// otherwise the table is scanned with every conjunct, the bounds
// included, in the scan's filter. Each case names the EXPLAIN line of
// the access path, annotation included.
func TestRangeAccessPathCountsBeforeProbing(t *testing.T) {
	e := New(storage.NewCatalog())
	e.SetExecWorkers(1)
	mustExec(t, e, `CREATE TABLE t (id INTEGER, v INTEGER, d INTEGER, pad TEXT)`)
	mustExec(t, e, `CREATE TABLE empty (v INTEGER)`)
	tbl, _ := e.Catalog().Get("t")
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(i)), storage.Int(int64(i)), storage.Text("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 2 700 rows bulk-loaded into the indexes' base runs, then 500 more
	// through Add, which a 1 024-entry delta buffer keeps apart: 3 200 live
	// rows, of which 1/32 is exactly 100.
	insert(0, 2700)
	mustExec(t, e, `CREATE INDEX t_v ON t (v)`)
	mustExec(t, e, `CREATE INDEX t_d ON t (d DESC)`)
	mustExec(t, e, `CREATE INDEX empty_v ON empty (v)`)
	insert(2700, 3200)

	access := func(sql string) string {
		t.Helper()
		lines := explainLines(t, e, sql)
		return strings.TrimLeft(lines[len(lines)-1], " └─│├")
	}
	cases := []struct{ name, where, want string }{
		{"narrow", `v >= 10 AND v < 60`, `IndexRange(t_v, 10..60) rows=50 of 3200`},
		{"narrow with a residual", `v >= 10 AND v < 60 AND pad = 'x'`, `IndexRange(t_v, 10..60) filter=(pad = 'x') rows=50 of 3200`},
		{"at the boundary", `v >= 0 AND v < 100`, `IndexRange(t_v, 0..100) rows=100 of 3200`},
		{"one row past it", `v >= 0 AND v <= 100`,
			`Scan(t, filter=((v >= 0) AND (v <= 100))) index t_v declined: 101 of 3200 rows`},
		{"wide: both bounds and the residual stay in the filter", `v >= 1000 AND pad = 'x' AND v < 2000`,
			`Scan(t, filter=(((v >= 1000) AND (pad = 'x')) AND (v < 2000))) index t_v declined: 1000 of 3200 rows`},
		{"tightened bounds are counted, every conjunct is kept", `v > 5 AND v > 500 AND v < 3000`,
			`Scan(t, filter=(((v > 5) AND (v > 500)) AND (v < 3000))) index t_v declined: 2499 of 3200 rows`},
		{"open above, narrow", `v >= 3150`, `IndexRange(t_v, v >= 3150) rows=50 of 3200`},
		{"open above, wide", `v > 99`, `Scan(t, filter=(v > 99)) index t_v declined: 3100 of 3200 rows`},
		{"open below, narrow", `v < 7`, `IndexRange(t_v, v < 7) rows=7 of 3200`},
		{"across the base and the delta run", `v >= 2650 AND v < 2750`, `IndexRange(t_v, 2650..2750) rows=100 of 3200`},
		{"DESC index, narrow", `d > 3100 AND d <= 3150`, `IndexRange(t_d, 3100..3150) rows=50 of 3200`},
		{"DESC index, across the runs", `d >= 2690 AND d <= 2709`, `IndexRange(t_d, 2690..2709) rows=20 of 3200`},
		{"DESC index, wide", `d < 1600`, `Scan(t, filter=(d < 1600)) index t_d declined: 1600 of 3200 rows`},
		{"an empty range", `v > 5000`, `IndexRange(t_v, v > 5000) rows=0 of 3200`},
	}
	for _, c := range cases {
		if got := access(`SELECT id FROM t WHERE ` + c.where); got != c.want {
			t.Errorf("%s: WHERE %s\n got %s\nwant %s", c.name, c.where, got, c.want)
		}
	}
	if got, want := access(`SELECT v FROM empty WHERE v > 5 AND v + 1 > 2`), `IndexRange(empty_v, v > 5) filter=((v + 1) > 2)`; got != want {
		t.Errorf("empty index: got %s, want %s", got, want)
	}

	// After deletes both sides of the ratio move: the tombstoned rows leave
	// the index and the live count. 1 600 rows remain; 1/32 of them is 50.
	mustExec(t, e, `DELETE FROM t WHERE id < 1600`)
	for _, c := range []struct{ where, want string }{
		{`v >= 1600 AND v < 1650`, `IndexRange(t_v, 1600..1650) rows=50 of 1600`},
		{`v >= 1500 AND v < 1651`, `Scan(t, filter=((v >= 1500) AND (v < 1651))) index t_v declined: 51 of 1600 rows`},
		{`v < 1600`, `IndexRange(t_v, v < 1600) rows=0 of 1600`},
	} {
		if got := access(`SELECT id FROM t WHERE ` + c.where); got != c.want {
			t.Errorf("after deletes: WHERE %s\n got %s\nwant %s", c.where, got, c.want)
		}
	}

	// ORDER BY gets the probe's order first: a range that elides the sort
	// is kept at any width, and the count is still shown.
	if got, want := access(`SELECT id FROM t WHERE v >= 1700 ORDER BY v`), `IndexRange(t_v, v >= 1700) rows=1500 of 1600`; got != want {
		t.Errorf("sort-eliding wide range: got %s, want %s", got, want)
	}
	// The count never reaches Explain(), the result cache's fingerprint.
	stmt, err := sqlparse.Parse(`SELECT id FROM t WHERE v >= 1500 AND v < 1651`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if fp := p.Fingerprint(); strings.Contains(fp, "declined") || strings.Contains(fp, "1600") {
		t.Errorf("the plan-time count leaked into the fingerprint:\n%s", fp)
	}
}
