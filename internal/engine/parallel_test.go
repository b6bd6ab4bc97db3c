package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Parallel-executor coverage: every query here runs at exec-workers 1, 2
// and 8, and the three row streams must be identical — rows, row order
// and, when evaluation fails, the rows before the error and its text:
// the executor's contract that the degree of parallelism never shows in
// a result. The fixtures are sized past plan.MinParallelRows (4096) and
// past one morsel so the dop-2 and dop-8 runs actually fan out.

const parRows = 5000

// parallelEngine builds wide (parRows rows, every 7th join key NULL),
// dims (10 distinct join keys), and tiny (3 rows, for cross joins).
func parallelEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE wide (id INTEGER, k INTEGER, grp INTEGER, score FLOAT)`)
	mustExec(t, e, `CREATE TABLE dims (k INTEGER, label TEXT)`)
	mustExec(t, e, `CREATE TABLE tiny (bound INTEGER, tag TEXT)`)
	wide, _ := e.Catalog().Get("wide")
	for i := 0; i < parRows; i++ {
		k := storage.Int(int64(i % 10))
		if i%7 == 0 {
			k = storage.Null()
		}
		if err := wide.Insert(storage.Int(int64(i)), k,
			storage.Int(int64(i%4)), storage.Float(float64(i%1000))); err != nil {
			t.Fatal(err)
		}
	}
	dims, _ := e.Catalog().Get("dims")
	for k := 0; k < 10; k++ {
		if err := dims.Insert(storage.Int(int64(k)), storage.Text(fmt.Sprintf("label-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `INSERT INTO tiny VALUES (3, 'lo'), (4700, 'hi'), (NULL, 'null')`)
	return e
}

// dopRun is what one execution of a query produced: the streamed rows up
// to the end or the first error, and that error's text.
type dopRun struct {
	columns []string
	rows    []storage.Row
	err     string
}

// streamAt plans sql at the given exec-workers and streams it (OpenPlan),
// boxing every batch as it is handed up, and requires that closing the
// stream leaves no snapshot pinned on any table and no goroutine behind —
// and that Engine.Exec, whose rows are boxed from the owned batch list
// after the iterators are closed, returns the same rows (or, where the
// stream ended in an error, that error and no rows).
func streamAt(t *testing.T, e *Engine, workers int, sql string) dopRun {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	e.SetExecWorkers(workers)
	defer e.SetExecWorkers(1)
	before := runtime.NumGoroutine()

	var run dopRun
	var st *StreamResult
	p, err := e.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err == nil {
		st, err = OpenPlan(p, nil)
	}
	if err != nil {
		run.err = err.Error()
	} else {
		run.columns = st.Columns
		for {
			b, err := st.NextBatch()
			if b != nil {
				run.rows = b.AppendRows(run.rows)
			}
			if err != nil {
				run.err = err.Error()
			}
			if err != nil || b == nil {
				break
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("workers=%d %s: Close: %v", workers, sql, err)
		}
	}
	res, err := e.Exec(stmt)
	switch {
	case err != nil:
		if err.Error() != run.err {
			t.Fatalf("workers=%d %s: Exec fails with %q, the stream with %q", workers, sql, err, run.err)
		}
	case run.err != "":
		t.Fatalf("workers=%d %s: the stream fails with %q, Exec returns %d rows", workers, sql, run.err, len(res.Rows))
	case storage.RowCount(res.Batches) != len(res.Rows) || res.Affected != len(res.Rows) || len(res.Rows) != len(run.rows):
		t.Fatalf("workers=%d %s: Exec returns %d rows in Rows, %d in Batches, Affected %d; the stream %d",
			workers, sql, len(res.Rows), storage.RowCount(res.Batches), res.Affected, len(run.rows))
	default:
		for i := range run.rows {
			if !sameRow(run.rows[i], res.Rows[i]) {
				t.Fatalf("workers=%d %s: row %d is %v from the batch list, %v from the stream", workers, sql, i, res.Rows[i], run.rows[i])
			}
		}
		for i := range res.Batches {
			b := &res.Batches[i]
			if !b.AllSelected() || b.N == 0 || b.N > storage.ChunkRows || i < len(res.Batches)-1 && b.N != storage.ChunkRows {
				t.Fatalf("workers=%d %s: result batch %d of %d holds %d cells under a selection of %d", workers, sql, i, len(res.Batches), b.N, len(b.Sel))
			}
			for c := range b.Cols {
				if b.Cols[c].Pinned {
					t.Fatalf("workers=%d %s: result batch %d column %d views pinned storage", workers, sql, i, c)
				}
			}
		}
	}

	requireNoPins(t, e)
	// A worker's exit trails its WaitGroup.Done by a few instructions.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("workers=%d %s: %d goroutines before, %d after", workers, sql, before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
	return run
}

// requireNoPins fails if any table still has a pinned snapshot.
func requireNoPins(t *testing.T, e *Engine) {
	t.Helper()
	for _, name := range e.Catalog().Names() {
		tbl, _ := e.Catalog().Get(name)
		if live := tbl.LiveSnapshotEpochs(); len(live) != 0 {
			t.Fatalf("table %s still pins snapshot epochs %v", name, live)
		}
	}
}

// everyDop runs sql at exec-workers 1, 2 and 8 and requires identical
// streams; it returns the exec-workers 1 run.
func everyDop(t *testing.T, e *Engine, sql string) dopRun {
	t.Helper()
	serial := streamAt(t, e, 1, sql)
	for _, workers := range []int{2, 8} {
		got := streamAt(t, e, workers, sql)
		if !reflect.DeepEqual(serial.columns, got.columns) {
			t.Fatalf("%s\ncolumns diverge: workers=1 %v workers=%d %v", sql, serial.columns, workers, got.columns)
		}
		if serial.err != got.err {
			t.Fatalf("%s\nerrors diverge: workers=1 %q workers=%d %q", sql, serial.err, workers, got.err)
		}
		if len(serial.rows) != len(got.rows) {
			t.Fatalf("%s\nrow counts diverge: workers=1 %d workers=%d %d", sql, len(serial.rows), workers, len(got.rows))
		}
		for i := range serial.rows {
			if !sameRow(serial.rows[i], got.rows[i]) {
				t.Fatalf("%s\nrow %d diverges: workers=1 %v workers=%d %v", sql, i, serial.rows[i], workers, got.rows[i])
			}
		}
	}
	return serial
}

// sameRow is reflect.DeepEqual over two rows, except that a NaN equals a
// NaN: a FLOAT group key may be one.
func sameRow(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, _ := a[i].AsFloat()
		y, _ := b[i].AsFloat()
		bothNaN := a[i].Kind() == storage.KindFloat && b[i].Kind() == storage.KindFloat && x != x && y != y
		if !bothNaN && !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// bothDops is everyDop for queries that must succeed.
func bothDops(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	run := everyDop(t, e, sql)
	if run.err != "" {
		t.Fatalf("%s: %s", sql, run.err)
	}
	return &Result{Columns: run.columns, Rows: run.rows}
}

func TestParallelScanFilterMatchesSerial(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT id, score FROM wide WHERE score > 899.0`)
	if len(res.Rows) != 500 { // 100 per 1000-block × 5 blocks
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Gather must preserve the serial scan order.
	first, _ := res.Rows[0][0].AsInt()
	second, _ := res.Rows[1][0].AsInt()
	if first != 900 || second != 901 {
		t.Fatalf("order wrong: %v %v", res.Rows[0], res.Rows[1])
	}
}

func TestParallelJoinDropsNullKeysBothSides(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k`)
	// Every 7th wide row has a NULL key and must not match anything:
	// ceil(5000/7) = 715 dropped rows.
	if want := parRows - 715; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row[1].IsNull() {
			t.Fatalf("NULL-keyed row leaked into the join output: %v", row)
		}
	}
}

func TestParallelCrossJoinResidualOnly(t *testing.T) {
	e := parallelEngine(t)
	// No equality conjunct at all: the join degenerates to a keyless
	// cross join filtered by the residual, still morsel-parallel on the
	// probe side. The NULL bound matches nothing (3VL).
	res := bothDops(t, e, `SELECT w.id, t.tag FROM wide w JOIN tiny t ON w.id < t.bound`)
	if want := 3 + 4700; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestParallelGroupByMatchesSerial(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT grp, COUNT(*), SUM(score), MIN(score), MAX(score), AVG(score)
		FROM wide GROUP BY grp HAVING COUNT(*) > 0`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// First-seen order: grp cycles 0,1,2,3 from row 0.
	for g := 0; g < 4; g++ {
		grp, _ := res.Rows[g][0].AsInt()
		count, _ := res.Rows[g][1].AsInt()
		if grp != int64(g) || count != int64(parRows/4) {
			t.Fatalf("group %d = %v", g, res.Rows[g])
		}
	}
}

func TestParallelAggregateOverJoin(t *testing.T) {
	e := parallelEngine(t)
	res := bothDops(t, e, `SELECT COUNT(*) FROM wide w JOIN dims d ON w.k = d.k WHERE w.score > 500.0`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestExplainParallelJoinShape is the planner acceptance check: in a
// three-table join the greedy orderer must pick the small table as the
// hash build side even when it comes first in syntax order, and EXPLAIN
// must render the degree of parallelism on every parallel operator.
func TestExplainParallelJoinShape(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE small (k INTEGER, name TEXT)`)
	mustExec(t, e, `CREATE TABLE big1 (id INTEGER, v FLOAT)`)
	mustExec(t, e, `CREATE TABLE big2 (id INTEGER, w FLOAT)`)
	small, _ := e.Catalog().Get("small")
	for i := 0; i < 50; i++ {
		if err := small.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"big1", "big2"} {
		tbl, _ := e.Catalog().Get(name)
		for i := 0; i < parRows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Float(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.SetExecWorkers(8)

	res := mustExec(t, e, `EXPLAIN SELECT b1.id FROM small s
		JOIN big1 b1 ON s.k = b1.id
		JOIN big2 b2 ON b1.id = b2.id`)
	var lines []string
	for _, row := range res.Rows {
		line, _ := row[0].AsText()
		lines = append(lines, line)
	}
	text := strings.Join(lines, "\n")

	// small is syntactically first but must end up as the build (right)
	// input of its join: the key pair renders probe-side first.
	if !strings.Contains(text, "HashJoin(b1.id = s.k)") {
		t.Fatalf("small table is not the build side:\n%s", text)
	}
	// Parallel operators render their dop; the 50-row small scan stays
	// serial.
	for _, want := range []string{
		"Scan(big1 b1) [dop=8]",
		"Scan(big2 b2) [dop=8]",
		"[dop=8]\n", // at least one HashJoin line carries it too
	} {
		if !strings.Contains(text+"\n", want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "Scan(small s) [dop") {
		t.Fatalf("50-row scan should stay serial:\n%s", text)
	}
	joinLines := 0
	for _, l := range lines {
		if strings.Contains(l, "HashJoin") && strings.Contains(l, "[dop=8]") {
			joinLines++
		}
	}
	if joinLines != 2 {
		t.Fatalf("want both joins parallel, got %d:\n%s", joinLines, text)
	}
}

// TestParallelJoinDuringCrowdFill races parallel join queries against
// concurrent cell fills and row inserts on the probe table — the exact
// interleaving a crowd expansion produces while readers keep querying.
// Run under -race (nightly does); correctness here is "no error and
// plausible results", since concurrent writers make exact counts racy.
func TestParallelJoinDuringCrowdFill(t *testing.T) {
	e := parallelEngine(t)
	e.SetExecWorkers(8)
	wide, _ := e.Catalog().Get("wide")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fill cells like a crowd job does, and append fresh rows.
			if err := wide.Set(i%parRows, 3, storage.Float(float64(i))); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if err := wide.Insert(storage.Int(int64(parRows+i)), storage.Int(int64(i%10)),
					storage.Int(int64(i%4)), storage.Null()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for q := 0; q < 30; q++ {
		res, err := e.ExecSQL(`SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < parRows-715 {
			t.Fatalf("query %d returned %d rows, fewer than the seeded minimum", q, len(res.Rows))
		}
	}
	close(stop)
	wg.Wait()
}

// TestParallelJoinEarlyClose closes a parallel hash join while its probe
// workers are still running: LIMIT is satisfied by the first morsel, so
// Close arrives with morsels in flight. The join must stop and join the
// workers before it drops the build table they read.
func TestParallelJoinEarlyClose(t *testing.T) {
	e := parallelEngine(t)
	e.SetExecWorkers(8)
	defer e.SetExecWorkers(1)
	for i := 0; i < 200; i++ {
		res := mustExec(t, e, `SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k LIMIT 3`)
		if len(res.Rows) != 3 {
			t.Fatalf("iteration %d: rows = %d", i, len(res.Rows))
		}
	}
	requireNoPins(t, e)
}

// diffRows is three morsels of facts (4096 + 4096 + 808).
const diffRows = 9000

// differentialEngine builds the fixture of the seeded differential, with
// plan.MinParallelRows lowered so that mid (one morsel, a marked chain)
// parallelizes too while dims, fdims and tiny stay unmarked: facts (NULLs
// in k, score, val, b and flag, also in its unsealed tail; an ordered
// index on score, none on its copy val; tombstones straddling both chunk
// boundaries), dims (10 keys, one NULL), fdims (the same keys as FLOAT,
// plus one no integer equals), mid (200 rows keyed by id) and tiny (3
// bounds for keyless joins). Float cells are multiples of 0.5, so SUM
// and AVG are exact in any fold order.
func differentialEngine(t *testing.T) *Engine {
	t.Helper()
	old := plan.MinParallelRows
	plan.MinParallelRows = 64
	t.Cleanup(func() { plan.MinParallelRows = old })

	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE facts (id INTEGER, k INTEGER, grp INTEGER, score FLOAT, val FLOAT,
		a INTEGER, b INTEGER, flag BOOLEAN, note TEXT)`)
	mustExec(t, e, `CREATE TABLE dims (k INTEGER, label TEXT)`)
	mustExec(t, e, `CREATE TABLE fdims (k FLOAT, label TEXT)`)
	mustExec(t, e, `CREATE TABLE mid (id INTEGER, weight FLOAT, tag TEXT)`)
	mustExec(t, e, `CREATE TABLE tiny (bound INTEGER, tag TEXT)`)
	facts, _ := e.Catalog().Get("facts")
	for i := 0; i < diffRows; i++ {
		k, b, flag := storage.Int(int64(i%10)), storage.Int(int64(i*7%13)), storage.Bool(i%3 == 0)
		score := storage.Float(float64(i*37%1000) / 2)
		if i%7 == 0 {
			k = storage.Null()
		}
		if i%11 == 0 {
			score = storage.Null()
		}
		if i%17 == 0 {
			b = storage.Null()
		}
		if i%3 == 2 {
			flag = storage.Null()
		}
		if err := facts.Insert(storage.Int(int64(i)), k, storage.Int(int64(i%5)), score, score,
			storage.Int(int64(i%13)), b, flag, storage.Text(fmt.Sprintf("n%d", i%50))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `CREATE INDEX facts_score ON facts (score)`)
	// Dead rows on both sides of the boundary between chunks 0 and 1 and
	// of the one between the sealed chunks and the tail.
	mustExec(t, e, `DELETE FROM facts WHERE (id >= 4090 AND id < 4101) OR (id >= 8150 AND id < 8197)`)
	dims, _ := e.Catalog().Get("dims")
	fdims, _ := e.Catalog().Get("fdims")
	for k := 0; k < 10; k++ {
		key, fkey := storage.Int(int64(k)), storage.Float(float64(k))
		if k == 9 {
			key, fkey = storage.Null(), storage.Float(2.5)
		}
		if err := dims.Insert(key, storage.Text(fmt.Sprintf("label-%d", k))); err != nil {
			t.Fatal(err)
		}
		if err := fdims.Insert(fkey, storage.Text(fmt.Sprintf("flabel-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	mid, _ := e.Catalog().Get("mid")
	for i := 0; i < 200; i++ {
		if err := mid.Insert(storage.Int(int64(i)), storage.Float(float64(i%40)/2), storage.Text(fmt.Sprintf("t%d", i%6))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `INSERT INTO tiny VALUES (3, 'lo'), (8200, 'hi'), (NULL, 'null')`)
	return e
}

// diffQuery draws one query over the differential fixture.
func diffQuery(rng *rand.Rand) string {
	half := func(n int) float64 { return float64(rng.Intn(n)) / 2 }
	// pred draws 1–3 conjuncts over facts; p is its column prefix ("" or
	// an alias inside a join).
	pred := func(p string) string {
		// Vectorizable conjuncts, residuals the bitmaps cannot take
		// (arithmetic, column = column, OR), and NULL-sensitive forms.
		pool := []string{
			fmt.Sprintf("%sval > %g", p, half(1000)),
			fmt.Sprintf("%sval <= %g", p, half(1000)),
			fmt.Sprintf("%sval + 1 > %g", p, half(1000)),
			fmt.Sprintf("%sa = %sb", p, p),
			fmt.Sprintf("%sa + %sb < %d", p, p, rng.Intn(24)),
			fmt.Sprintf("%sk != %d", p, rng.Intn(10)),
			fmt.Sprintf("%sk IS NULL", p),
			fmt.Sprintf("%sb IS NOT NULL", p),
			fmt.Sprintf("%sflag", p),
			fmt.Sprintf("%sflag = false", p),
			fmt.Sprintf("%snote = 'n%d'", p, rng.Intn(50)),
			fmt.Sprintf("(%sval > %g OR %sk = %d)", p, half(1000), p, rng.Intn(10)),
			// Selections that are empty for whole batches: only the last
			// morsel, only the first rows, no row at all.
			fmt.Sprintf("%sid >= %d", p, 8192+rng.Intn(800)),
			fmt.Sprintf("%sid + 0 < %d", p, rng.Intn(300)),
			fmt.Sprintf("%sval < 0", p),
		}
		n := 1 + rng.Intn(3)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = pool[rng.Intn(len(pool))]
		}
		return strings.Join(parts, " AND ")
	}
	limit := func() string {
		return fmt.Sprintf(" LIMIT %d", []int{1, 3, 50, 4096, 4097, 8500}[rng.Intn(6)])
	}
	maybe := func(s string) string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return s
	}
	lo := half(1200)
	dir := []string{"", " DESC"}[rng.Intn(2)]
	switch rng.Intn(23) {
	case 21: // an indexed range — probed when narrow, declined when wide — under a typed-key aggregate
		return fmt.Sprintf(`SELECT grp, COUNT(*), SUM(val), AVG(score) FROM facts WHERE score > %g AND score <= %g AND %s GROUP BY grp`,
			lo, lo+half(80), pred(""))
	case 22: // and as the probe side of a typed-key join
		return fmt.Sprintf(`SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE f.score >= %g AND f.score < %g`, lo, lo+half(80)) + maybe(limit())
	case 0:
		return `SELECT id, val FROM facts WHERE ` + pred("") + maybe(limit())
	case 15: // computed projections: vectors of the operator's own beside forwarded ones
		return `SELECT id, val * 2 + a, k IS NULL, note FROM facts WHERE ` + pred("") + maybe(limit())
	case 16: // the evaluation error in the select list, mid-batch
		return `SELECT id, 100 / (id - 6000) FROM facts WHERE ` + pred("") + maybe(limit())
	case 17: // a full sort, computed key included
		return fmt.Sprintf(`SELECT id, val, a FROM facts WHERE %s ORDER BY a + b%s, val, id`, pred(""), dir)
	case 18: // NULL and float group keys
		return `SELECT k, val, COUNT(*), MAX(id) FROM facts WHERE ` + pred("") + ` GROUP BY k, val`
	case 19: // INTEGER = FLOAT join keys, grouped by the float side
		return `SELECT fd.k, COUNT(*), MIN(f.note) FROM facts f JOIN fdims fd ON f.k = fd.k WHERE ` + pred("f.") + ` GROUP BY fd.k`
	case 20: // a join emitting columns of both sides under a residual
		return `SELECT f.id, fd.label, f.val FROM facts f JOIN fdims fd ON f.k = fd.k AND f.a > fd.k WHERE ` + pred("f.") + maybe(limit())
	case 1: // IndexRange with a residual
		return fmt.Sprintf(`SELECT id, score FROM facts WHERE score > %g AND score <= %g AND %s`, lo, lo+half(600), pred("")) + maybe(limit())
	case 2: // ordered probe, the sort elided
		return fmt.Sprintf(`SELECT id, score FROM facts WHERE score >= %g ORDER BY score%s`, lo, dir) + maybe(limit())
	case 3:
		return `SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE ` + pred("f.") + maybe(limit())
	case 4:
		return fmt.Sprintf(`SELECT f.id, d.label, m.tag FROM facts f JOIN dims d ON f.k = d.k JOIN mid m ON f.a = m.id
			WHERE %s AND m.weight < %g`, pred("f."), half(40)) + maybe(limit())
	case 5: // keyless cross join, residual only
		return `SELECT f.id, t.tag FROM facts f JOIN tiny t ON f.id < t.bound WHERE ` + pred("f.") + maybe(limit())
	case 6:
		return fmt.Sprintf(`SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(score), AVG(val) FROM facts WHERE %s
			GROUP BY grp HAVING COUNT(*) > %d`, pred(""), rng.Intn(300))
	case 7:
		return `SELECT d.label, COUNT(*), SUM(f.val) FROM facts f JOIN dims d ON f.k = d.k WHERE ` + pred("f.") + ` GROUP BY d.label`
	case 8:
		return `SELECT COUNT(*), MAX(id) FROM facts WHERE ` + pred("")
	case 9:
		return `SELECT DISTINCT grp, a FROM facts WHERE ` + pred("")
	case 10: // TopN on the heap: val has no index
		return fmt.Sprintf(`SELECT id, val FROM facts WHERE %s ORDER BY val%s, id`, pred(""), dir) + limit()
	case 11:
		return `SELECT id FROM facts` + limit()
	case 12: // both sides three morsels: an N-worker build with duplicate keys
		on := []string{"x.id = y.a", "x.a = y.id"}[rng.Intn(2)]
		return `SELECT x.id, y.id FROM facts x JOIN facts y ON ` + on + ` WHERE ` + pred("y.") + maybe(limit())
	case 13: // division by zero at row 6000, in the middle of morsel 1
		return `SELECT id FROM facts WHERE 100 / (id - 6000) < 0 AND ` + pred("") + maybe(limit())
	default: // the same error under a join's probe side
		return `SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE 100 / (f.id - 6000) < 0` + maybe(limit())
	}
}

// sameAnswer holds the run of a query against the fixture without its
// indexes to the run with them: an access path may change the order rows
// arrive in and nothing else. Under ORDER BY (stable, so ties keep table
// order whichever way the rows were read) the sequences must be equal;
// without it the multisets; and where a LIMIT cuts an unordered stream,
// or stops one run short of the row the other fails on, only the counts.
func sameAnswer(t *testing.T, sql string, indexed, bare dopRun) {
	t.Helper()
	limited := strings.Contains(sql, "LIMIT")
	if indexed.err != "" || bare.err != "" {
		if !limited && indexed.err != bare.err {
			t.Fatalf("%s\nerrors diverge: with indexes %q, without %q", sql, indexed.err, bare.err)
		}
		return
	}
	if len(indexed.rows) != len(bare.rows) {
		t.Fatalf("%s\nrow counts diverge: with indexes %d, without %d", sql, len(indexed.rows), len(bare.rows))
	}
	render := func(rows []storage.Row) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = fmt.Sprint(row)
		}
		return out
	}
	a, b := render(indexed.rows), render(bare.rows)
	switch {
	case strings.Contains(sql, "ORDER BY"):
	case limited:
		return
	default:
		sort.Strings(a)
		sort.Strings(b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s\nrow %d diverges: with indexes %s, without %s", sql, i, a[i], b[i])
		}
	}
}

// TestParallelSeededDifferential is the seeded differential: generated
// queries over every operator the executor has, each required to stream
// identically at exec-workers 1, 2 and 8, to leave no pin or goroutine
// behind (streamAt checks both after every run), to give the same answer
// against the same data without its indexes (sameAnswer), and to stream
// the same again after the next query — a different shape, whose hash
// state the repeat may take over — has run.
func TestParallelSeededDifferential(t *testing.T) {
	e := differentialEngine(t)
	bare := differentialEngine(t)
	mustExec(t, bare, `DROP INDEX facts_score ON facts`)
	probed, declined := 0, 0
	e.SetExecWorkers(8)
	shape := flattenPlan(t, mustExec(t, e, `EXPLAIN SELECT f.id FROM facts f JOIN mid m ON f.a = m.id JOIN dims d ON f.k = d.k`))
	e.SetExecWorkers(1)
	if !strings.Contains(shape, "Scan(facts f) [dop=8]") || !strings.Contains(shape, "Scan(mid m) [dop=8]") ||
		strings.Contains(shape, "Scan(dims d) [dop") {
		t.Fatalf("fixture does not cover marked and unmarked join inputs:\n%s", shape)
	}

	failed := 0
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		var prevSQL string
		var prev dopRun
		for q := 0; q < 80; q++ {
			sql := diffQuery(rng)
			run := everyDop(t, e, sql)
			if run.err != "" {
				failed++
			}
			sameAnswer(t, sql, run, everyDop(t, bare, sql))
			if prevSQL != "" { // again, after a different shape: hash state it reuses must carry nothing
				workers := []int{1, 2, 8}[q%3]
				if again := streamAt(t, e, workers, prevSQL); again.err != prev.err || len(again.rows) != len(prev.rows) {
					t.Fatalf("%s\nrun again at workers=%d after %s: %d rows (%q), first %d rows (%q)",
						prevSQL, workers, sql, len(again.rows), again.err, len(prev.rows), prev.err)
				} else {
					for i := range prev.rows {
						if !sameRow(prev.rows[i], again.rows[i]) {
							t.Fatalf("%s\nrun again at workers=%d after %s: row %d is %v, was %v", prevSQL, workers, sql, i, again.rows[i], prev.rows[i])
						}
					}
				}
			}
			prevSQL, prev = sql, run
			switch shape := planText(t, e, sql); {
			case strings.Contains(shape, "IndexRange(facts_score"):
				probed++
			case strings.Contains(shape, "index facts_score declined"):
				declined++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no generated query hit the mid-chain evaluation error")
	}
	if probed < 10 || declined < 10 {
		t.Fatalf("the generator probed facts_score in %d plans and declined it in %d: want both paths covered", probed, declined)
	}
}
