package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	rescache "crowddb/internal/workload/cache"
)

// twinQueries are SELECTs of one table and of two, with aliases, a GROUP
// BY and names in upper case, so their observations are not trivial.
var twinQueries = []string{
	`SELECT id, score FROM facts WHERE id = 7`,
	`SELECT K, COUNT(*), AVG(Score) FROM facts WHERE score > 1.5 GROUP BY K`,
	`SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE f.score < 2.0`,
	`SELECT tag FROM facts ORDER BY tag LIMIT 3`,
}

// twinDB opens a durable database over dir holding a small facts table
// and a dimension table.
func twinDB(t *testing.T, dir string, create bool) *DB {
	t.Helper()
	db, err := Open(Options{DataDir: dir, ExecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !create {
		return db
	}
	stmts := []string{
		`CREATE TABLE facts (id INTEGER, k INTEGER, score FLOAT, tag TEXT)`,
		`CREATE TABLE dims (k INTEGER, label TEXT)`,
		`INSERT INTO dims VALUES (0, 'zero'), (1, 'one'), (2, 'two')`,
	}
	for i := 0; i < 40; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO facts VALUES (%d, %d, %d.5, 't%02d')`, i, i%3, i%4, i%9))
	}
	for _, sql := range stmts {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return db
}

// TestTextHitsFeedTheWorkloadLikeExecutions: a hit is never parsed or
// planned, yet the workload model must not be able to tell. One database
// answers every repeat from the cache by its text (ExecSQL), its twin
// executes every one of them (ExecSQLNoCache, which bypasses the cache);
// the tracker's counters must agree — in memory, and after both are
// reopened from what they journaled.
func TestTextHitsFeedTheWorkloadLikeExecutions(t *testing.T) {
	const repeats = 100 // 400 observations: the log gets full workload_obs records and a tail
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := twinDB(t, dirA, true), twinDB(t, dirB, true)
	for i := 0; i < repeats; i++ {
		for _, sql := range twinQueries {
			hit, _, err := a.ExecSQL(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			exec, _, err := b.ExecSQLNoCache(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if !reflect.DeepEqual(hit.Rows, exec.Rows) {
				t.Fatalf("%s: the cached text path and ExecSQLNoCache answer differently", sql)
			}
		}
	}
	n := uint64(len(twinQueries))
	if st := a.CacheStats(); st.Hits != (repeats-1)*n || st.Misses != n {
		t.Fatalf("ExecSQL's cache saw %d hits and %d misses, want %d and %d", st.Hits, st.Misses, (repeats-1)*n, n)
	}
	if st := b.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("ExecSQLNoCache touched the cache: %+v", st)
	}
	want := b.Workload().Counters
	if got := a.Workload().Counters; !reflect.DeepEqual(got, want) {
		t.Fatalf("served from the cache the tracker counts\n%+v\nexecuted\n%+v", got, want)
	}
	if want.TotalQueries < repeats*n {
		t.Fatalf("TotalQueries = %d after %d SELECTs", want.TotalQueries, repeats*n)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	a, b = twinDB(t, dirA, false), twinDB(t, dirB, false)
	defer a.Close()
	defer b.Close()
	if got, replayed := a.Workload().Counters, b.Workload().Counters; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(replayed, want) {
		t.Fatalf("after a restart the twins count\n%+v\nand\n%+v\nwant\n%+v", got, replayed, want)
	}
}

// TestAsyncEntryPointsAndTheCache: a ModeAsync request is served from
// the cache by its text like a waiting one, and a write through it
// invalidates the text. Its answer is the stream every request opens: a
// SELECT is accounted like any other query, and a hit is read from the
// entry's batches, boxing nothing.
func TestAsyncEntryPointsAndTheCache(t *testing.T) {
	db := pathDB(t, 1)
	const sql = `SELECT id, score FROM facts WHERE id >= 100 AND id < 110`
	async := func(sql string) []storage.Row {
		t.Helper()
		s, job, err := do(db, Request{SQL: sql, Mode: ModeAsync})
		if err != nil || job != nil {
			t.Fatalf("%s: job %v, error %v", sql, job, err)
		}
		return streamRows(t, s)
	}
	seconds := mQuerySeconds.Count()
	miss := async(sql)
	if got := mQuerySeconds.Count(); got != seconds+1 {
		t.Fatalf("an async SELECT moved crowddb_core_query_seconds_count by %d, want 1", got-seconds)
	}
	hit := async(sql)
	if st := db.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("two async requests of one text: %+v, want one miss then one hit", st)
	}
	if len(hit) != 10 || !reflect.DeepEqual(hit, miss) {
		t.Fatalf("the hit answers %d rows, the miss %d", len(hit), len(miss))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s, _, err := do(db, Request{SQL: sql, Mode: ModeAsync})
		if err != nil {
			t.Fatal(err)
		}
		for b, err := s.NextBatch(); b != nil || err != nil; b, err = s.NextBatch() {
			if err != nil {
				t.Fatal(err)
			}
		}
		_ = s.Close()
	}); allocs > 2 {
		t.Fatalf("an async hit allocates %.0f objects, want at most 2: its stream and the tracker's column list, no boxed row", allocs)
	}
	// A write through an async request is no lookup, and the text it
	// changed misses again and sees the new row.
	before := db.CacheStats()
	s, _, err := do(db, Request{SQL: `INSERT INTO facts VALUES (105, 1, 9.5, 'new')`, Mode: ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	if s.Affected() != 1 {
		t.Fatalf("the INSERT affected %d rows", s.Affected())
	}
	_ = s.Close()
	if after := db.CacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("an INSERT counted as a lookup: %+v → %+v", before, after)
	}
	again := async(sql)
	if st := db.CacheStats(); st.Hits != before.Hits || st.Misses != 2 || len(again) != 11 {
		t.Fatalf("after the INSERT: %+v and %d rows, want a second miss and 11 rows", st, len(again))
	}
}

// TestTracedHitCarriesItsPlan: a traced hit is parsed and planned after
// the lookup, for its trace alone — the plan tree without actuals, and
// the workload counted once, as for an untraced hit.
func TestTracedHitCarriesItsPlan(t *testing.T) {
	db := pathDB(t, 1)
	const sql = `SELECT id, score FROM facts WHERE k = 3 ORDER BY score DESC, id LIMIT 5`
	miss, _, err := do(db, Request{SQL: sql, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	batchRows(t, miss, nil)
	queries := db.Workload().Counters.TotalQueries
	res, _, err := do(db, Request{SQL: sql, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	batchRows(t, res, nil)
	qt := res.Trace()
	stmt, _ := sqlparse.Parse(sql)
	p, err := db.Engine().PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if !qt.CacheHit || qt.Rows != 5 || res.Affected() != 5 || qt.ExecUS != 0 || !reflect.DeepEqual(qt.Plan, p.Explain()) {
		t.Fatalf("traced hit: %+v, want a 5-row hit with the statement's plan and no execution", qt)
	}
	if got := db.Workload().Counters.TotalQueries; got != queries+1 {
		t.Fatalf("a traced hit moved TotalQueries by %d, want 1", got-queries)
	}
}

// TestTextHitAllocations: an in-process hit is one map lookup — no parse,
// no plan, no fingerprint. What it allocates is at most the stream around
// the entry's batches and the column list the tracker keeps of its one
// observation. Keyed on the plan fingerprint, the same hit was 77 objects.
func TestTextHitAllocations(t *testing.T) {
	db := pathDB(t, 1)
	const sql = `SELECT id, score FROM facts WHERE id >= 100 AND id < 140`
	if _, _, err := db.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(200, func() {
		var s RowStream
		if _, err := db.Do(ctx, &s, Request{SQL: sql}); err != nil {
			t.Fatalf("hit: %v", err)
		}
		for b, err := s.NextBatch(); b != nil || err != nil; b, err = s.NextBatch() {
			if err != nil {
				t.Fatalf("hit: %v", err)
			}
		}
		if s.Affected() != 40 {
			t.Fatalf("hit answered %d rows", s.Affected())
		}
		_ = s.Close()
	}); allocs > 2 {
		t.Fatalf("a text hit allocates %.0f objects, want at most 2", allocs)
	}
	if st := db.CacheStats(); st.Misses != 1 {
		t.Fatalf("the hits were not hits: %+v", st)
	}
}

// TestDeferredEntryNeverServedStale: a large answer deferred on its
// text's first miss and stored on a later one is still only ever the
// table's current answer. Seeded runs interleave a few large texts (and a
// small one) with INSERTs and UPDATEs of the rows they read, so writes land
// between a text's first and second sightings, between its store and its
// hits, and between an invalidation and the next store. Every answer is
// checked against ExecSQLNoCache.
func TestDeferredEntryNeverServedStale(t *testing.T) {
	texts := []string{
		`SELECT id, k, score, tag FROM facts WHERE id >= 8000`,
		`SELECT id, score FROM facts WHERE score > 200.0 ORDER BY id`,
		`SELECT tag, COUNT(*), MAX(id) FROM facts GROUP BY tag`,
		`SELECT id, tag FROM facts WHERE id >= 8880`, // small
	}
	for _, seed := range []int64{1, 2, 3} {
		db := pathDB(t, 2)
		rng := rand.New(rand.NewSource(seed))
		next := int64(2*storage.ChunkRows + 700)
		var steps []string
		for step := 0; step < 150; step++ {
			var sql string
			switch r := rng.Intn(10); {
			case r < 2:
				sql = fmt.Sprintf(`INSERT INTO facts VALUES (%d, %d, %d.25, 't%03d')`, next, next%7, rng.Intn(1000), rng.Intn(500))
				next++
			case r < 4:
				sql = fmt.Sprintf(`UPDATE facts SET score = %d.75, tag = 'u%03d' WHERE id = %d`, rng.Intn(1000), rng.Intn(50), 7990+rng.Int63n(next-7990))
			default:
				sql = texts[rng.Intn(len(texts))]
			}
			steps = append(steps, sql)
			got, _, err := db.ExecSQL(sql)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, sql, err)
			}
			if !strings.HasPrefix(sql, "SELECT") {
				continue
			}
			want, _, err := db.ExecSQLNoCache(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("seed %d: %s answered %d rows, the table holds %d, or other rows; statements:\n%s",
					seed, sql, len(got.Rows), len(want.Rows), strings.Join(steps, "\n"))
			}
		}
		if st := db.CacheStats(); st.Deferred == 0 || st.Hits == 0 || st.Invalidations == 0 {
			t.Fatalf("seed %d: %+v, want deferrals, hits and invalidations", seed, st)
		}
	}
}

func TestTruncateSQLBacksOffToARuneBoundary(t *testing.T) {
	sql := strings.Repeat("x", 511) + "é" + strings.Repeat("y", 100) // é is bytes 511 and 512
	got := truncateSQL(sql)
	if !utf8.ValidString(got) {
		t.Fatalf("truncated SQL is invalid UTF-8: %q", got[500:])
	}
	if want := strings.Repeat("x", 511) + "…"; got != want {
		t.Fatalf("truncated to %q…, want the 511 ASCII bytes and an ellipsis", got[505:])
	}
	if short := "SELECT 'é'"; truncateSQL(short) != short {
		t.Fatal("a short statement was cut")
	}
}

// TestInsertAllocatesTheSameWithCachedPoints: a single-row INSERT costs
// what it cost with no entry cached over its table when 10 000 point
// entries are. It reports its row's cell of the watched column, the cache
// looks that cell up in the column's point index, and every entry is
// spared without being walked (cache.TestInsertWorkDoesNotGrowWithPoints
// times the lookup). The statements' text is made before the count:
// fmt.Sprintf takes its printer from a sync.Pool, which under -race drops
// a quarter of what is put back, so a Sprintf in the counted function
// adds a random share of an object to each run's average and tipped it
// over a whole one now and then.
func TestInsertAllocatesTheSameWithCachedPoints(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	const points = 10_000
	if _, _, err := db.ExecSQL(`CREATE TABLE r (rid INTEGER, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Catalog().Get("r")
	for i := 0; i < points; i++ {
		if err := r.Insert(storage.Int(int64(i)), storage.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	inserts := make([]string, 2*(runs+1)) // AllocsPerRun runs once more to warm up
	for i := range inserts {
		inserts[i] = fmt.Sprintf(`INSERT INTO r VALUES (%d, 2)`, points+i)
	}
	next := 0
	insertAllocs := func() float64 {
		return testing.AllocsPerRun(runs, func() {
			if _, _, err := db.ExecSQL(inserts[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	none := insertAllocs()
	for i := 0; i < points; i++ {
		if _, _, err := db.ExecSQL(fmt.Sprintf(`SELECT v FROM r WHERE rid = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if many := insertAllocs(); many != none {
		t.Fatalf("an INSERT allocates %.0f objects with %d point entries cached, %.0f with none", many, points, none)
	}
	if st := db.CacheStats(); st.Entries != points || st.Invalidations != 0 {
		t.Fatalf("after the INSERTs: %+v; want every point entry alive", st)
	}
}

// TestFootprintOfASelect: the narrowest interval a single-table SELECT's
// WHERE's top-level AND conjuncts put on an INTEGER column with integer
// literals — none from OR, !=, a FLOAT column or an expression — beside
// the columns it names, every one for SELECT *.
func TestFootprintOfASelect(t *testing.T) {
	schema, err := storage.NewSchema(
		storage.Column{Name: "rid", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindInt},
		storage.Column{Name: "f", Kind: storage.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	none := func(cols ...string) rescache.Footprint { return rescache.Footprint{Table: "r", Columns: cols} }
	on := func(key string, lo, hi int64, cols ...string) rescache.Footprint {
		return rescache.Footprint{Table: "r", Columns: cols, Key: key, Lo: lo, Hi: hi}
	}
	for sql, want := range map[string]rescache.Footprint{
		`SELECT rid, v FROM r WHERE rid = 5`:                            on("rid", 5, 5, "rid", "v", "rid"),
		`SELECT COUNT(*) FROM r x WHERE 3 < x.rid AND rid <= 9`:         on("rid", 4, 9, "rid", "rid"),
		`SELECT f FROM r WHERE rid > 1 AND v = 2 AND f > 0.5`:           on("v", 2, 2, "f", "rid", "v", "f"),
		`SELECT V FROM R WHERE RID >= 2 GROUP BY V HAVING COUNT(*) > 1`: on("rid", 2, math.MaxInt64, "V", "RID", "V", "count(*)"),
		`SELECT v FROM r WHERE rid < -9223372036854775807 - 1`:          none("v", "rid"),
		`SELECT v FROM r WHERE rid > 9223372036854775807`:               on("rid", 1, 0, "v", "rid"),
		`SELECT v FROM r WHERE rid = 1 OR rid = 2`:                      none("v", "rid", "rid"),
		`SELECT v FROM r WHERE rid != 3 ORDER BY f`:                     none("v", "rid", "f"),
		`SELECT v FROM r WHERE f < 3`:                                   none("v", "f"),
		`SELECT v FROM r WHERE rid + 1 = 3`:                             none("v", "rid"),
		`SELECT * FROM r WHERE rid = 7`:                                 {Table: "r", Star: true, Key: "rid", Lo: 7, Hi: 7},
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		sel := stmt.(*sqlparse.SelectStmt)
		if got := footprint(sel, tableColumns(sel), schema); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: footprint %+v, want %+v", sql, got, want)
		}
	}
}

// TestJoinObservationsNameTheRightTable: an unqualified column of a join
// is the workload tracker's evidence for the table whose schema has it,
// not for the FROM table, and a select-list alias is evidence for none —
// through a miss, through a hit, and with the cache bypassed.
func TestJoinObservationsNameTheRightTable(t *testing.T) {
	db := twinDB(t, "", true)
	t.Cleanup(func() { _ = db.Close() })
	const sql = `SELECT label, score sc FROM facts JOIN dims ON facts.k = dims.k ORDER BY sc`
	for _, exec := range []func(string) (*Result, *ExpansionReport, error){db.ExecSQL, db.ExecSQL, db.ExecSQLNoCache} {
		if _, _, err := exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache %+v, want the second ask a hit", st)
	}
	got := map[string]map[string]uint64{}
	for _, tc := range db.Workload().Counters.Tables {
		got[tc.Table] = tc.Columns
	}
	want := map[string]map[string]uint64{"facts": {"k": 3, "score": 3}, "dims": {"k": 3, "label": 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the tracker counts columns %v, want %v", got, want)
	}
}

// TestWriteWhilePlanningKillsTheMiss: a miss registers its footprint
// before its plan binds the table, so a write that lands after the
// binding — here a column added under a SELECT * planned without it —
// kills the miss, whose answer is then not stored; registered after
// planning, the old-width answer would be served on the next ask.
func TestWriteWhilePlanningKillsTheMiss(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	for _, sql := range []string{`CREATE TABLE w (id INTEGER, v INTEGER)`, `INSERT INTO w VALUES (1, 2)`} {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := db.Catalog().Get("w")
	t.Cleanup(func() { planned = nil })
	planned = func() {
		planned = nil
		if _, err := w.AddColumn(storage.Column{Name: "x", Kind: storage.KindInt}); err != nil {
			t.Error(err)
		}
	}
	const star = `SELECT * FROM w WHERE id = 1`
	if res, _, err := db.ExecSQL(star); err != nil || len(res.Columns) != 2 {
		t.Fatalf("the SELECT planned before the column came: %v, %v", res, err)
	}
	res, _, err := db.ExecSQL(star)
	if err != nil || len(res.Columns) != 3 || len(res.Rows) != 1 || len(res.Rows[0]) != 3 {
		t.Fatalf("asked again: %+v, %v; want the row with the added column", res, err)
	}
	if st := db.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("%+v: the answer of the miss the write killed was stored", st)
	}
}
