package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/sqlparse"
	"crowddb/internal/sqlref"
)

// refServer is the sqlref fixture in a database of its own, behind a
// handler, and the texts checkReference has asked it.
type refServer struct {
	db   *core.DB
	h    http.Handler
	seen map[string]bool
}

func newRefServer(tb testing.TB, workers int) refServer {
	tb.Helper()
	db, err := core.Open(core.Options{ExecWorkers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = db.Close() })
	for _, sql := range sqlref.Fixture() {
		if _, _, err := db.ExecSQL(sql); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
	return refServer{db: db, h: New(db, Config{}).Handler(), seen: map[string]bool{}}
}

// post sends req to path of h and returns the status and the body.
func post(h http.Handler, path string, req queryRequest) (int, []byte) {
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// envelopeKeys answers req through /v1/query — path carries the query
// string — as sqlref keys: each row's JSON array as the server wrote it.
func envelopeKeys(h http.Handler, path string, req queryRequest) ([]string, error) {
	code, body := post(h, path, req)
	var out struct {
		Rows     [][]json.RawMessage `json:"rows"`
		Affected int                 `json:"affected"`
	}
	if err := json.Unmarshal(body, &out); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d, %v: %.200s", path, code, err, body)
	}
	keys := make([]string, len(out.Rows))
	for i, row := range out.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = string(c)
		}
		keys[i] = "[" + strings.Join(cells, ",") + "]"
	}
	if out.Affected != len(keys) {
		return nil, fmt.Errorf("%s: affected %d of %d rows", path, out.Affected, len(keys))
	}
	return keys, nil
}

// streamKeys answers sql through /v1/query?stream=1 as sqlref keys.
func streamKeys(h http.Handler, sql string) ([]string, error) {
	code, body := post(h, "/v1/query?stream=1", queryRequest{SQL: sql})
	if code != http.StatusOK {
		return nil, fmt.Errorf("stream: status %d: %.200s", code, body)
	}
	var keys []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	done := false
	for sc.Scan() {
		var line struct {
			Columns []string        `json:"columns"`
			Row     json.RawMessage `json:"row"`
			Done    bool            `json:"done"`
			Rows    int             `json:"rows"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
			return nil, fmt.Errorf("stream: line %q: %v", sc.Bytes(), err)
		}
		switch {
		case line.Row != nil:
			keys = append(keys, string(line.Row))
		case line.Done:
			if line.Rows != len(keys) {
				return nil, fmt.Errorf("stream: the trailer counts %d of %d rows", line.Rows, len(keys))
			}
			done = true
		}
	}
	if !done {
		return nil, fmt.Errorf("stream: no trailer")
	}
	return keys, nil
}

// checkReference answers q on srv along every path that must not change
// the answer, and holds each to the reference interpreter's, and the
// cache's hit and miss counters to what each path does to them: the
// envelope at the text's first sighting (a miss, whose large answer the
// cache defers — or a hit, if srv was asked the text before and still
// holds it), ExecSQL at its second (a miss that stores a deferred answer,
// a hit otherwise), the envelope at its third (a hit), mode=async (a hit)
// and mode=async&nocache=1 (the executor), a ?stream=1 stream and
// ExecSQLNoCache, which bypass the cache and count nothing.
func checkReference(t *testing.T, srv refServer, q *sqlref.Query, want []string) {
	t.Helper()
	sql, ordered := q.SQL(), q.Ordered()
	sync, async := queryRequest{SQL: sql}, queryRequest{SQL: sql, Mode: "async"}
	const hit, miss, none = "hit", "miss", "neither"
	answers := []struct {
		path  string
		cache string // what the answer counts; "" on the first sighting
		get   func() ([]string, error)
	}{
		{"first sighting, /v1/query", "", func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query", sync) }},
		{"second sighting, ExecSQL", hit, func() ([]string, error) {
			res, _, err := srv.db.ExecSQL(sql)
			if err != nil {
				return nil, err
			}
			return sqlref.Keys(res.Rows, true), nil
		}},
		{"third sighting, /v1/query", hit, func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query", sync) }},
		{"mode=async", hit, func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query", async) }},
		{"mode=async&nocache=1", none, func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query?nocache=1", async) }},
		{"?stream=1", none, func() ([]string, error) { return streamKeys(srv.h, sql) }},
		{"ExecSQLNoCache", none, func() ([]string, error) {
			res, _, err := srv.db.ExecSQLNoCache(sql)
			if err != nil {
				return nil, err
			}
			return sqlref.Keys(res.Rows, true), nil
		}},
	}
	for i, a := range answers {
		before := srv.db.CacheStats()
		got, err := a.get()
		if err != nil {
			t.Fatalf("%s\n%s: %v", sql, a.path, err)
		}
		if !ordered {
			slices.Sort(got)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s\n%s answers %d rows, the reference %d:\n got %.300v\nwant %.300v", sql, a.path, len(got), len(want), got, want)
		}
		after := srv.db.CacheStats()
		counted := none
		switch {
		case after.Hits == before.Hits+1 && after.Misses == before.Misses:
			counted = hit
		case after.Misses == before.Misses+1 && after.Hits == before.Hits:
			counted = miss
		case after.Hits != before.Hits || after.Misses != before.Misses:
			counted = fmt.Sprintf("%d hits and %d misses", after.Hits-before.Hits, after.Misses-before.Misses)
		}
		if i == 0 {
			// A deferred first sighting leaves the second a miss.
			if after.Deferred > before.Deferred {
				answers[1].cache = miss
			}
			if a.cache = miss; counted == hit && srv.seen[sql] {
				a.cache = hit
			}
			srv.seen[sql] = true
		}
		if counted != a.cache {
			t.Fatalf("%s\n%s counts %s in the cache, want %s", sql, a.path, counted, a.cache)
		}
	}
}

// generatedSeeds and generatedQueriesPerSeed are the fixed seeds' count,
// and how many queries one seed writes.
const generatedSeeds, generatedQueriesPerSeed = 24, 4

// FuzzGeneratedSelects holds every query the sqlref generator writes from
// a seed to the reference interpreter's answer, along each axis this
// path's answers must not depend on: dop 1 and 4, the buffered envelope
// in sync and async mode, ExecSQL, the NDJSON stream and the cache
// bypassed, and a text's first, second and third sightings — deferred, stored and hit when its answer
// is over the cache's 16 KiB admission line, stored and hit when under.
// go test runs the fixed seeds below; go test -fuzz FuzzGeneratedSelects
// searches more of them. A failure prints the query.
func FuzzGeneratedSelects(f *testing.F) {
	for seed := int64(0); seed < generatedSeeds; seed++ {
		f.Add(seed)
	}
	// The fixture at one worker and at four; the checks only read it.
	dops := []refServer{newRefServer(f, 1), newRefServer(f, 4)}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < generatedQueriesPerSeed; i++ {
			q := sqlref.Generate(rng)
			rows, err := sqlref.Eval(dops[0].db.Catalog(), q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q.SQL(), err)
			}
			want := sqlref.Keys(rows, q.Ordered())
			for _, srv := range dops {
				checkReference(t, srv, q, want)
			}
		}
	})
}

// TestGeneratedSelectsCrossTheAdmissionLine: the fixed seeds of
// FuzzGeneratedSelects write answers on both sides of the result cache's
// admission line — some deferred on their first sighting, some stored at
// once — and queries of every shape.
func TestGeneratedSelectsCrossTheAdmissionLine(t *testing.T) {
	srv := newRefServer(t, 1)
	shapes := []string{"JOIN", "GROUP BY", "HAVING", "DISTINCT", "ORDER BY", "LIMIT", "NOT", " OR ", "IS NULL", "IS NOT NULL", "AVG", "SUM", "MIN", "MAX", "COUNT(*)"}
	seen := map[string]int{}
	for seed := int64(0); seed < generatedSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < generatedQueriesPerSeed; i++ {
			q := sqlref.Generate(rng)
			sql := q.SQL()
			for _, shape := range shapes {
				if strings.Contains(sql, shape) {
					seen[shape]++
				}
			}
			for n := 0; n < 3; n++ {
				if _, _, err := srv.db.ExecSQL(sql); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, sql, err)
				}
			}
		}
	}
	st := srv.db.CacheStats()
	if st.Deferred == 0 || int(st.Deferred) >= generatedSeeds*generatedQueriesPerSeed || st.Hits == 0 {
		t.Fatalf("the seeds' texts, each asked three times: %+v; want some deferred, some not, and hits", st)
	}
	for _, shape := range shapes {
		if seen[shape] == 0 {
			t.Errorf("no generated query has %s", shape)
		}
	}
	t.Logf("%d texts, %d deferred; shapes %v", generatedSeeds*generatedQueriesPerSeed, st.Deferred, seen)
}

// cachedDMLSeeds, cachedDMLQueries and cachedDMLSteps are
// FuzzCachedSelectsUnderDML's fixed seeds' count, how many queries of
// each generator one seed warms, and how many writes it runs.
const cachedDMLSeeds, cachedDMLQueries, cachedDMLSteps = 5, 4, 14

// FuzzCachedSelectsUnderDML is the result cache's correctness wall under
// writes. A seed warms a few generated queries, and as many whose answer
// moves with every row of an interval (sqlref.GenerateBounded) — each
// asked twice, so that large answers are stored too — and then
// interleaves seeded writes:
// INSERTs into t and u whose integers lie in the generated literals'
// range (−1…8), on an edge of a warmed query's interval (a literal or
// one off it) or are NULL, UPDATEs of t's k (an interval column), of t's
// x and of u's w (columns some entries do not read), DELETEs of an id
// range, and compactions. After every write, each warmed text, through
// ExecSQL and ExecSQLNoCache, must answer what the reference interpreter
// answers over the live tables; and since an entry dies only by a write
// that meets one of its footprints, every text whose entry was stored
// before the write must hit after a compaction, and after an UPDATE of a
// column it does not read. (The texts' answers fit the cache many times
// over: nothing is evicted.) go test -fuzz FuzzCachedSelectsUnderDML
// searches more seeds. A failure prints the writes so far and the query.
func FuzzCachedSelectsUnderDML(f *testing.F) {
	for seed := int64(0); seed < cachedDMLSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		db := newRefServer(t, 1).db
		rng := rand.New(rand.NewSource(seed))
		queries := make([]*sqlref.Query, 2*cachedDMLQueries)
		var edges []int64
		// stored[i] tells whether queries[i]'s entry is in the cache: a
		// text asked through it is stored after, unless the ask was a miss
		// whose large answer the cache deferred.
		stored := make([]bool, len(queries))
		ask := func(i int, check func()) (hit bool) {
			before := db.CacheStats()
			check()
			after := db.CacheStats()
			stored[i] = after.Hits > before.Hits || after.Deferred == before.Deferred
			return after.Hits > before.Hits
		}
		for i := range queries {
			if i < cachedDMLQueries {
				queries[i] = sqlref.Generate(rng)
			} else {
				queries[i] = sqlref.GenerateBounded(rng)
			}
			edges = appendEdges(edges, queries[i].SQL())
			for n := 0; n < 2; n++ {
				ask(i, func() {
					if _, _, err := db.ExecSQL(queries[i].SQL()); err != nil {
						t.Fatalf("seed %d: %s: %v", seed, queries[i].SQL(), err)
					}
				})
			}
		}
		var writes []string
		for round := 0; len(writes) < cachedDMLSteps; round++ {
			for _, kind := range rng.Perm(7) {
				w := cachedDMLWrite(rng, kind, edges)
				writes = append(writes, w)
				if w == "COMPACT" {
					db.CompactNow()
				} else if _, _, err := db.ExecSQL(w); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, w, err)
				}
				var table, col string
				fmt.Sscanf(w, "UPDATE %s SET %s =", &table, &col)
				context := fmt.Sprintf("seed %d, after\n%s", seed, strings.Join(writes, "\n"))
				for i, q := range queries {
					mustHit := stored[i] && (w == "COMPACT" || col != "" && !readsColumn(q.SQL(), table, col))
					if hit := ask(i, func() { checkUnderDML(t, db, q, context) }); mustHit && !hit {
						t.Fatalf("%s\n%s: its stored entry did not survive a write that meets none of its footprints", context, q.SQL())
					}
				}
			}
		}
	})
}

// readsColumn reports whether the SELECT sql reads col of table: names it
// qualified by table, or unqualified when table is in its FROM — sqlref
// writes a join column bare only when one table alone has the name.
func readsColumn(sql, table, col string) bool {
	sel := mustParseSelect(sql)
	if !strings.EqualFold(sel.Table, table) && !slices.ContainsFunc(sel.Joins, func(j sqlparse.JoinClause) bool { return strings.EqualFold(j.Table, table) }) {
		return false
	}
	reads := false
	f := func(c *sqlparse.ColumnRef) {
		reads = reads || strings.EqualFold(c.Name, col) && (c.Table == "" || strings.EqualFold(c.Table, table))
	}
	for _, it := range sel.Items {
		reads = reads || it.Star
		sqlparse.WalkColumns(it.Expr, f)
	}
	for _, j := range sel.Joins {
		sqlparse.WalkColumns(j.On, f)
	}
	sqlparse.WalkColumns(sel.Where, f)
	for _, g := range sel.GroupBy {
		sqlparse.WalkColumns(g, f)
	}
	sqlparse.WalkColumns(sel.Having, f)
	for _, o := range sel.OrderBy {
		sqlparse.WalkColumns(o.Expr, f)
	}
	return reads
}

// mustParseSelect parses a generated SELECT.
func mustParseSelect(sql string) *sqlparse.SelectStmt {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", sql, err))
	}
	return stmt.(*sqlparse.SelectStmt)
}

// appendEdges appends the integer literals of sql's WHERE, and the
// integers one off each, to edges.
func appendEdges(edges []int64, sql string) []int64 {
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch n := e.(type) {
		case *sqlparse.BinaryExpr:
			walk(n.Left)
			walk(n.Right)
		case *sqlparse.UnaryExpr:
			walk(n.Expr)
		case *sqlparse.Literal:
			if n.Kind == sqlparse.LitInt {
				edges = append(edges, n.Int-1, n.Int, n.Int+1)
			}
		}
	}
	walk(mustParseSelect(sql).Where)
	return edges
}

// cachedDMLWrite writes one of FuzzCachedSelectsUnderDML's writes, of the
// given kind; "COMPACT" stands for a compaction. Half the integers are
// drawn from edges, when it holds any.
func cachedDMLWrite(rng *rand.Rand, kind int, edges []int64) string {
	small := func() string {
		if len(edges) > 0 && rng.Intn(2) == 0 {
			return fmt.Sprint(edges[rng.Intn(len(edges))])
		}
		return fmt.Sprint(rng.Intn(10) - 1)
	}
	edge := func() string {
		if rng.Intn(11) == 0 {
			return "NULL"
		}
		return small()
	}
	id := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprint(rng.Intn(sqlref.FixtureRows))
		}
		return small()
	}
	quarter := func() string { return fmt.Sprintf("%.2f", float64(rng.Intn(44)-2)/4) }
	switch kind {
	case 0:
		return fmt.Sprintf("INSERT INTO t VALUES (%s, %s, %s, 's%02d', %v)", edge(), edge(), quarter(), rng.Intn(32), rng.Intn(2) == 0)
	case 1:
		return fmt.Sprintf("INSERT INTO u VALUES (%s, 'new', %s)", edge(), edge())
	case 2:
		return fmt.Sprintf("UPDATE t SET k = %s WHERE id = %s", edge(), id())
	case 3:
		return fmt.Sprintf("UPDATE t SET x = %s WHERE id = %s", quarter(), id())
	case 4:
		return fmt.Sprintf("UPDATE u SET w = %s WHERE k = %s", edge(), edge())
	case 5:
		lo, _ := strconv.Atoi(small())
		return fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", lo, lo+1+rng.Intn(3))
	default:
		return "COMPACT"
	}
}

// checkUnderDML holds q's answer through ExecSQL (the cache) and
// ExecSQLNoCache to the reference interpreter's over the live tables.
func checkUnderDML(t *testing.T, db *core.DB, q *sqlref.Query, context string) {
	t.Helper()
	sql, ordered := q.SQL(), q.Ordered()
	rows, err := sqlref.Eval(db.Catalog(), q)
	if err != nil {
		t.Fatalf("%s\n%s: %v", context, sql, err)
	}
	want := sqlref.Keys(rows, ordered)
	for path, exec := range map[string]func(string) (*core.Result, *core.ExpansionReport, error){
		"ExecSQL": db.ExecSQL, "ExecSQLNoCache": db.ExecSQLNoCache,
	} {
		res, _, err := exec(sql)
		if err != nil {
			t.Fatalf("%s\n%s: %s: %v", context, sql, path, err)
		}
		if got := sqlref.Keys(res.Rows, ordered); !slices.Equal(got, want) {
			t.Fatalf("%s\n%s\n%s answers %d rows, the reference %d:\n got %.300v\nwant %.300v", context, sql, path, len(got), len(want), got, want)
		}
	}
}
