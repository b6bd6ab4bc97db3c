package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/storage"
)

// joinServer builds a two-table database: movies plus a credits table
// keyed by movie id.
func joinServer(t *testing.T) (*Server, string) {
	t.Helper()
	db := core.NewDB(nil)
	t.Cleanup(func() { _ = db.Close() })
	mustSQL := func(sql string) {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`)
	mustSQL(`CREATE TABLE credits (credit_id INTEGER, movie INTEGER, role TEXT)`)
	for i := 0; i < 10; i++ {
		mustSQL(fmt.Sprintf(`INSERT INTO movies VALUES (%d, 'movie-%02d', %d)`, i, i, 1990+i))
		mustSQL(fmt.Sprintf(`INSERT INTO credits VALUES (%d, %d, 'director'), (%d, %d, 'writer')`,
			2*i, i, 2*i+1, i))
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// TestJoinEndToEndOverHTTP exercises the acceptance query shape:
// SELECT a.x, b.y FROM a JOIN b ON … WHERE … ORDER BY … LIMIT n.
func TestJoinEndToEndOverHTTP(t *testing.T) {
	_, url := joinServer(t)
	code, res := postQuery(t, url,
		`SELECT m.name, c.role FROM movies m JOIN credits c ON m.movie_id = c.movie
		 WHERE m.year >= 1995 AND c.role = 'director'
		 ORDER BY m.year DESC LIMIT 3`, "sync")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "name" || res.Columns[1] != "role" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Years 1999, 1998, 1997 → movies 9, 8, 7; one director row each.
	if res.Rows[0][0] != "movie-09" || res.Rows[2][0] != "movie-07" {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

// TestExplainOverHTTPShowsPushdownBelowJoin asserts the planner pushed
// the single-table WHERE conjuncts below the hash join, into the scans.
func TestExplainOverHTTPShowsPushdownBelowJoin(t *testing.T) {
	_, url := joinServer(t)
	code, res := postQuery(t, url,
		`EXPLAIN SELECT m.name, c.role FROM movies m JOIN credits c ON m.movie_id = c.movie
		 WHERE m.year >= 1995 AND c.role = 'director'
		 ORDER BY m.year DESC LIMIT 3`, "sync")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %+v", code, res)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, row[0].(string))
	}
	text := strings.Join(lines, "\n")
	// The greedy join orderer picks the smaller filtered side (movies)
	// as the build input, so the key renders probe-side first.
	for _, want := range []string{
		"TopN(n=3",
		"HashJoin(c.movie = m.movie_id)",
		"Scan(movies m, filter=(m.year >= 1995))",
		"Scan(credits c, filter=(c.role = 'director'))",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	// Pushdown means no residual Filter node remains above the join.
	if strings.Contains(text, "Filter(") {
		t.Fatalf("expected fully pushed-down predicates:\n%s", text)
	}
}

// streamLines POSTs a streaming query and parses the NDJSON lines.
func streamLines(t *testing.T, url, sql string) (int, []map[string]any) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql})
	resp, err := http.Post(url+"/v1/query?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, obj)
	}
	return resp.StatusCode, out
}

func TestStreamingSelectNDJSON(t *testing.T) {
	_, url := joinServer(t)
	code, lines := streamLines(t, url, `SELECT name FROM movies WHERE year < 1995 ORDER BY year`)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(lines) != 7 { // header + 5 rows + trailer
		t.Fatalf("lines = %d: %v", len(lines), lines)
	}
	cols, ok := lines[0]["columns"].([]any)
	if !ok || len(cols) != 1 || cols[0] != "name" {
		t.Fatalf("header = %v", lines[0])
	}
	first, _ := lines[1]["row"].([]any)
	if len(first) != 1 || first[0] != "movie-00" {
		t.Fatalf("first row = %v", lines[1])
	}
	trailer := lines[len(lines)-1]
	if trailer["done"] != true || trailer["rows"] != float64(5) {
		t.Fatalf("trailer = %v", trailer)
	}
}

// TestStreamTrailerCarriesTrace: ?stream=1&trace=1 ends in a trailer
// carrying the statement's trace, complete once its rows are out.
func TestStreamTrailerCarriesTrace(t *testing.T) {
	srv, _ := joinServer(t)
	code, raw := post(srv.Handler(), "/v1/query?stream=1&trace=1", queryRequest{SQL: `SELECT name FROM movies WHERE year < 1995 ORDER BY year`})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte{'\n'})
	var trailer struct {
		Done  bool             `json:"done"`
		Rows  int              `json:"rows"`
		Trace *core.QueryTrace `json:"trace"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatal(err)
	}
	if qt := trailer.Trace; !trailer.Done || trailer.Rows != 5 || qt == nil || qt.Rows != 5 || qt.CacheHit || len(qt.Plan) == 0 {
		t.Fatalf("trailer %s", lines[len(lines)-1])
	}
}

func TestStreamingRejectsNonSelectAndAsync(t *testing.T) {
	_, url := joinServer(t)
	code, lines := streamLines(t, url, `DELETE FROM movies`)
	if code != http.StatusBadRequest {
		t.Fatalf("DML stream status = %d %v", code, lines)
	}

	body, _ := json.Marshal(queryRequest{SQL: "SELECT name FROM movies", Mode: "async"})
	resp, err := http.Post(url+"/v1/query?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async stream status = %d", resp.StatusCode)
	}
}

// Streaming on an unexpanded registered column must complete the crowd
// job before the first row arrives — the header and rows reflect the
// filled column.
func TestStreamingWaitsForExpansion(t *testing.T) {
	svc := &fakeService{}
	_, ts := newTestServer(t, svc, Config{})
	code, lines := streamLines(t, ts.URL, `SELECT name FROM movies WHERE is_comedy = true ORDER BY name`)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, lines)
	}
	trailer := lines[len(lines)-1]
	if trailer["done"] != true {
		t.Fatalf("trailer = %v", trailer)
	}
	if trailer["expansion"] == nil {
		t.Fatal("trailer must carry the expansion report")
	}
	// fakeService marks even ids positive → 10 of 20 movies match.
	if trailer["rows"] != float64(10) {
		t.Fatalf("rows = %v", trailer["rows"])
	}
	if svc.calls.Load() == 0 {
		t.Fatal("expansion never reached the crowd service")
	}
}

// TestParallelJoinEarlyCloseOverHTTP closes morsel-parallel joins before
// they are drained, the two ways a client can: a LIMIT the first morsel
// satisfies, and a streaming client that goes away after the first row.
// Both close the join with probe workers in flight; the process must
// survive, keep answering, and end up with no snapshot pinned.
func TestParallelJoinEarlyCloseOverHTTP(t *testing.T) {
	db, err := core.Open(core.Options{ExecWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	for _, sql := range []string{
		`CREATE TABLE facts (id INTEGER, k INTEGER, pad TEXT)`,
		`CREATE TABLE dims (k INTEGER, label TEXT)`,
	} {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 50000 // 13 morsels, and more NDJSON than the socket buffers hold
	facts, _ := db.Catalog().Get("facts")
	for i := 0; i < rows; i++ {
		if err := facts.Insert(storage.Int(int64(i)), storage.Int(int64(i%10)), storage.Text(strings.Repeat("x", 64))); err != nil {
			t.Fatal(err)
		}
	}
	dims, _ := db.Catalog().Get("dims")
	for k := 0; k < 10; k++ {
		if err := dims.Insert(storage.Int(int64(k)), storage.Text(fmt.Sprintf("label-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(db, Config{}).Handler())
	t.Cleanup(ts.Close)
	const join = `SELECT f.id, d.label, f.pad FROM facts f JOIN dims d ON f.k = d.k`

	for i := 0; i < 20; i++ {
		// A fresh literal per iteration, or the result cache would answer.
		code, res := postQuery(t, ts.URL, fmt.Sprintf(`%s WHERE f.id >= %d LIMIT 3`, join, i), "sync")
		if code != http.StatusOK || len(res.Rows) != 3 {
			t.Fatalf("JOIN … LIMIT 3: status %d, rows %v", code, res.Rows)
		}

		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(queryRequest{SQL: join})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query?stream=1", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		for lines := 0; lines < 2 && sc.Scan(); lines++ { // header, first row
		}
		cancel()
		resp.Body.Close()
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after early closes: %d", code)
	}
	// The handler of a cancelled stream closes it on its own goroutine.
	for deadline := time.Now().Add(5 * time.Second); len(facts.LiveSnapshotEpochs()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("facts still pins snapshot epochs %v", facts.LiveSnapshotEpochs())
		}
	}
}
