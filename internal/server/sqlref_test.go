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
	"strings"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/sqlref"
)

// refServer is the sqlref fixture in a database of its own, behind a
// handler.
type refServer struct {
	db *core.DB
	h  http.Handler
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
	return refServer{db: db, h: New(db, Config{}).Handler()}
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
// the answer, and holds each to the reference interpreter's: the envelope
// at the text's first sighting (a miss, whose large answer the cache
// defers), ExecSQL at its second (a miss that stores it, or a hit), the
// envelope at its third (a hit), mode=async (a hit) and
// mode=async&nocache=1 (the executor), a ?stream=1 stream and
// ExecSQLNoCache, which bypass the cache.
func checkReference(t *testing.T, srv refServer, q *sqlref.Query, want []string) {
	t.Helper()
	sql, ordered := q.SQL(), q.Ordered()
	sync, async := queryRequest{SQL: sql}, queryRequest{SQL: sql, Mode: "async"}
	answers := []struct {
		path string
		get  func() ([]string, error)
	}{
		{"first sighting, /v1/query", func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query", sync) }},
		{"second sighting, ExecSQL", func() ([]string, error) {
			res, _, err := srv.db.ExecSQL(sql)
			if err != nil {
				return nil, err
			}
			return sqlref.Keys(res.Rows, true), nil
		}},
		{"third sighting, /v1/query", func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query", sync) }},
		{"mode=async", func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query", async) }},
		{"mode=async&nocache=1", func() ([]string, error) { return envelopeKeys(srv.h, "/v1/query?nocache=1", async) }},
		{"?stream=1", func() ([]string, error) { return streamKeys(srv.h, sql) }},
		{"ExecSQLNoCache", func() ([]string, error) {
			res, _, err := srv.db.ExecSQLNoCache(sql)
			if err != nil {
				return nil, err
			}
			return sqlref.Keys(res.Rows, true), nil
		}},
	}
	for _, a := range answers {
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
