package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowddb/internal/core"
)

// replayBody is a request body that can be sent again: Reset rewinds it
// without allocating, so a test counts what the handler allocates, not
// what making the request does.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// replayRequest is a POST of body to path whose body can be sent again.
func replayRequest(path string, body []byte) (*http.Request, func()) {
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.Body, req.ContentLength = rb, int64(len(body))
	return req, func() { rb.Reset(body) }
}

// TestRequestPathAllocationWalls holds what one statement allocates on
// its way through Handler() — the middleware, the body's decode, the
// parse and the envelope — to about 1.5× what it measured once the body
// was read into the request's exchange and the parser stopped building a
// token slice: a cached point SELECT (a hit: no parse, no plan) 8 objects,
// 23 before; a single-row INSERT 20, 51 before; and the body's decode by
// itself 5 (json.Unmarshal's own and the SQL's copy). A decoder, a token
// slice or a per-request encoder coming back shows up here. (Under -race,
// whose sync.Pool drops exchanges, the walls are wider:
// wall_race_test.go.)
func TestRequestPathAllocationWalls(t *testing.T) {
	db, err := core.Open(core.Options{ExecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE t (id INTEGER, name TEXT, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := db.ExecSQL(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'name-%d', %d.5)`, i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	h := New(db, Config{}).Handler()
	serve := func(sql string) func() {
		body, _ := json.Marshal(queryRequest{SQL: sql})
		req, rewind := replayRequest("/v1/query", body)
		w := &discard{header: http.Header{}}
		return func() {
			rewind()
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", sql, w.status)
			}
		}
	}
	body, _ := json.Marshal(queryRequest{SQL: `INSERT INTO t VALUES (1000, 'name-1000', 1000.5)`})
	decodeReq, rewind := replayRequest("/v1/query", body)
	x := newExchange()
	x.statusRecorder = statusRecorder{ResponseWriter: &discard{header: http.Header{}}}
	decode := func() {
		rewind()
		x.query = queryRequest{}
		if !x.decodeBody(decodeReq, &x.query) {
			t.Fatal("the body does not decode")
		}
	}
	for _, c := range []struct {
		name string
		fn   func()
		wall float64
	}{
		{"a cached point SELECT", serve(`SELECT name FROM t WHERE id = 42`), pointSelectWall},
		{"a single-row INSERT", serve(`INSERT INTO t VALUES (1000, 'name-1000', 1000.5)`), insertWall},
		{"the decode of its body", decode, 8},
	} {
		c.fn()
		got := testing.AllocsPerRun(200, c.fn)
		t.Logf("%s allocates %.1f objects", c.name, got)
		if got > c.wall {
			t.Errorf("%s allocates %.1f objects through the handler, want at most %.0f", c.name, got, c.wall)
		}
	}
}

// TestCachedTextOutlivesItsBody: the result cache keys an answer on its
// statement's text, so the text the body decodes to must be the
// request's own copy, not a view of the body's buffer that the next
// request reads its body into. Each text, asked again in a body that
// puts it elsewhere, after other bodies went through the handler, is
// still a hit.
func TestCachedTextOutlivesItsBody(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE t (id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := db.ExecSQL(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'name-%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	h := New(db, Config{}).Handler()
	texts := []string{`SELECT name FROM t WHERE id = 1`, `SELECT name FROM t WHERE id = 2`, `SELECT name FROM t WHERE id = 3`}
	for _, sql := range texts {
		serveDiscard(t, h, "/v1/query", sql) // a miss, stored: a small answer
	}
	for _, sql := range texts {
		before := db.CacheStats().Hits
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"mode":"sync","sql":"`+sql+`"}`)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "name-"+sql[len(sql)-1:]) {
			t.Fatalf("%s: status %d, %s", sql, rec.Code, rec.Body.String())
		}
		if db.CacheStats().Hits != before+1 {
			t.Fatalf("%s, asked again after other bodies, is not a cache hit: its key is not its own text", sql)
		}
	}
}
