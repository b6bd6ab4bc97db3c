package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/storage"
)

// TestUnversionedRoutesAreGone: every route answers under /v1 only. The
// pre-versioning paths, and the /v1 mount pprof once had, are 404 — even
// with pprof enabled.
func TestUnversionedRoutesAreGone(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{EnablePprof: true})
	for _, c := range []struct{ method, path string }{
		{"POST", "/query"},
		{"GET", "/jobs"},
		{"GET", "/jobs/job-1"},
		{"GET", "/schema"},
		{"GET", "/schema/movies"},
		{"GET", "/ledger"},
		{"GET", "/budgets"},
		{"GET", "/workload"},
		{"GET", "/metrics"},
		{"POST", "/admin/expand"},
		{"POST", "/admin/snapshot"},
		{"POST", "/admin/compact"},
		{"GET", "/v1/debug/pprof/"},
		{"GET", "/v1/debug/pprof/cmdline"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(`{"sql":"SELECT 1 FROM movies"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestHealthzNotDeprecated: load balancers hardcode /healthz, so it is the
// one route that also answers unversioned, beside /v1/healthz.
func TestHealthzNotDeprecated(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
	}
}

// TestErrorEnvelopeShape: every failure uses the unified
// {"error":{code,message,status}} envelope with stable codes.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	decode := func(resp *http.Response) errorBody {
		t.Helper()
		defer resp.Body.Close()
		var body map[string]errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode envelope: %v", err)
		}
		return body["error"]
	}

	// Parse error → bad_request.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECTT * FROM movies"}`))
	if err != nil {
		t.Fatal(err)
	}
	e := decode(resp)
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest || e.Status != http.StatusBadRequest {
		t.Errorf("/v1/query parse error: status=%d envelope=%+v", resp.StatusCode, e)
	}
	if e.Message == "" {
		t.Error("/v1/query: empty message in envelope")
	}

	// Unknown job → not_found.
	resp, err = http.Get(ts.URL + "/v1/jobs/9999")
	if err != nil {
		t.Fatal(err)
	}
	if e := decode(resp); resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
		t.Errorf("jobs/9999: status=%d code=%q", resp.StatusCode, e.Code)
	}

	// Unknown schema table → not_found.
	resp, err = http.Get(ts.URL + "/v1/schema/nope")
	if err != nil {
		t.Fatal(err)
	}
	if e := decode(resp); resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
		t.Errorf("schema/nope: status=%d code=%q", resp.StatusCode, e.Code)
	}

	// admin/expand on a missing table → no_such_table (404).
	body, _ := json.Marshal(map[string]any{"table": "ghost", "column": "x"})
	resp, err = http.Post(ts.URL+"/v1/admin/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if e := decode(resp); resp.StatusCode != http.StatusNotFound || e.Code != CodeNoSuchTable {
		t.Errorf("admin/expand ghost: status=%d code=%q", resp.StatusCode, e.Code)
	}

	// Snapshot without a data dir → no_data_dir (409).
	resp, err = http.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := decode(resp); resp.StatusCode != http.StatusConflict || e.Code != CodeNoDataDir {
		t.Errorf("admin/snapshot: status=%d code=%q", resp.StatusCode, e.Code)
	}
}

// TestAdminCompactEndpoint: POST /v1/admin/compact forces a sweep and
// reports per-table results; GET /v1/schema/{table} then shows tombstones
// back at zero with compaction counters up.
func TestAdminCompactEndpoint(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	// Tombstone some rows first.
	if code, _ := postQuery(t, ts.URL, `DELETE FROM movies WHERE movie_id < 10`, ""); code != http.StatusOK {
		t.Fatalf("delete status = %d", code)
	}

	var before struct {
		Tombstones int `json:"tombstones"`
	}
	if code := getJSON(t, ts.URL+"/v1/schema/movies", &before); code != http.StatusOK {
		t.Fatalf("schema status = %d", code)
	}
	if before.Tombstones != 10 {
		t.Fatalf("tombstones before compact = %d, want 10", before.Tombstones)
	}

	resp, err := http.Post(ts.URL+"/v1/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("compact status = %d body=%s", resp.StatusCode, b)
	}
	var out struct {
		Tables map[string]struct {
			Compacted     bool `json:"compacted"`
			RowsReclaimed int  `json:"rows_reclaimed"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.Tables["movies"]; !got.Compacted || got.RowsReclaimed != 10 {
		t.Fatalf("compact result for movies = %+v", got)
	}

	var after struct {
		Tombstones int `json:"tombstones"`
		Rows       int `json:"rows"`
		Compaction struct {
			Runs          int64 `json:"runs"`
			RowsReclaimed int64 `json:"rows_reclaimed"`
		} `json:"compaction"`
	}
	if code := getJSON(t, ts.URL+"/v1/schema/movies", &after); code != http.StatusOK {
		t.Fatalf("schema status = %d", code)
	}
	if after.Tombstones != 0 {
		t.Errorf("tombstones after compact = %d, want 0", after.Tombstones)
	}
	if after.Compaction.Runs < 1 || after.Compaction.RowsReclaimed != 10 {
		t.Errorf("compaction stats = %+v", after.Compaction)
	}

	// The surviving rows still answer correctly.
	code, q := postQuery(t, ts.URL, `SELECT name FROM movies WHERE movie_id = 15`, "")
	if code != http.StatusOK || len(q.Rows) != 1 || q.Rows[0][0] != "movie-15" {
		t.Fatalf("post-compact query: status=%d rows=%+v", code, q.Rows)
	}

}

// TestSchemaListReportsBackend: GET /v1/schema names the storage engine.
func TestSchemaListReportsBackend(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})
	var out struct {
		Backend string   `json:"backend"`
		Tables  []string `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/v1/schema", &out); code != http.StatusOK {
		t.Fatalf("schema status = %d", code)
	}
	if out.Backend != "mem" {
		t.Errorf("backend = %q, want \"mem\"", out.Backend)
	}
	if len(out.Tables) != 1 || out.Tables[0] != "movies" {
		t.Errorf("tables = %v", out.Tables)
	}
}

// TestOversizedBodyIsRefused: a body over 1 MiB to either route that takes
// one is refused with 413 request_too_large — whether it declares its
// length or is sent chunked — and the server goes on serving.
func TestOversizedBodyIsRefused(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})
	huge := strings.Repeat("x", 2<<20)
	bodies := map[string]string{
		"/v1/query":        `{"sql":"SELECT name FROM movies WHERE name = '` + huge + `'"}`,
		"/v1/admin/expand": `{"table":"movies","column":"` + huge + `"}`,
	}
	for path, body := range bodies {
		for _, chunked := range []bool{false, true} {
			var r io.Reader = strings.NewReader(body)
			if chunked {
				r = io.MultiReader(r) // hides the length: sent chunked
			}
			resp, err := http.Post(ts.URL+path, "application/json", r)
			if err != nil {
				t.Fatalf("%s (chunked %v): %v", path, chunked, err)
			}
			var env map[string]errorBody
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if e := env["error"]; err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != CodeRequestTooLarge || e.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s with a 2 MiB body (chunked %v): status %d, envelope %+v, %v", path, chunked, resp.StatusCode, e, err)
			}
			if code, out := postQuery(t, ts.URL, `SELECT COUNT(*) FROM movies`, ""); code != http.StatusOK || len(out.Rows) != 1 {
				t.Fatalf("the request after %s's refusal: status %d, %+v", path, code, out)
			}
		}
	}
}

// TestWorkloadReportsDeferredAnswers: GET /v1/workload counts the large
// answer the cache did not store on its text's first miss — a miss, a
// miss and a hit, one of them deferred.
func TestWorkloadReportsDeferredAnswers(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE t (id INTEGER, tag TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("t")
	for i := 0; i < 2000; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("tag-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h := New(db, Config{}).Handler()
	for i := 0; i < 3; i++ {
		serveBody(t, h, `SELECT id, tag FROM t`)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workload", nil))
	var out struct {
		Cache struct{ Hits, Misses, Deferred uint64 }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if c := out.Cache; c.Hits != 1 || c.Misses != 2 || c.Deferred != 1 {
		t.Fatalf("/v1/workload cache = %+v, want 1 hit, 2 misses, 1 deferred", c)
	}
}

// TestOneBodyOneValue: a request body is one JSON value. Anything but
// white space after it — a second statement included — is a 400
// bad_request on both routes that take a body, and nothing of it runs.
func TestOneBodyOneValue(t *testing.T) {
	s, ts := newTestServer(t, &fakeService{}, Config{})
	post := func(path, body string) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env map[string]errorBody
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env["error"]
	}
	for _, body := range []string{
		`{"sql":"DELETE FROM movies"} {"sql":"SELECT COUNT(*) FROM movies"}`,
		`{"sql":"DELETE FROM movies"}{}`,
		`{"sql":"DELETE FROM movies"} x`,
		`{"sql":"DELETE FROM movies"}]`,
	} {
		if code, e := post("/v1/query", body); code != http.StatusBadRequest || e.Code != CodeBadRequest || e.Status != http.StatusBadRequest {
			t.Errorf("/v1/query %q: status %d, envelope %+v; want 400 bad_request", body, code, e)
		}
	}
	if code, out := postQuery(t, ts.URL, `SELECT COUNT(*) FROM movies`, ""); code != http.StatusOK || fmt.Sprint(out.Rows) != "[[20]]" {
		t.Fatalf("after the refused bodies: status %d, rows %v; want the 20 movies untouched", code, out.Rows)
	}
	if code, e := post("/v1/query", "{\"sql\":\"SELECT COUNT(*) FROM movies\"}\r\n\t "); code != http.StatusOK {
		t.Errorf("a body with trailing white space: status %d, envelope %+v; want 200", code, e)
	}

	body := `{"table":"movies","column":"is_comedy"} {"table":"movies","column":"is_comedy"}`
	if code, e := post("/v1/admin/expand", body); code != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("/v1/admin/expand %q: status %d, envelope %+v; want 400 bad_request", body, code, e)
	}
	if jobs := s.db.Jobs(); len(jobs) != 0 {
		t.Fatalf("a refused /v1/admin/expand submitted %d jobs", len(jobs))
	}
}
