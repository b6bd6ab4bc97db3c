package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestCreateIndexOverHTTP drives the index lifecycle through the API:
// create, introspect via /schema/{table}, and observe the planner using
// it in EXPLAIN.
func TestCreateIndexOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	code, resp := postQuery(t, ts.URL, `CREATE INDEX idx_year ON movies (year)`, "")
	if code != http.StatusOK {
		t.Fatalf("CREATE INDEX status = %d (%+v)", code, resp)
	}
	if !strings.Contains(resp.Message, "created ordered index idx_year") {
		t.Fatalf("message = %q", resp.Message)
	}

	// Schema inventory surfaces the index.
	httpRes, err := http.Get(ts.URL + "/v1/schema/movies")
	if err != nil {
		t.Fatal(err)
	}
	defer httpRes.Body.Close()
	var schema struct {
		Indexes []indexInfo `json:"indexes"`
	}
	if err := json.NewDecoder(httpRes.Body).Decode(&schema); err != nil {
		t.Fatal(err)
	}
	if len(schema.Indexes) != 1 {
		t.Fatalf("indexes = %+v", schema.Indexes)
	}
	ix := schema.Indexes[0]
	if ix.Name != "idx_year" || ix.Column != "year" || ix.Kind != "ordered" || ix.Entries != 20 {
		t.Fatalf("index meta = %+v", ix)
	}

	// EXPLAIN through the API shows the index chosen.
	code, resp = postQuery(t, ts.URL, `EXPLAIN SELECT name FROM movies WHERE year = 1995`, "")
	if code != http.StatusOK {
		t.Fatalf("EXPLAIN status = %d", code)
	}
	var plan []string
	for _, row := range resp.Rows {
		plan = append(plan, row[0].(string))
	}
	if !strings.Contains(strings.Join(plan, "\n"), "IndexScan(idx_year, year=1995)") {
		t.Fatalf("plan over HTTP:\n%s", strings.Join(plan, "\n"))
	}

	// And the query answers through it.
	code, resp = postQuery(t, ts.URL, `SELECT name FROM movies WHERE year = 1995`, "")
	if code != http.StatusOK || len(resp.Rows) != 1 {
		t.Fatalf("query status=%d rows=%+v", code, resp.Rows)
	}
}

// TestCreateIndexOnVirtualColumnIs400 is the satellite fix's HTTP face:
// indexing a registered-but-unexpanded column must be the client's error
// (400 with the typed message), never a 500 — and must not kick off the
// expansion.
func TestCreateIndexOnVirtualColumnIs400(t *testing.T) {
	svc := &fakeService{}
	_, ts := newTestServer(t, svc, Config{})

	code, _ := postQuery(t, ts.URL, `CREATE INDEX idx_c ON movies (is_comedy)`, "")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	res, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"CREATE INDEX idx_c ON movies (is_comedy)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body map[string]errorBody
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"].Code != CodeIndexOnVirtualColumn {
		t.Fatalf("error code = %q, want %q", body["error"].Code, CodeIndexOnVirtualColumn)
	}
	if !strings.Contains(body["error"].Message, "not-yet-expanded") {
		t.Fatalf("error body = %+v", body)
	}
	if n := svc.calls.Load(); n != 0 {
		t.Fatalf("rejected CREATE INDEX triggered %d crowd calls", n)
	}
}
