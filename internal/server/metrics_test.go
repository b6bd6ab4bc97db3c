package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/obs"
	"crowddb/internal/storage"
)

// TestMetricsEndpointPrometheusFormat scrapes /v1/metrics after driving
// some traffic and validates the text exposition line by line, plus the
// presence of every subsystem family group the catalog promises.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	// Drive traffic so families materialize: queries (cache miss + hit),
	// an expansion (crowd charge), a delete (tombstones).
	for i := 0; i < 2; i++ {
		if code, _ := postQuery(t, ts.URL, `SELECT name FROM movies WHERE year > 2000`, ""); code != http.StatusOK {
			t.Fatalf("query code = %d", code)
		}
	}
	if code, _ := postQuery(t, ts.URL, `SELECT COUNT(*) FROM movies WHERE is_comedy = true`, "sync"); code != http.StatusOK {
		t.Fatal("expansion query failed")
	}
	if code, _ := postQuery(t, ts.URL, `DELETE FROM movies WHERE movie_id = 19`, ""); code != http.StatusOK {
		t.Fatal("delete failed")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Line-level format validation: every non-comment line is
	// `name{labels} value` or `name value`, every family has HELP+TYPE.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series := line[:sp]
		name := series
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name = series[:b]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced label braces: %q", line)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q precedes its # TYPE header", line)
		}
	}

	// Every subsystem the issue promises shows up.
	for _, family := range []string{
		"crowdserve_http_requests_total",  // server
		"crowdserve_http_request_seconds", // server latency histogram
		"crowddb_query_seconds",           // core query latency
		"crowddb_query_phase_seconds",     // core phase split
		"crowddb_cache_hits_total",        // result cache
		"crowddb_cache_misses_total",
		"crowddb_cache_deferred_total",
		"crowddb_cache_invalidations_total",
		"crowddb_cache_evictions_total",
		"crowddb_storage_tombstones_total", // storage
		"crowddb_wal_appends_total",        // wal (registered; may be zero samples)
		"crowddb_jobs_total",               // jobs
		"crowddb_crowd_charges_total",      // crowd cost
		"crowddb_crowd_cost_dollars_total",
		"go_gc_heap_allocs_bytes_total", // Go runtime, read at the scrape
		"go_gc_cycles_total",
		"go_goroutines",
		"go_gc_pauses_seconds", // the runtime's pause histogram, on the registry's buckets
	} {
		if !strings.Contains(text, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}

	// The runtime's figures are read, not defaulted: the process has
	// allocated and runs goroutines.
	for _, family := range []string{"go_gc_heap_allocs_bytes_total", "go_goroutines"} {
		if strings.Contains(text, "\n"+family+" 0\n") {
			t.Errorf("%s reads 0:\n%s", family, grepLines(text, family))
		}
	}

	// The pause histogram is one well-formed histogram: cumulative buckets
	// on the registry's bounds, ending in +Inf at its count. A forced
	// collection makes sure it has pauses to count.
	runtime.GC()
	if err := checkGCPauses(ts.URL); err != nil {
		t.Error(err)
	}

	// The traffic above produced at least one cache hit and one miss.
	if !strings.Contains(text, "crowddb_cache_hits_total 1") {
		t.Errorf("expected exactly one cache hit:\n%s", grepLines(text, "cache"))
	}
	// HTTP counter labeled by canonical route and status class.
	if !strings.Contains(text, `crowdserve_http_requests_total{route="/query",method="POST",status_class="2xx"}`) {
		t.Errorf("missing labeled /query counter:\n%s", grepLines(text, "http_requests"))
	}
}

// grepLines filters scrape output for error messages.
func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsEnvelopeOnBadMethod: satellite requirement — /v1/metrics
// failures use the standard error envelope, not the mux's plain 405.
func TestMetricsEnvelopeOnBadMethod(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})
	resp, err := http.Post(ts.URL+"/v1/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("POST /v1/metrics did not return the JSON envelope: %v", err)
	}
	e := body["error"]
	if e.Code != CodeBadRequest || e.Status != http.StatusMethodNotAllowed || e.Message == "" {
		t.Fatalf("envelope = %+v", e)
	}
}

// TestExplainAnalyzeOverHTTP: EXPLAIN ANALYZE runs through POST /v1/query
// and the root actuals match a real run of the same query; failures use
// the error envelope.
func TestExplainAnalyzeOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	sql := `SELECT name FROM movies WHERE year >= 2000`
	code, real := postQuery(t, ts.URL, sql, "")
	if code != http.StatusOK {
		t.Fatalf("real query code = %d", code)
	}
	code, an := postQuery(t, ts.URL, "EXPLAIN ANALYZE "+sql, "")
	if code != http.StatusOK {
		t.Fatalf("analyze code = %d", code)
	}
	root, _ := an.Rows[0][0].(string)
	want := fmt.Sprintf("actual rows=%d", len(real.Rows))
	if !strings.Contains(root, want) {
		t.Fatalf("root line %q missing %q", root, want)
	}

	// Failure path: planning EXPLAIN ANALYZE against a missing table is
	// an envelope-shaped 400 (EXPLAIN never triggers expansion).
	body, _ := json.Marshal(queryRequest{SQL: "EXPLAIN ANALYZE SELECT * FROM nope"})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]errorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("analyze failure not enveloped: %v", err)
	}
	e := env["error"]
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest || e.Message == "" {
		t.Fatalf("status=%d envelope=%+v", resp.StatusCode, e)
	}
}

// TestQueryTraceParam: POST /v1/query?trace=1 attaches the per-phase and
// per-operator breakdown; without the param the field is absent.
func TestQueryTraceParam(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	post := func(url, sql string) queryResponse {
		t.Helper()
		body, _ := json.Marshal(queryRequest{SQL: sql})
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var out queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	plain := post(ts.URL+"/v1/query", `SELECT name FROM movies WHERE year > 2005`)
	if plain.Trace != nil {
		t.Fatal("untraced query carries a trace")
	}

	// Distinct SQL so the traced run is a cache miss and actually executes.
	traced := post(ts.URL+"/v1/query?trace=1", `SELECT name FROM movies WHERE year > 2004`)
	if traced.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	qt := traced.Trace
	if qt.TotalUS <= 0 || qt.Rows != len(traced.Rows) {
		t.Fatalf("trace = %+v", qt)
	}
	if len(qt.Plan) == 0 || !strings.Contains(strings.Join(qt.Plan, "\n"), "actual rows=") {
		t.Fatalf("trace plan missing actuals: %v", qt.Plan)
	}

	// Second traced run hits the result cache: plan present, no actuals
	// (nothing executed), cache_hit set.
	cached := post(ts.URL+"/v1/query?trace=1", `SELECT name FROM movies WHERE year > 2004`)
	if cached.Trace == nil || !cached.Trace.CacheHit {
		t.Fatalf("second run should be a traced cache hit: %+v", cached.Trace)
	}
	if strings.Contains(strings.Join(cached.Trace.Plan, "\n"), "actual rows=") {
		t.Fatal("cache-hit trace must not carry actuals — nothing ran")
	}
}

// TestRequestIDHeader: every response carries X-Request-Id; inbound IDs
// propagate verbatim.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, &fakeService{}, Config{})

	resp, err := http.Get(ts.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Fatalf("minted request ID = %q (want 16 hex chars)", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/schema", nil)
	req.Header.Set("X-Request-Id", "caller-chose-this")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "caller-chose-this" {
		t.Fatalf("inbound request ID not propagated: %q", id)
	}
}

// TestPprofOnlyWhenEnabled: /debug/pprof/ — the path go tool pprof
// expects — serves the profile index with EnablePprof and is 404 without.
func TestPprofOnlyWhenEnabled(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		_, ts := newTestServer(t, &fakeService{}, Config{EnablePprof: enabled})
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case enabled && (resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine"))):
			t.Errorf("EnablePprof: status %d, body does not look like a pprof index", resp.StatusCode)
		case !enabled && resp.StatusCode != http.StatusNotFound:
			t.Errorf("pprof mounted without EnablePprof: %d", resp.StatusCode)
		}
	}
}

// TestMetricsScrapeRaceStress hammers /v1/metrics while a crowd fill,
// a query loop, and forced compactions run concurrently — the nightly
// -race proof that the lock-free registry and every instrumentation
// point tolerate concurrent scrapes. Kept short enough for the regular
// suite; nightly repeats it under -race with -count=10.
func TestMetricsScrapeRaceStress(t *testing.T) {
	db := core.NewDB(&fakeService{})
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	const rows = 4000
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("m-%04d", i)), storage.Int(int64(1900+i%120))); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes + compaction churn a separate table: a DELETE racing an
	// in-flight expansion of the same table is an application-level
	// conflict (FillColumn row-count mismatch), not what this test is
	// after.
	if _, _, err := db.ExecSQL(`CREATE TABLE events (id INTEGER, kind TEXT)`); err != nil {
		t.Fatal(err)
	}
	events, _ := db.Catalog().Get("events")
	for i := 0; i < rows; i++ {
		if err := events.Insert(storage.Int(int64(i)), storage.Text("k")); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"c0", "c1", "c2", "c3"} {
		db.RegisterExpandable("movies", col, storage.KindBool, core.ExpandOptions{Method: "CROWD"})
	}
	ts := httptest.NewServer(New(db, Config{}).Handler())
	t.Cleanup(ts.Close)

	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	fail := make(chan string, 16)

	// Scrapers: the registry must render consistently mid-update.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					fail <- "scrape: " + err.Error()
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("# TYPE")) {
					fail <- fmt.Sprintf("scrape status=%d len=%d", resp.StatusCode, len(b))
					return
				}
			}
		}()
	}
	// Crowd fills: each expansion drives jobs + crowd-cost metrics.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			sql := fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE c%d = true`, i%4)
			if _, _, err := db.ExecSQL(sql); err != nil {
				fail <- "fill: " + err.Error()
				return
			}
		}
	}()
	// Queries, traced and untraced, exercising cache + phase metrics.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			sql := fmt.Sprintf(`SELECT name FROM movies WHERE year > %d LIMIT 5`, 1950+i%40)
			var s core.RowStream
			_, err := db.Do(context.Background(), &s, core.Request{SQL: sql, NoCache: i%2 == 0, Trace: true})
			for err == nil {
				var b *storage.Batch
				if b, err = s.NextBatch(); b == nil {
					break
				}
			}
			_ = s.Close()
			if err != nil {
				fail <- "query: " + err.Error()
				return
			}
		}
	}()
	// Deletes + forced compactions: storage seal/tombstone/compaction
	// counters race the scrapes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			del := fmt.Sprintf(`DELETE FROM events WHERE id = %d`, i%rows)
			if _, _, err := db.ExecSQL(del); err != nil {
				fail <- "delete: " + err.Error()
				return
			}
			db.CompactNow()
		}
	}()

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// metricLines fetches /v1/metrics and returns its lines.
func metricLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(body), "\n")
}

// TestPlanAccessMetric drives one query down each access path and checks
// that /v1/metrics counted it under the path it was planned with — the
// scan that declined an index apart from the scan that had none to use.
func TestPlanAccessMetric(t *testing.T) {
	s, url := joinServer(t)
	if _, _, err := s.db.ExecSQL(`CREATE TABLE pts (v INTEGER, pad INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.db.Catalog().Get("pts")
	for i := 0; i < 400; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.db.ExecSQL(`CREATE INDEX pts_v ON pts (v)`); err != nil {
		t.Fatal(err)
	}
	scrape := func() map[string]int {
		got := map[string]int{}
		for _, line := range metricLines(t, url) {
			var path string
			var n int
			if _, err := fmt.Sscanf(line, `crowddb_plan_access_total{path=%q} %d`, &path, &n); err == nil {
				got[path] = n
			}
		}
		return got
	}
	before := scrape()
	for _, sql := range []string{
		`SELECT pad FROM pts WHERE v = 5`,              // index_point
		`SELECT pad FROM pts WHERE v >= 10 AND v < 15`, // index_range: 5 of 400 rows
		`SELECT pad FROM pts WHERE v >= 10 AND v < 25`, // scan_declined_index: 15 of 400 is over 1/32
		`SELECT v FROM pts WHERE pad = 3`,              // scan
		`SELECT v FROM pts WHERE pad = 4`,              // scan
	} {
		if code, _ := postQuery(t, url, sql, "sync"); code != http.StatusOK {
			t.Fatalf("%s: status %d", sql, code)
		}
	}
	after := scrape()
	for path, want := range map[string]int{"index_point": 1, "index_range": 1, "scan_declined_index": 1, "scan": 2} {
		if got := after[path] - before[path]; got != want {
			t.Errorf("crowddb_plan_access_total{path=%q} moved by %d, want %d", path, got, want)
		}
	}
}

// DML is planned like a SELECT and timed by phase: an UPDATE and a DELETE
// move the planner's access-path counters and fill
// crowddb_dml_phase_seconds for every phase of their statement kind.
func TestDMLMetrics(t *testing.T) {
	s, url := joinServer(t)
	if _, _, err := s.db.ExecSQL(`CREATE TABLE dmlpts (v INTEGER, pad INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.db.Catalog().Get("dmlpts")
	for i := 0; i < 400; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.db.ExecSQL(`CREATE INDEX dmlpts_v ON dmlpts (v)`); err != nil {
		t.Fatal(err)
	}
	scrape := func() map[string]int {
		got := map[string]int{}
		for _, line := range metricLines(t, url) {
			var a, b string
			var n int
			if _, err := fmt.Sscanf(line, `crowddb_plan_access_total{path=%q} %d`, &a, &n); err == nil {
				got["access "+a] = n
			}
			if _, err := fmt.Sscanf(line, `crowddb_dml_phase_seconds_count{stmt=%q,phase=%q} %d`, &a, &b, &n); err == nil {
				got[a+" "+b] = n
			}
		}
		return got
	}
	before := scrape()
	for _, sql := range []string{
		`UPDATE dmlpts SET pad = pad + 1 WHERE v = 5`,   // index_point
		`DELETE FROM dmlpts WHERE v >= 10 AND v < 15`,   // index_range: 5 of 400 rows
		`DELETE FROM dmlpts WHERE v >= 100 AND v < 150`, // scan_declined_index
		`UPDATE dmlpts SET pad = 0 WHERE pad = 3`,       // scan
		`INSERT INTO dmlpts VALUES (1000, 1)`,
		`EXPLAIN DELETE FROM dmlpts WHERE pad = 1`, // planned (a scan), never run
	} {
		if code, _ := postQuery(t, url, sql, "sync"); code != http.StatusOK {
			t.Fatalf("%s: status %d", sql, code)
		}
	}
	after := scrape()
	for key, want := range map[string]int{
		"access index_point": 1, "access index_range": 1, "access scan_declined_index": 1, "access scan": 2,
		"update plan": 2, "update scan": 2, "update wal": 2, "update apply": 2, "update index": 2,
		"delete plan": 2, "delete scan": 2, "delete wal": 2, "delete apply": 2, "delete index": 2,
		"insert plan": 1, "insert wal": 1, "insert apply": 1, "insert index": 1,
	} {
		if got := after[key] - before[key]; got != want {
			t.Errorf("%s moved by %d, want %d", key, got, want)
		}
	}
}

// checkGCPauses scrapes url's /v1/metrics and holds go_gc_pauses_seconds
// to the shape of a histogram with pauses in it: one bucket per registry
// bound, cumulative counts, +Inf last at the _count, a positive count.
func checkGCPauses(url string) error {
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(body)
	lines := strings.Split(grepLines(text, "go_gc_pauses_seconds"), "\n")
	if len(lines) != 2+len(obs.DefSecondsBuckets)+3 || lines[1] != "# TYPE go_gc_pauses_seconds histogram" {
		return fmt.Errorf("go_gc_pauses_seconds is not a histogram on the registry's %d bounds:\n%s", len(obs.DefSecondsBuckets), strings.Join(lines, "\n"))
	}
	var prev, inf int64
	for i, line := range lines[2 : 2+len(obs.DefSecondsBuckets)+1] {
		var n int64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n); err != nil || n < prev {
			return fmt.Errorf("go_gc_pauses_seconds bucket %d is not cumulative: %q", i, line)
		}
		prev, inf = n, n
	}
	if !strings.Contains(lines[len(lines)-3], `le="+Inf"`) {
		return fmt.Errorf("go_gc_pauses_seconds' last bucket is not +Inf: %q", lines[len(lines)-3])
	}
	if want := fmt.Sprintf("go_gc_pauses_seconds_count %d", inf); lines[len(lines)-1] != want || inf == 0 {
		return fmt.Errorf("go_gc_pauses_seconds counts %q, want %q and pauses in it", lines[len(lines)-1], want)
	}
	return nil
}
