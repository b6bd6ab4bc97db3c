package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowddb/internal/jobs"
	"crowddb/internal/server"
)

// TestBuildDemoDBServesEndToEnd boots a miniature demo database and
// drives it through the HTTP layer: plain query, async expansion with
// job polling, then the expanded query.
func TestBuildDemoDBServesEndToEnd(t *testing.T) {
	db, err := buildDemoDB(demoConfig{seed: 7, items: 80, dims: 8, epochs: 10, crowdWorkers: 30,
		expansionWorkers: 4, expansionQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer ts.Close()

	post := func(sql, mode string) (int, map[string]json.RawMessage) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"sql": sql, "mode": mode})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, out := post(`SELECT COUNT(*) FROM movies`, "")
	if code != http.StatusOK {
		t.Fatalf("count query: %d %v", code, out)
	}
	var rows [][]float64
	if err := json.Unmarshal(out["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != 80 {
		t.Fatalf("count = %v", rows[0][0])
	}

	// The paper's query, async: the genre column does not exist yet.
	code, out = post(`SELECT name FROM movies WHERE Comedy = true LIMIT 5`, "async")
	if code != http.StatusAccepted {
		t.Fatalf("async query: %d %v", code, out)
	}
	var st jobs.Status
	if err := json.Unmarshal(out["job"], &st); err != nil {
		t.Fatal(err)
	}

	// Long-poll the job to completion, then re-issue the query.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != jobs.StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if st.Ledger.Judgments == 0 || st.Ledger.Cost == 0 {
		t.Fatalf("job ledger empty: %+v", st.Ledger)
	}

	code, out = post(`SELECT COUNT(*) FROM movies WHERE Comedy = true`, "sync")
	if code != http.StatusOK {
		t.Fatalf("expanded query: %d %v", code, out)
	}
	if err := json.Unmarshal(out["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	if rows[0][0] <= 0 {
		t.Fatalf("no comedies found after expansion: %v", rows[0][0])
	}
}

// TestKillAndRestartDurability is the acceptance scenario end to end over
// HTTP: boot crowdserve with a data dir, expand a genre column (paying
// the simulated crowd), kill the process without a clean shutdown, boot a
// second instance on the same data dir, and verify the same SELECT
// answers identically with zero new crowd judgments charged.
func TestKillAndRestartDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := demoConfig{seed: 7, items: 80, dims: 8, epochs: 10, crowdWorkers: 30,
		dataDir: dir, expansionWorkers: 4, expansionQueue: 64}

	query := func(ts *httptest.Server, sql string) (float64, map[string]json.RawMessage) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"sql": sql, "mode": "sync"})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: %d %v", sql, resp.StatusCode, out)
		}
		var rows [][]float64
		if err := json.Unmarshal(out["rows"], &rows); err != nil {
			t.Fatalf("query %q: rows %s", sql, out["rows"])
		}
		return rows[0][0], out
	}
	ledger := func(ts *httptest.Server) (cost, judgments float64, perJob []json.RawMessage) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/ledger")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var led struct {
			Cost      float64           `json:"Cost"`
			Judgments float64           `json:"Judgments"`
			PerJob    []json.RawMessage `json:"per_job"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&led); err != nil {
			t.Fatal(err)
		}
		return led.Cost, led.Judgments, led.PerJob
	}

	// --- first life: expand Comedy, note the answer and the bill ---
	db1, err := buildDemoDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(server.New(db1, server.Config{}).Handler())
	count1, _ := query(ts1, `SELECT COUNT(*) FROM movies WHERE Comedy = true`)
	if count1 <= 0 {
		t.Fatalf("no comedies after expansion: %v", count1)
	}
	cost1, judg1, perJob1 := ledger(ts1)
	if cost1 == 0 || judg1 == 0 || len(perJob1) != 1 {
		t.Fatalf("first life ledger: cost=%v judgments=%v perJob=%d", cost1, judg1, len(perJob1))
	}
	ts1.Close()
	// Kill: no db1.Close(), no snapshot. The expansion's completion
	// record was appended synchronously, so the WAL on disk is current.

	// --- second life: same data dir, fresh process state ---
	db2, err := buildDemoDB(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() { _ = db2.Close() }()
	ts2 := httptest.NewServer(server.New(db2, server.Config{}).Handler())
	defer ts2.Close()

	count2, out := query(ts2, `SELECT COUNT(*) FROM movies WHERE Comedy = true`)
	if count2 != count1 {
		t.Fatalf("answer changed across restart: %v → %v", count1, count2)
	}
	// The recovered query must not have triggered a new expansion.
	if exp, ok := out["expansion"]; ok && string(exp) != "null" {
		t.Fatalf("restart re-expanded: %s", exp)
	}
	cost2, judg2, perJob2 := ledger(ts2)
	if cost2 != cost1 || judg2 != judg1 {
		t.Fatalf("crowd charged again after restart: $%v/%v → $%v/%v", cost1, judg1, cost2, judg2)
	}
	if len(perJob2) != 1 {
		t.Fatalf("per-job history lost: %d entries", len(perJob2))
	}

	// The recovered schema still marks Comedy as expanded.
	resp, err := http.Get(ts2.URL + "/v1/schema/movies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var schema struct {
		Columns []struct {
			Name   string `json:"name"`
			Origin string `json:"origin"`
		} `json:"columns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&schema); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range schema.Columns {
		if c.Name == "Comedy" && c.Origin == "expanded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Comedy not recovered as expanded: %+v", schema.Columns)
	}
}
