package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"crowddb/internal/core"
)

func postAdminExpand(t *testing.T, url string, req adminExpandRequest) (int, queryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/admin/expand", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestAdminExpandPreWarm: an explicit expansion returns 202 + a job, the
// job completes, and the column answers queries without further crowd
// work.
func TestAdminExpandPreWarm(t *testing.T) {
	svc := &fakeService{}
	_, ts := newTestServer(t, svc, Config{})

	code, out := postAdminExpand(t, ts.URL, adminExpandRequest{
		Table: "movies", Column: "is_comedy", Method: "CROWD", Key: "team-a", Budget: 5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", code)
	}
	if out.Job == nil {
		t.Fatal("no job in response")
	}
	// Wait for the job, then query without triggering a new expansion.
	var done queryResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
		}
		if c := getJSON(t, ts.URL+"/v1/jobs/"+out.Job.ID+"?wait=1", &st); c != http.StatusOK {
			t.Fatalf("job poll status %d", c)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q", st.State)
		}
	}
	code, done = postQuery(t, ts.URL, `SELECT name FROM movies WHERE is_comedy = true`, "sync")
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if done.Expansion != nil {
		t.Fatal("query re-expanded a pre-warmed column")
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("crowd contacted %d times, want 1", got)
	}

	// The spend landed on the key's budget.
	var budgets struct {
		Budgets []core.BudgetStatus `json:"budgets"`
	}
	if c := getJSON(t, ts.URL+"/v1/budgets", &budgets); c != http.StatusOK {
		t.Fatalf("budgets status %d", c)
	}
	if len(budgets.Budgets) != 1 || budgets.Budgets[0].Key != "team-a" || budgets.Budgets[0].Spent <= 0 {
		t.Fatalf("budgets = %+v, want team-a with spend", budgets.Budgets)
	}
}

// TestAdminExpandBudgetRejection: a cap the projected cost exceeds gets
// a 402 before any HIT is issued.
func TestAdminExpandBudgetRejection(t *testing.T) {
	svc := &fakeService{}
	_, ts := newTestServer(t, svc, Config{})

	code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{
		Table: "movies", Column: "is_comedy", Method: "CROWD", Key: "cheap", Budget: 0.01,
	})
	if code != http.StatusPaymentRequired {
		t.Fatalf("status = %d, want 402", code)
	}
	if got := svc.calls.Load(); got != 0 {
		t.Fatalf("crowd contacted %d times despite 402", got)
	}
}

// TestAdminExpandValidation: bad bodies and unknown tables are client
// errors with useful statuses, answered before anything is submitted: no
// job, no crowd call, no ledger or budget movement.
func TestAdminExpandValidation(t *testing.T) {
	svc := &fakeService{}
	s, ts := newTestServer(t, svc, Config{})
	if err := s.db.SetBudget("k", 3); err != nil {
		t.Fatal(err)
	}

	if code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{Table: "movies"}); code != http.StatusBadRequest {
		t.Fatalf("missing column: %d, want 400", code)
	}
	if code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{Table: "movies", Column: "c", Kind: "INTEGER"}); code != http.StatusBadRequest {
		t.Fatalf("bad kind: %d, want 400", code)
	}
	if code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{Table: "nope", Column: "c"}); code != http.StatusNotFound {
		t.Fatalf("unknown table: %d, want 404", code)
	}
	// A budget without a key would run uncapped; it must be rejected.
	if code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{Table: "movies", Column: "is_comedy", Budget: 2.5}); code != http.StatusBadRequest {
		t.Fatalf("budget without key: %d, want 400", code)
	}
	// A negative budget is no cap at all; it must not run under k's.
	if code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{Table: "movies", Column: "is_comedy", Key: "k", Budget: -5}); code != http.StatusBadRequest {
		t.Fatalf("negative budget: %d, want 400", code)
	}

	if jobs := s.db.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected requests created jobs: %+v", jobs)
	}
	if led := s.db.Ledger(); led != (core.LedgerTotals{}) || svc.calls.Load() != 0 {
		t.Fatalf("rejected requests reached the crowd: ledger %+v, %d calls", led, svc.calls.Load())
	}
	if b, _ := s.db.Budget("k"); b.Cap != 3 || b.Spent != 0 {
		t.Fatalf("budget of k = %+v, want cap 3 and no spend", b)
	}
}

// TestAdminExpandConflictWhileInFlight: re-submitting a column whose
// expansion is running is a 409, mirroring explicit EXPAND semantics.
func TestAdminExpandConflictWhileInFlight(t *testing.T) {
	svc := &fakeService{gate: make(chan struct{})}
	_, ts := newTestServer(t, svc, Config{})

	code, _ := postAdminExpand(t, ts.URL, adminExpandRequest{Table: "movies", Column: "is_comedy"})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", code)
	}
	// Wait until the expansion actually reaches the (stalled) crowd so
	// the second submit observes it in flight.
	deadline := time.Now().Add(5 * time.Second)
	for svc.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expansion never reached the crowd")
		}
		time.Sleep(time.Millisecond)
	}
	code, _ = postAdminExpand(t, ts.URL, adminExpandRequest{Table: "movies", Column: "is_comedy"})
	if code != http.StatusConflict {
		t.Fatalf("duplicate submit: %d, want 409", code)
	}
	close(svc.gate)
}
