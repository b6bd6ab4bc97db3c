package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/storage"
)

// batchCountingService is deterministic like slowService but also
// implements BatchJudgmentService, counting how the database chose to
// elicit: per-question Collect calls vs merged CollectBatch calls.
type batchCountingService struct {
	collects      atomic.Int32
	batchCollects atomic.Int32
	batchSizes    sync.Map // call ordinal → member count
}

func deterministicRun(question string, itemIDs []int, cfg crowd.JobConfig) *crowd.RunResult {
	res := &crowd.RunResult{DurationMinutes: 1}
	for _, id := range itemIDs {
		for a := 0; a < cfg.AssignmentsPerItem; a++ {
			ans := crowd.Positive
			if id%2 == 1 {
				ans = crowd.Negative
			}
			res.Records = append(res.Records, crowd.Record{ItemID: id, WorkerID: a, Answer: ans})
		}
	}
	res.TotalCost = float64(len(res.Records)) * cfg.PayPerHIT / float64(cfg.ItemsPerHIT)
	return res
}

func (s *batchCountingService) Collect(question string, itemIDs []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
	s.collects.Add(1)
	return deterministicRun(question, itemIDs, cfg), nil
}

func (s *batchCountingService) CollectBatch(reqs []BatchRequest, cfg crowd.JobConfig) (*crowd.BatchResult, error) {
	n := s.batchCollects.Add(1)
	s.batchSizes.Store(n, len(reqs))
	combined := &crowd.RunResult{DurationMinutes: 1}
	per := make([]*crowd.RunResult, len(reqs))
	for i, req := range reqs {
		r := deterministicRun(req.Question, req.ItemIDs, cfg)
		per[i] = r
		combined.Records = append(combined.Records, r.Records...)
		combined.TotalCost += r.TotalCost
	}
	return &crowd.BatchResult{Combined: combined, PerQuestion: per}, nil
}

// newBatchedDB builds an in-memory DB with batching enabled and four
// registered CROWD-method expandable genre columns on one table.
func newBatchedDB(t testing.TB, svc JudgmentService, window time.Duration) *DB {
	t.Helper()
	db, err := Open(Options{Service: svc, BatchWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"comedy", "drama", "action", "horror"} {
		db.RegisterExpandable("movies", col, storage.KindBool, ExpandOptions{Method: "CROWD"})
	}
	return db
}

// TestBatchedExpansionsShareOneCharge is the tentpole acceptance test:
// four concurrent expansions of one table must issue ONE crowd charge
// (one CollectBatch, one global-ledger job), with the cost split across
// the four member job ledgers.
func TestBatchedExpansionsShareOneCharge(t *testing.T) {
	svc := &batchCountingService{}
	db := newBatchedDB(t, svc, 50*time.Millisecond)

	// Submit all four concurrently-pending expansions inside one window:
	// async submission returns in microseconds, so the batch is
	// deterministic; the queries are then answered after the jobs finish.
	cols := []string{"comedy", "drama", "action", "horror"}
	var handles []*jobs.Job
	for _, col := range cols {
		_, job, err := do(db, Request{SQL: fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col), Mode: ModeAsync})
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		if job == nil {
			t.Fatalf("%s: no expansion job", col)
		}
		handles = append(handles, job)
	}
	for i, job := range handles {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for _, col := range cols {
		if _, _, err := db.ExecSQL(fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col)); err != nil {
			t.Fatalf("re-query %s: %v", col, err)
		}
	}

	if got := svc.batchCollects.Load(); got != 1 {
		t.Fatalf("CollectBatch called %d times, want 1", got)
	}
	if got := svc.collects.Load(); got != 0 {
		t.Fatalf("solo Collect called %d times, want 0 (batching bypassed)", got)
	}
	if size, _ := svc.batchSizes.Load(int32(1)); size != 4 {
		t.Fatalf("batch merged %v members, want 4", size)
	}
	led := db.Ledger()
	if led.Jobs != 1 {
		t.Fatalf("global ledger booked %d crowd charges, want 1", led.Jobs)
	}

	// Four member jobs, each with its own proportional ledger share.
	jobsList := db.Jobs()
	if len(jobsList) != 4 {
		t.Fatalf("%d jobs in history, want 4", len(jobsList))
	}
	var shareSum float64
	for _, st := range jobsList {
		if st.Ledger.Charges != 1 {
			t.Fatalf("job %s has %d ledger charges, want 1", st.ID, st.Ledger.Charges)
		}
		if st.Ledger.Cost <= 0 {
			t.Fatalf("job %s booked no cost share", st.ID)
		}
		shareSum += st.Ledger.Cost
	}
	if diff := shareSum - led.Cost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("member shares sum to $%.6f, combined charge $%.6f", shareSum, led.Cost)
	}

	// Every column actually got filled.
	for _, col := range cols {
		if !db.columnFilled("movies", col) {
			t.Fatalf("column %s not filled", col)
		}
	}
}

// TestBatchWindowSplitsDistantSubmissions: submissions further apart than
// the window run as separate batches — batching trades a bounded delay,
// never unbounded staleness.
func TestBatchWindowSplitsDistantSubmissions(t *testing.T) {
	svc := &batchCountingService{}
	db := newBatchedDB(t, svc, 20*time.Millisecond)

	if _, _, err := db.ExecSQL(`SELECT name FROM movies WHERE comedy = true`); err != nil {
		t.Fatal(err)
	}
	// The first batch has flushed (ExecSQL waited for it); this lands in
	// a new window.
	if _, _, err := db.ExecSQL(`SELECT name FROM movies WHERE drama = true`); err != nil {
		t.Fatal(err)
	}
	total := svc.batchCollects.Load() + svc.collects.Load()
	if total != 2 {
		t.Fatalf("%d elicitations for 2 distant expansions, want 2", total)
	}
}

// TestBatchFallbackWithoutBatchService: a JudgmentService that lacks
// CollectBatch still works with a batch window — members elicit solo.
func TestBatchFallbackWithoutBatchService(t *testing.T) {
	svc := &slowService{}
	db, err := Open(Options{Service: svc, BatchWindow: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterExpandable("movies", "comedy", storage.KindBool, ExpandOptions{Method: "CROWD"})
	db.RegisterExpandable("movies", "drama", storage.KindBool, ExpandOptions{Method: "CROWD"})

	for _, col := range []string{"comedy", "drama"} {
		if _, _, err := db.ExecSQL(fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col)); err != nil {
			t.Fatalf("%s: %v", col, err)
		}
	}
	if got := svc.calls.Load(); got != 2 {
		t.Fatalf("fallback made %d Collect calls, want 2", got)
	}
}

// TestBatchedSimulatedCrowd runs the real simulator end to end through
// the batch path: two SPACE-less CROWD expansions over the simulated
// marketplace, one shared HIT group.
func TestBatchedSimulatedCrowd(t *testing.T) {
	const rows = 30
	svc := simulatedService(3, rows)
	db, err := Open(Options{Service: svc, BatchWindow: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterExpandable("movies", "comedy", storage.KindBool, ExpandOptions{Method: "CROWD", Assignments: 5})
	db.RegisterExpandable("movies", "drama", storage.KindBool, ExpandOptions{Method: "CROWD", Assignments: 5})

	var handles []*jobs.Job
	for _, col := range []string{"comedy", "drama"} {
		_, job, err := do(db, Request{SQL: fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col), Mode: ModeAsync})
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		handles = append(handles, job)
	}
	for i, job := range handles {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if led := db.Ledger(); led.Jobs != 1 {
		t.Fatalf("simulator batch booked %d charges, want 1", led.Jobs)
	}
}
