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

// slowService is a deterministic JudgmentService: every item gets
// Assignments judgments whose majority equals (id%2 == 0). An optional
// gate stalls Collect so tests can hold an expansion in flight.
type slowService struct {
	gate  chan struct{} // Collect blocks until closed (nil = no stall)
	calls atomic.Int32
}

func (s *slowService) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	s.calls.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	return perQuestion(parityRun).Collect(reqs, cfg, into)
}

// newAsyncDB builds a 40-row table with a registered CROWD-method
// expandable column backed by the given service.
func newAsyncDB(t testing.TB, service JudgmentService) *DB {
	t.Helper()
	db := NewDB(service)
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%03d", i)), storage.Int(int64(1970+i))); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterExpandable("movies", "is_comedy", storage.KindBool,
		ExpandOptions{Method: "CROWD"})
	return db
}

// TestSingleflightOneJobOneCharge is the acceptance test for singleflight:
// N concurrent queries on the same unexpanded column must produce exactly
// one expansion job, one service call, and one ledger charge.
func TestSingleflightOneJobOneCharge(t *testing.T) {
	svc := &slowService{gate: make(chan struct{})}
	db := newAsyncDB(t, svc)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	reports := make([]*ExpansionReport, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, reports[i], errs[i] = db.ExecSQL(`SELECT name FROM movies WHERE is_comedy = true`)
		}(i)
	}
	// Let the goroutines pile onto the missing column, then release the
	// crowd.
	time.Sleep(20 * time.Millisecond)
	close(svc.gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("service called %d times, want 1 (singleflight broken)", got)
	}
	if led := db.Ledger(); led.Jobs != 1 {
		t.Fatalf("ledger charged %d jobs, want 1", led.Jobs)
	}
	jobList := db.Jobs()
	if len(jobList) != 1 {
		t.Fatalf("%d expansion jobs, want 1", len(jobList))
	}
	st := jobList[0]
	if st.State != jobs.StateDone || st.Ledger.Charges != 1 {
		t.Fatalf("job status = %+v", st)
	}
	// At least one caller gets the report; every caller gets the rows.
	gotReport := 0
	for _, r := range reports {
		if r != nil {
			gotReport++
		}
	}
	if gotReport == 0 {
		t.Fatal("no caller received the expansion report")
	}
}

// TestConcurrentReadsDuringExpansion fires read-only SELECTs on other
// columns while an expansion is held in flight: the reads must complete
// without waiting for the crowd (run under -race in CI).
func TestConcurrentReadsDuringExpansion(t *testing.T) {
	svc := &slowService{gate: make(chan struct{})}
	db := newAsyncDB(t, svc)

	// Kick off the expansion asynchronously; it stalls on the gate.
	_, job, err := do(db, Request{SQL: `SELECT name FROM movies WHERE is_comedy = true`, Mode: ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	if job == nil {
		t.Fatal("expected a job handle for the expanding query")
	}
	if st := job.Status(); st.State.Terminal() {
		t.Fatalf("job already terminal: %s", st.State)
	}

	// 8 readers × 50 queries each against live columns, while the
	// expansion is pending. None of them may block on the crowd gate.
	var wg sync.WaitGroup
	readErrs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, rep, err := db.ExecSQL(`SELECT COUNT(*) FROM movies WHERE year > 1980`)
				if err != nil {
					readErrs <- err
					return
				}
				if rep != nil {
					readErrs <- fmt.Errorf("read-only query expanded something")
					return
				}
				if n, _ := res.Rows[0][0].AsInt(); n != 29 {
					readErrs <- fmt.Errorf("count = %d, want 29", n)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-readErrs:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("readers blocked behind the in-flight expansion")
	}

	// Release the crowd; the async job completes and the query now
	// answers directly.
	close(svc.gate)
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, job2, err := do(db, Request{SQL: `SELECT COUNT(*) FROM movies WHERE is_comedy = true`, Mode: ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	if job2 != nil {
		t.Fatal("column already expanded; no new job expected")
	}
	if rows := streamRows(t, res); len(rows) != 1 {
		t.Fatalf("the count answers %d rows", len(rows))
	} else if n, _ := rows[0][0].AsInt(); n != 20 {
		t.Fatalf("comedies = %d, want 20", n)
	}
}

// streamRows reads every row of s and closes it.
func streamRows(t *testing.T, s *RowStream) []storage.Row {
	t.Helper()
	defer s.Close()
	var rows []storage.Row
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// TestAsyncExpandStatement routes an explicit EXPAND through a ModeAsync
// request and polls it to completion.
func TestAsyncExpandStatement(t *testing.T) {
	svc := &slowService{}
	db := newAsyncDB(t, svc)

	res, job, err := do(db, Request{SQL: `EXPAND TABLE movies ADD COLUMN is_comedy BOOLEAN USING CROWD`, Mode: ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	if res.Message() != "" || res.Expansion() != nil || job == nil {
		t.Fatalf("want job-only response, got message %q, report %v, job=%v", res.Message(), res.Expansion(), job)
	}
	result, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	report, ok := result.(*ExpansionReport)
	if !ok || report.Filled != 40 {
		t.Fatalf("report = %+v", result)
	}
	st, ok := db.Job(job.ID())
	if !ok || st.State != jobs.StateDone {
		t.Fatalf("poll: ok=%v st=%+v", ok, st)
	}
	if st.Ledger.Judgments != report.Judgments {
		t.Fatalf("job ledger %d judgments, report %d", st.Ledger.Judgments, report.Judgments)
	}
}

// TestImplicitRaceAfterCompletion covers the resubmit race: a query that
// observed the column as missing but submits after the original job
// finished must not trigger a second crowd run.
func TestImplicitRaceAfterCompletion(t *testing.T) {
	svc := &slowService{}
	db := newAsyncDB(t, svc)

	if _, _, err := db.ExecSQL(`SELECT name FROM movies WHERE is_comedy = true`); err != nil {
		t.Fatal(err)
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("calls = %d", got)
	}
	// Simulate the losing racer: submit the same implicit expansion again.
	spec, ok := db.expandableSpec("movies", "is_comedy")
	if !ok {
		t.Fatal("spec vanished")
	}
	job, created, err := db.submitExpansion("movies", "is_comedy", spec.kind, spec.opts, true)
	if err != nil || !created {
		t.Fatalf("created=%v err=%v", created, err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("late resubmit re-ran the crowd: calls = %d", got)
	}
}

// TestOriginReachesOnTerminal: an expansion's origin is on its job from
// the moment the job exists, so even one that finishes before its submit
// returns reaches the completion hook (and the WAL's job record) with it.
// The expansions here fail at once: a FLOAT column is not crowd-
// expandable.
func TestOriginReachesOnTerminal(t *testing.T) {
	for _, window := range []time.Duration{0, 5 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			db, err := Open(Options{BatchWindow: window, QueueDepth: 256})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			if _, _, err := db.ExecSQL(`CREATE TABLE t (id INTEGER)`); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			origins := map[string]string{}
			db.sched.OnTerminal = func(st jobs.Status) {
				mu.Lock()
				origins[st.ID] = st.Origin
				mu.Unlock()
				db.onJobTerminal(st)
			}
			var handles []*jobs.Job
			for i := 0; i < 64; i++ {
				job, err := db.SubmitExpand("t", fmt.Sprintf("c%d", i), storage.KindFloat, ExpandOptions{Origin: OriginAdmin})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, job)
			}
			for _, h := range handles {
				if _, err := h.Wait(context.Background()); err == nil {
					t.Fatalf("job %s: a FLOAT expansion succeeded", h.ID())
				}
				mu.Lock()
				got := origins[h.ID()]
				mu.Unlock()
				if got != OriginAdmin {
					t.Fatalf("job %s reached OnTerminal with origin %q, want %q", h.ID(), got, OriginAdmin)
				}
			}
		})
	}
}
