package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// perQuestion adapts a fake crowd written one question at a time to
// JudgmentService: each request of a call is answered by one call of the
// function, and the job they make together is their concatenation — its
// records, its cost added up, its longest duration. A single request's
// run is the job itself.
type perQuestion func(question string, itemIDs []int, cfg crowd.JobConfig) (*crowd.RunResult, error)

func (f perQuestion) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	batch := &crowd.BatchResult{PerQuestion: make([]*crowd.RunResult, len(reqs))}
	for i, req := range reqs {
		res, err := f(req.Question, req.ItemIDs, cfg)
		if err != nil {
			return err
		}
		batch.PerQuestion[i] = res
	}
	if len(reqs) == 1 {
		batch.Combined = batch.PerQuestion[0]
	} else {
		batch.Combined = &crowd.RunResult{}
		for _, res := range batch.PerQuestion {
			c := batch.Combined
			c.Records = append(c.Records, res.Records...)
			c.TotalCost += res.TotalCost
			c.DurationMinutes = max(c.DurationMinutes, res.DurationMinutes)
		}
	}
	into.CopyFrom(batch)
	return nil
}

// batchCountingService is deterministic like slowService, counting how
// the database chose to elicit: how many crowd calls, of how many
// requests each.
type batchCountingService struct {
	calls      atomic.Int32
	batchSizes sync.Map // call ordinal → member count
}

// parityRun judges every item Assignments times, with a majority equal
// to (id%2 == 0).
func parityRun(question string, itemIDs []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
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
	return res, nil
}

func (s *batchCountingService) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	s.batchSizes.Store(s.calls.Add(1), len(reqs))
	return perQuestion(parityRun).Collect(reqs, cfg, into)
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
// (one Collect, one global-ledger job), with the cost split across
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

	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("Collect called %d times, want 1", got)
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

// TestBatchPartitionsByJobConfig: members of one batch share a Collect
// only when their marketplace configurations are equal field by field —
// two whose configurations differ only in ExcludeCountries are elicited
// apart, two with equal ones (in lists of their own) together.
func TestBatchPartitionsByJobConfig(t *testing.T) {
	for _, c := range []struct {
		name    string
		exclude []string // drama's; comedy's is {"US"}
		calls   int32
	}{{"equal configs", []string{"US"}, 1}, {"countries differ", []string{"IN"}, 2}} {
		t.Run(c.name, func(t *testing.T) {
			svc := &batchCountingService{}
			db := newBatchedDB(t, svc, 50*time.Millisecond)
			db.RegisterExpandable("movies", "comedy", storage.KindBool, ExpandOptions{Method: "CROWD", Job: crowd.JobConfig{ExcludeCountries: []string{"US"}}})
			db.RegisterExpandable("movies", "drama", storage.KindBool, ExpandOptions{Method: "CROWD", Job: crowd.JobConfig{ExcludeCountries: c.exclude}})
			var handles []*jobs.Job
			for _, col := range []string{"comedy", "drama"} {
				_, job, err := do(db, Request{SQL: fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col), Mode: ModeAsync})
				if err != nil || job == nil {
					t.Fatalf("%s: job %v, %v", col, job, err)
				}
				handles = append(handles, job)
			}
			for i, job := range handles {
				if _, err := job.Wait(context.Background()); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
			}
			if got := svc.calls.Load(); got != c.calls {
				t.Fatalf("Collect called %d times, want %d", got, c.calls)
			}
		})
	}
}

// moneyService answers like batchCountingService and counts the calls it
// answers; told to fail, it answers none.
type moneyService struct {
	fail     bool
	answered atomic.Int32
}

func (s *moneyService) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	if s.fail {
		return errors.New("moneyService: the crowd is gone")
	}
	s.answered.Add(1)
	return perQuestion(parityRun).Collect(reqs, cfg, into)
}

// The money invariants of every way an expansion reaches the crowd, for
// batches of one, two and four members over two API keys: the global
// ledger books one job per answered crowd call, the members' job ledgers
// add up to it, each key is debited exactly its members' shares and never
// past its cap, no reservation outlives the batch, and a member the cap
// rejects or the crowd fails is charged nothing and fills nothing.
func TestElicitationMoneyInvariants(t *testing.T) {
	opts := ExpandOptions{Method: sqlparse.ExpandCrowd}
	opts.fillDefaults(sqlparse.ExpandCrowd)
	each := projectedCost(40, &opts) // one member's projection: newBatchedDB has 40 rows
	keys := []string{"k0", "k1"}     // member i's key is keys[i%2]
	modes := []struct {
		name     string
		caps     map[string]float64 // nil: no key is capped
		fail     bool
		admitted func(i int) bool
	}{
		{name: "no cap", admitted: func(int) bool { return true }},
		// k0 affords no member; k1 affords one, so its second is rejected
		// by the first one's reservation.
		{name: "cap admits some", caps: map[string]float64{"k0": each / 2, "k1": 1.5 * each},
			admitted: func(i int) bool { return i == 1 }},
		// Capped, so that the reservations are real and must be released.
		{name: "service fails", caps: map[string]float64{"k0": 10 * each, "k1": 10 * each}, fail: true,
			admitted: func(int) bool { return false }},
	}
	for _, n := range []int{1, 2, 4} {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%d/%s", n, mode.name), func(t *testing.T) {
				svc := &moneyService{fail: mode.fail}
				db := newBatchedDB(t, svc, 50*time.Millisecond)
				for key, limit := range mode.caps {
					if err := db.SetBudget(key, limit); err != nil {
						t.Fatal(err)
					}
				}
				cols := []string{"comedy", "drama", "action", "horror"}[:n]
				handles := make([]*jobs.Job, n)
				for i, col := range cols {
					job, _, err := db.submitExpansion("movies", col, storage.KindBool,
						ExpandOptions{Method: sqlparse.ExpandCrowd, APIKey: keys[i%2], Origin: OriginAdmin}, false)
					if err != nil {
						t.Fatalf("%s: %v", col, err)
					}
					handles[i] = job
				}
				spent := map[string]float64{}
				shares := 0.0
				for i, job := range handles {
					_, err := job.Wait(context.Background())
					led := job.Status().Ledger
					spent[keys[i%2]] += led.Cost
					shares += led.Cost
					switch ok := mode.admitted(i); {
					case ok && err != nil:
						t.Fatalf("member %d (%s): %v", i, cols[i], err)
					case !ok && err == nil:
						t.Fatalf("member %d (%s) succeeded, want it rejected or failed", i, cols[i])
					case !ok && (led.Charges != 0 || led.Cost != 0 || db.columnFilled("movies", cols[i])):
						t.Fatalf("member %d (%s) failed (%v) yet was charged %+v or filled", i, cols[i], err, led)
					case ok && (led.Charges != 1 || !db.columnFilled("movies", cols[i])):
						t.Fatalf("member %d (%s) succeeded with %d charges, filled: %v", i, cols[i], led.Charges, db.columnFilled("movies", cols[i]))
					}
				}
				total := db.Ledger()
				if calls := int(svc.answered.Load()); total.Jobs != calls {
					t.Fatalf("the ledger booked %d jobs for %d answered crowd calls", total.Jobs, calls)
				}
				if math.Abs(shares-total.Cost) > 1e-9 {
					t.Fatalf("the job ledgers add up to $%.9f, the ledger to $%.9f", shares, total.Cost)
				}
				db.budgets.mu.Lock()
				defer db.budgets.mu.Unlock()
				for _, key := range keys {
					if got := db.budgets.spent[key]; math.Abs(got-spent[key]) > 1e-9 {
						t.Fatalf("key %s spent $%.9f, its members' shares $%.9f", key, got, spent[key])
					}
					if limit, capped := db.budgets.caps[key]; capped && db.budgets.spent[key] > limit+1e-9 {
						t.Fatalf("key %s spent $%.9f past its cap $%.9f", key, db.budgets.spent[key], limit)
					}
				}
				if len(db.budgets.reserved) != 0 {
					t.Fatalf("reservations still held: %v", db.budgets.reserved)
				}
			})
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
	if total := svc.calls.Load(); total != 2 {
		t.Fatalf("%d elicitations for 2 distant expansions, want 2", total)
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
