package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// expandWithKey runs one explicit CROWD expansion attributed to an API
// key and returns the report error.
func expandWithKey(db *DB, column, key string) (*ExpansionReport, error) {
	return db.Expand("movies", column, storage.KindBool,
		ExpandOptions{Method: "CROWD", APIKey: key})
}

func newBudgetDB(t *testing.T, svc JudgmentService, opts Options) *DB {
	t.Helper()
	opts.Service = svc
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestBudgetCapRejectsBeforeHIT: an expansion whose projected cost blows
// the key's cap is rejected before the crowd is contacted at all.
func TestBudgetCapRejectsBeforeHIT(t *testing.T) {
	svc := &slowService{}
	db := newBudgetDB(t, svc, Options{})
	if err := db.SetBudget("team-a", 0.01); err != nil {
		t.Fatal(err)
	}
	// 40 rows × 10 assignments × $0.002/judgment = $0.80 projected ≫ 1¢.
	_, err := expandWithKey(db, "comedy", "team-a")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if got := svc.calls.Load(); got != 0 {
		t.Fatalf("crowd contacted %d times despite cap", got)
	}
	if st, _ := db.Budget("team-a"); st.Spent != 0 {
		t.Fatalf("rejection recorded spend: %+v", st)
	}
}

// TestBudgetSpendAccumulates: an affordable expansion debits the key by
// the actual crowd cost, and the running total eventually trips the cap.
func TestBudgetSpendAccumulates(t *testing.T) {
	svc := &slowService{}
	db := newBudgetDB(t, svc, Options{})
	if err := db.SetBudget("team-a", 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := expandWithKey(db, "comedy", "team-a")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := db.Budget("team-a")
	if !ok {
		t.Fatal("key vanished")
	}
	if math.Abs(st.Spent-rep.Cost) > 1e-9 {
		t.Fatalf("spent $%.4f, expansion cost $%.4f", st.Spent, rep.Cost)
	}
	// $0.80 spent of $1.00: the next $0.80 projection must be rejected.
	if _, err := expandWithKey(db, "drama", "team-a"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("second expansion: %v, want ErrBudgetExceeded", err)
	}
	// An unattributed expansion is not capped.
	if _, err := expandWithKey(db, "action", ""); err != nil {
		t.Fatalf("uncapped expansion: %v", err)
	}
}

// TestDefaultBudgetMaterializes: a never-seen key inherits the default
// cap durably the first time it is checked.
func TestDefaultBudgetMaterializes(t *testing.T) {
	svc := &slowService{}
	db := newBudgetDB(t, svc, Options{DefaultBudget: 0.05})
	if _, err := expandWithKey(db, "comedy", "newcomer"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded from default cap", err)
	}
	st, ok := db.Budget("newcomer")
	if !ok || st.Cap != 0.05 {
		t.Fatalf("default cap not materialized: %+v (ok=%v)", st, ok)
	}
	// An explicit cap overrides the default.
	if err := db.SetBudget("newcomer", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := expandWithKey(db, "comedy", "newcomer"); err != nil {
		t.Fatalf("after raising cap: %v", err)
	}
}

// TestBudgetReservationBlocksConcurrentOverspend: while one expansion's
// HITs are in flight, its projected cost is HELD against the key, so a
// concurrent expansion on the same key cannot pass the cap check against
// the not-yet-booked spend and collectively blow the cap.
func TestBudgetReservationBlocksConcurrentOverspend(t *testing.T) {
	svc := &slowService{gate: make(chan struct{})}
	db := newBudgetDB(t, svc, Options{})
	// One expansion projects $0.80; the cap fits one but not two.
	if err := db.SetBudget("team-a", 1.0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := expandWithKey(db, "comedy", "team-a")
		done <- err
	}()
	// Wait until the first expansion is inside the (stalled) crowd call:
	// its $0.80 is reserved, nothing is spent yet.
	deadline := time.Now().Add(5 * time.Second)
	for svc.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first expansion never reached the crowd")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := expandWithKey(db, "drama", "team-a"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("concurrent expansion: %v, want ErrBudgetExceeded from reservation", err)
	}
	close(svc.gate)
	if err := <-done; err != nil {
		t.Fatalf("first expansion: %v", err)
	}
	if got := svc.calls.Load(); got != 1 {
		t.Fatalf("crowd contacted %d times, want 1", got)
	}
}

// TestBudgetReservationInBatch: a batch of same-key members reserves
// sequentially and cumulatively — a cap that covers one member admits
// exactly one, and the rest are rejected before the shared HIT group is
// issued.
func TestBudgetReservationInBatch(t *testing.T) {
	svc := &batchCountingService{}
	db, err := Open(Options{Service: svc, BatchWindow: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Each member projects $0.80; the cap fits exactly one of the four.
	if err := db.SetBudget("team-a", 1.0); err != nil {
		t.Fatal(err)
	}
	cols := []string{"comedy", "drama", "action", "horror"}
	for _, col := range cols {
		db.RegisterExpandable("movies", col, storage.KindBool,
			ExpandOptions{Method: "CROWD", APIKey: "team-a"})
	}
	var handles []*jobs.Job
	for _, col := range cols {
		_, job, err := db.ExecSQLAsync(fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col))
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		handles = append(handles, job)
	}
	okCount, rejected := 0, 0
	for i, job := range handles {
		_, err := job.Wait(context.Background())
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrBudgetExceeded):
			rejected++
		default:
			t.Fatalf("job %d: unexpected error %v", i, err)
		}
	}
	if okCount != 1 || rejected != 3 {
		t.Fatalf("ok=%d rejected=%d, want 1/3 (reservations not cumulative?)", okCount, rejected)
	}
	st, _ := db.Budget("team-a")
	if st.Spent > st.Cap+1e-9 {
		t.Fatalf("cap blown: %+v", st)
	}
	// Reservations must all be released once the batch settles: the
	// remaining headroom is usable again.
	if err := db.SetBudget("team-a", 2.0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Expand("movies", "thriller", storage.KindBool,
		ExpandOptions{Method: "CROWD", APIKey: "team-a"}); err != nil {
		t.Fatalf("post-batch expansion under raised cap: %v", err)
	}
}

// TestBudgetSurvivesRestart is the durability acceptance scenario: a
// restart after a budget-capped rejection preserves both the cap and the
// spend — the key stays over budget, nothing is re-elicited, and the cap
// is not reset even if the server's default-budget flag changed.
func TestBudgetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const rows = 60

	db1 := seedExpandableDB(t, dir, simulatedService(7, rows), rows)
	if err := db1.SetBudget("team-a", 0.50); err != nil {
		t.Fatal(err)
	}
	// SPACE expansion (≈40 samples × 5 assignments × $0.002 = $0.40):
	// affordable once, not twice.
	rep, err := db1.Expand("movies", "is_comedy", storage.KindBool,
		ExpandOptions{Method: "SPACE", SamplesPerClass: 10, APIKey: "team-a"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost <= 0 {
		t.Fatal("expansion cost nothing")
	}
	st1, _ := db1.Budget("team-a")
	// The second elicitation must be rejected on budget grounds.
	_, err = db1.Expand("movies", "is_scifi", storage.KindBool,
		ExpandOptions{Method: "SPACE", SamplesPerClass: 10, APIKey: "team-a"})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("pre-restart rejection: %v, want ErrBudgetExceeded", err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against a dead crowd and a generous default budget: the
	// recovered cap must win over the new default, the recorded spend
	// must survive, and the already-paid column must answer queries with
	// zero new crowd work.
	dead := &deadService{}
	db2, err := Open(Options{Service: dead, DataDir: dir, DefaultBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	st2, ok := db2.Budget("team-a")
	if !ok {
		t.Fatal("budget key lost across restart")
	}
	if st2.Cap != st1.Cap || math.Abs(st2.Spent-st1.Spent) > 1e-9 {
		t.Fatalf("budget state drifted: before %+v, after %+v", st1, st2)
	}
	if _, _, err := db2.ExecSQL(`SELECT name FROM movies WHERE is_comedy = true`); err != nil {
		t.Fatalf("recovered column unanswerable: %v", err)
	}
	if dead.calls != 0 {
		t.Fatalf("restart re-elicited: %d crowd calls", dead.calls)
	}
	// Still over budget: the rejection outcome is reproducible.
	_, err = db2.Expand("movies", "is_scifi", storage.KindBool,
		ExpandOptions{Method: "SPACE", SamplesPerClass: 10, APIKey: "team-a"})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("post-restart rejection: %v, want ErrBudgetExceeded", err)
	}
	if dead.calls != 0 {
		t.Fatalf("budget re-check contacted the crowd %d times", dead.calls)
	}
}

// affordable keeps exactly the items the budget pays for, by the
// arithmetic the cap is checked with: a budget that is projectedCost(n)
// to the bit keeps n (a float quotient floored it to n−1 for 510 of the
// 8 000 pairs below at $0.03), and one judgment less keeps n−1. Every
// sample size up to the benchmark table's, both default redundancies,
// the paper's three HIT prices.
func TestApplyBudgetKeepsWhatTheBudgetCovers(t *testing.T) {
	const rows = 4000
	const items = rows + 1
	for _, pay := range []float64{0.02, 0.03, 0.05} {
		for _, assignments := range []int{5, 10} {
			opts := ExpandOptions{Assignments: assignments}
			opts.Job.PayPerHIT = pay
			opts.fillDefaults(sqlparse.ExpandSpace)
			perJudgment := opts.Job.PayPerHIT / float64(opts.Job.ItemsPerHIT)
			for n := 1; n <= rows; n++ {
				opts.Budget = projectedCost(n, &opts)
				if got := affordable(items, &opts); got != n {
					t.Fatalf("$%.2f/HIT × %d: a budget of projectedCost(%d) = %v keeps %d items", pay, assignments, n, opts.Budget, got)
				}
				if got := affordable(n, &opts); got != n {
					t.Fatalf("$%.2f/HIT × %d: a budget that covers all %d items keeps %d", pay, assignments, n, got)
				}
				opts.Budget = float64(n*assignments-1) * perJudgment
				if got := affordable(items, &opts); got != n-1 {
					t.Fatalf("$%.2f/HIT × %d: a budget one judgment short of %d items (%v) keeps %d", pay, assignments, n, opts.Budget, got)
				}
			}
		}
	}
	opts := ExpandOptions{}
	opts.fillDefaults(sqlparse.ExpandSpace)
	if got := affordable(items, &opts); got != items {
		t.Fatalf("no budget keeps %d of %d items", got, items)
	}
}
