// Batched HIT elicitation benchmarks: the cost-lever claim of DESIGN.md
// §11. Four expansions of one table that arrive together should engage
// (and charge) the crowd marketplace once when batching is on, versus
// once per column when it is off.
package crowddb_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crowddb"
	"crowddb/internal/crowd"
	"crowddb/internal/storage"
)

const batchBenchRows = 40

var batchBenchColumns = []string{"comedy", "drama", "action", "horror"}

// batchBenchDB builds an in-memory DB over a simulated marketplace with
// one table and four registered CROWD-method expandable columns.
// window=0 disables batching (the per-job baseline).
func batchBenchDB(tb testing.TB, seed int64, window time.Duration) *crowddb.DB {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 40}, rng)
	items := func(question string) ([]crowd.Item, error) {
		out := make([]crowd.Item, batchBenchRows)
		for i := range out {
			out[i] = crowd.Item{ID: i, Truth: i%2 == 0, Popularity: 1}
		}
		return out, nil
	}
	db, err := crowddb.Open(crowddb.Options{
		Service:     crowddb.NewSimulatedCrowd(pop, items, rng),
		BatchWindow: window,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		tb.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < batchBenchRows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%02d", i))); err != nil {
			tb.Fatal(err)
		}
	}
	for _, col := range batchBenchColumns {
		db.RegisterExpandable("movies", col, storage.KindBool,
			crowddb.ExpandOptions{Method: "CROWD", Assignments: 5})
	}
	return db
}

// expandAllColumns submits the four expansions back to back (inside one
// batching window when batching is on), waits for them, and returns the
// ledger: Jobs is the number of crowd charges the marketplace issued.
func expandAllColumns(tb testing.TB, db *crowddb.DB) crowddb.LedgerTotals {
	tb.Helper()
	var handles []*crowddb.Job
	for _, col := range batchBenchColumns {
		job, err := db.Do(context.Background(), new(crowddb.RowStream), crowddb.Request{SQL: fmt.Sprintf(`SELECT name FROM movies WHERE %s = true`, col), Mode: crowddb.ModeAsync})
		if err != nil {
			tb.Fatalf("%s: %v", col, err)
		}
		if job == nil {
			tb.Fatalf("%s: no expansion job", col)
		}
		handles = append(handles, job)
	}
	for i, job := range handles {
		if _, err := job.Wait(context.Background()); err != nil {
			tb.Fatalf("job %d: %v", i, err)
		}
	}
	return db.Ledger()
}

// TestBatchedElicitationHalvesCharges is the PR's acceptance bar: 4
// concurrent expansions of one table must produce at least 2× fewer
// crowd charges under batching than under per-job issuing (here: 1 vs 4).
func TestBatchedElicitationHalvesCharges(t *testing.T) {
	batched := expandAllColumns(t, batchBenchDB(t, 42, 30*time.Millisecond))
	baseline := expandAllColumns(t, batchBenchDB(t, 42, 0))

	if baseline.Jobs != len(batchBenchColumns) {
		t.Fatalf("per-job baseline issued %d charges, want %d", baseline.Jobs, len(batchBenchColumns))
	}
	if batched.Jobs*2 > baseline.Jobs {
		t.Fatalf("batching issued %d charges vs baseline %d: less than the required 2x reduction",
			batched.Jobs, baseline.Jobs)
	}
	if batched.Judgments == 0 || batched.Cost == 0 {
		t.Fatalf("batched run did no crowd work: %+v", batched)
	}
}

// BenchmarkBatchedElicitation reports the charge amortization and crowd
// wall-clock of batching 4 same-table expansions into shared HIT groups,
// against the per-job baseline.
func BenchmarkBatchedElicitation(b *testing.B) {
	var batched, baseline crowddb.LedgerTotals
	for i := 0; i < b.N; i++ {
		batched = expandAllColumns(b, batchBenchDB(b, int64(100+i), 20*time.Millisecond))
		baseline = expandAllColumns(b, batchBenchDB(b, int64(100+i), 0))
	}
	b.ReportMetric(float64(batched.Jobs), "charges-batched")
	b.ReportMetric(float64(baseline.Jobs), "charges-perjob")
	b.ReportMetric(float64(baseline.Jobs)/float64(batched.Jobs), "charge-reduction-x")
	// Crowd wall-clock: batched columns share one job's duration instead
	// of queueing four jobs' worth of marketplace minutes.
	b.ReportMetric(batched.Minutes, "crowd-min-batched")
	b.ReportMetric(baseline.Minutes, "crowd-min-perjob")
}
