package workload

import (
	"fmt"
	"reflect"
	"testing"
)

func obs(table string, kind Kind, cols ...string) Observation {
	return Observation{Table: table, Columns: cols, Kind: kind}
}

// seedAlternating records n rounds of "query a, then query b" — the
// exploratory pattern the predictor exists for.
func seedAlternating(t *Tracker, n int, a, b string) {
	for i := 0; i < n; i++ {
		t.Observe(obs("movies", KindAccess, a))
		t.Observe(obs("movies", KindAccess, b))
	}
}

func TestPredictFromAlternatingAccess(t *testing.T) {
	tr := NewTracker(0)
	// Noise column with a high base rate: queried constantly on its own,
	// and a couple of times after the comedy runs (so a comedy→year pair
	// exists with real support). Lift must suppress it — P(year) is high
	// everywhere, so following comedy is no evidence.
	for i := 0; i < 20; i++ {
		tr.Observe(obs("movies", KindAccess, "year"))
	}
	seedAlternating(tr, 5, "comedy", "drama")
	for i := 0; i < 2; i++ {
		tr.Observe(obs("movies", KindAccess, "year"))
	}

	preds := tr.Predict("movies", "comedy", 2)
	if len(preds) == 0 {
		t.Fatal("no predictions after 5 comedy→drama rounds")
	}
	if preds[0].Column != "drama" {
		t.Fatalf("top prediction = %q, want drama (all: %+v)", preds[0].Column, preds)
	}
	if preds[0].Lift <= 1 {
		t.Fatalf("drama lift = %g, want > 1", preds[0].Lift)
	}
	if preds[0].Support < minSupport {
		t.Fatalf("drama support = %d, want >= %d", preds[0].Support, minSupport)
	}
}

func TestPredictRequiresSupport(t *testing.T) {
	tr := NewTracker(0)
	// One co-occurrence only: below minSupport, must not predict.
	tr.Observe(obs("movies", KindAccess, "comedy"))
	tr.Observe(obs("movies", KindAccess, "drama"))
	if preds := tr.Predict("movies", "comedy", 4); len(preds) != 0 {
		t.Fatalf("single co-occurrence produced predictions: %+v", preds)
	}
}

func TestPredictUnknownTableOrColumn(t *testing.T) {
	tr := NewTracker(0)
	seedAlternating(tr, 3, "comedy", "drama")
	if p := tr.Predict("books", "comedy", 2); p != nil {
		t.Fatalf("unknown table predicted %+v", p)
	}
	if p := tr.Predict("movies", "nosuch", 2); p != nil {
		t.Fatalf("unknown trigger predicted %+v", p)
	}
	if p := tr.Predict("movies", "comedy", 0); p != nil {
		t.Fatalf("limit 0 predicted %+v", p)
	}
}

func TestMissesFeedTheModel(t *testing.T) {
	tr := NewTracker(0)
	for i := 0; i < 4; i++ {
		tr.Observe(obs("movies", KindMiss, "comedy"))
		tr.Observe(obs("movies", KindMiss, "drama"))
	}
	preds := tr.Predict("movies", "comedy", 1)
	if len(preds) != 1 || preds[0].Column != "drama" {
		t.Fatalf("miss-only history predicted %+v, want drama", preds)
	}
	st := tr.Export()
	if st.TotalMisses != 8 {
		t.Fatalf("TotalMisses = %d, want 8", st.TotalMisses)
	}
}

func TestExpandObservationsDoNotFeedPairs(t *testing.T) {
	tr := NewTracker(0)
	for i := 0; i < 5; i++ {
		tr.Observe(obs("movies", KindExpand, "comedy"))
		tr.Observe(obs("movies", KindExpand, "drama"))
	}
	if preds := tr.Predict("movies", "comedy", 2); len(preds) != 0 {
		t.Fatalf("expand-only history predicted %+v (feedback loop)", preds)
	}
	if st := tr.Export(); st.TotalExpands != 10 || st.TotalQueries != 0 {
		t.Fatalf("expands=%d queries=%d, want 10/0", st.TotalExpands, st.TotalQueries)
	}
}

// TestTraceRingIsBounded: the trace keeps the newest observations, at
// most its capacity of them, oldest first.
func TestTraceRingIsBounded(t *testing.T) {
	tr := NewTracker(4)
	for i := 0; i < 10; i++ {
		tr.Observe(obs("movies", KindAccess, fmt.Sprintf("c%d", i)))
		recent := tr.Recent()
		if len(recent) != min(i+1, 4) {
			t.Fatalf("after %d observations the trace holds %d", i+1, len(recent))
		}
		for k, o := range recent {
			if want := fmt.Sprintf("c%d", i+1-len(recent)+k); o.Columns[0] != want {
				t.Fatalf("after %d observations trace[%d] is %v, want %s", i+1, k, o.Columns, want)
			}
		}
	}
}

// TestWindowSpansWindowSizeObservations: a column co-occurs with what the
// last windowSize observations of its table demanded, and no further back.
func TestWindowSpansWindowSizeObservations(t *testing.T) {
	pairs := func(fillers int) uint64 {
		tr := NewTracker(0)
		tr.Observe(obs("movies", KindAccess, "a"))
		for i := 0; i < fillers; i++ {
			tr.Observe(obs("movies", KindAccess, "x"))
			tr.Observe(obs("other", KindAccess, "a")) // another table's window
		}
		tr.Observe(obs("movies", KindAccess, "b"))
		return tr.Export().Tables[0].Pairs["a"]["b"]
	}
	if got := pairs(windowSize - 1); got != 1 {
		t.Fatalf("a, %d others, then b: a→b counted %d times, want 1", windowSize-1, got)
	}
	if got := pairs(windowSize); got != 0 {
		t.Fatalf("a, %d others, then b: a→b counted %d times, want 0", windowSize, got)
	}
}

// TestObserveAllocatesOnlyItsColumnList: once a table and its column pairs
// are known, an observation allocates the column list it keeps and
// nothing else — no dedupe map, and no ring regrown now and then, which
// is why a run is a full window of observations.
func TestObserveAllocatesOnlyItsColumnList(t *testing.T) {
	tr := NewTracker(0)
	o := obs("movies", KindAccess, "name", "year", "comedy", "year")
	for i := 0; i < 2*DefaultTraceCap; i++ {
		tr.Observe(o)
	}
	const perRun = 2 * windowSize
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < perRun; i++ {
			tr.Observe(o)
		}
	}); allocs > perRun {
		t.Fatalf("%d observations of a known table allocate %.0f objects, want at most one each", perRun, allocs)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	tr := NewTracker(0)
	seedAlternating(tr, 3, "Comedy", "Drama") // mixed case normalizes
	tr.Observe(obs("movies", KindMiss, "horror"))
	tr.Observe(obs("movies", KindExpand, "horror"))

	st := tr.Export()
	tr2 := NewTracker(0)
	tr2.Import(st)
	if got := tr2.Export(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
	// The model must predict identically from imported counters.
	want := tr.Predict("movies", "comedy", 2)
	got := tr2.Predict("movies", "comedy", 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imported predictions %+v, want %+v", got, want)
	}
	// The trace ring is in-memory only: empty after import.
	if r := tr2.Recent(); len(r) != 0 {
		t.Fatalf("imported tracker has %d trace entries, want 0", len(r))
	}
}

func TestObserveNormalizesAndDedups(t *testing.T) {
	tr := NewTracker(0)
	tr.Observe(obs("Movies", KindAccess, "Year", "year", "NAME"))
	st := tr.Export()
	if len(st.Tables) != 1 || st.Tables[0].Table != "movies" {
		t.Fatalf("tables = %+v, want one entry 'movies'", st.Tables)
	}
	cols := st.Tables[0].Columns
	if cols["year"] != 1 || cols["name"] != 1 || len(cols) != 2 {
		t.Fatalf("columns = %+v, want year:1 name:1", cols)
	}
}
