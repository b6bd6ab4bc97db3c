package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/svm"
	"crowddb/internal/vecmath"
)

// The fixtures of this file label items by parity: item i is positive
// iff i is even, in the crowd's answers and in the space (even items sit
// around −1, odd ones around +1). A fill that is one row out of step —
// what plan-time row lists gave after a delete — flips every label behind
// the gap, so misalignment shows as ≈0 % accuracy rather than as one
// wrong row at a class boundary.

func paritySpace(items, dims int) *space.Space {
	m := vecmath.NewMatrix(items, dims)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < items; i++ {
		base := -1.0
		if i%2 == 1 {
			base = 1.0
		}
		for d := 0; d < dims; d++ {
			m.Row(i)[d] = base + 0.1*rng.NormFloat64()
		}
	}
	return space.NewSpace(m)
}

func parityCrowd(seed int64, items int) *SimulatedCrowd {
	rng := rand.New(rand.NewSource(seed))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 20}, rng)
	models := make([]crowd.Item, items)
	for i := range models {
		models[i] = crowd.Item{ID: i, Truth: i%2 == 0, Popularity: 1}
	}
	return NewSimulatedCrowd(pop, func(string) ([]crowd.Item, error) { return models, nil }, rng)
}

// churnService is a crowd during whose deliberation the table changes:
// after the judgments are in and before they are returned — between
// sampling and fill — it runs during once.
type churnService struct {
	inner  *SimulatedCrowd
	during func()
	once   sync.Once
	calls  int
}

func (s *churnService) Collect(q string, ids []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
	s.calls++
	res, err := s.inner.Collect(q, ids, cfg)
	s.once.Do(s.during)
	return res, err
}

func (s *churnService) CollectBatch(reqs []BatchRequest, cfg crowd.JobConfig) (*crowd.BatchResult, error) {
	s.calls++
	res, err := s.inner.CollectBatch(reqs, cfg)
	s.once.Do(s.during)
	return res, err
}

// parityDB is a durable movies(movie_id, name) table holding items
// 0..rows-1 of a space one item larger, so that item `rows` can arrive
// late and still be predictable.
func parityDB(t *testing.T, opts Options, rows int) *DB {
	t.Helper()
	db := parityTable(t, opts, rows)
	if err := db.AttachSpace("movies", "movie_id", paritySpace(rows+1, 4)); err != nil {
		t.Fatal(err)
	}
	return db
}

// parityTable is parityDB without the space: the table has no binding and
// the crowd is asked about its physical row IDs. Row i holds movie_id i
// until a compaction renumbers the rows, so the parity fixtures apply to
// it as they are.
func parityTable(t *testing.T, opts Options, rows int) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// insertItem appends a row for item id, NULL in every expanded column the
// table has grown by now.
func insertItem(tbl *storage.Table, id int) error {
	row := make([]storage.Value, tbl.NumCols())
	row[0], row[1] = storage.Int(int64(id)), storage.Text("late")
	return tbl.Insert(row...)
}

// cell is one row of a column read next to its item id.
type cell struct {
	id    int64
	null  bool
	label bool
}

func readColumn(t *testing.T, db *DB, column string) []cell {
	t.Helper()
	tbl, _ := db.Catalog().Get("movies")
	col, ok := tbl.Schema().Lookup(column)
	if !ok {
		t.Fatalf("column %s missing", column)
	}
	var out []cell
	cur := tbl.NewCursor(0)
	cur.SetCols([]int{0, col})
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		b, isBool := row[1].AsBool()
		out = append(out, cell{id: id, null: !isBool, label: b})
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkParity asserts that the column's non-NULL labels are (nearly all)
// the parity of the item in their own row, that the deleted item is gone
// and that the late item's cell is what the strategy should leave there.
func checkParity(t *testing.T, cells []cell, rows, deleted, late int, lateLabelled bool) {
	t.Helper()
	if len(cells) != rows {
		t.Fatalf("%d live rows, want %d", len(cells), rows)
	}
	right, labelled := 0, 0
	sawLate := false
	for _, c := range cells {
		if c.id == int64(deleted) {
			t.Fatalf("deleted item %d still has a row", deleted)
		}
		if c.id == int64(late) {
			sawLate = true
			if c.null == lateLabelled {
				t.Fatalf("late item %d: NULL=%v, want labelled=%v", late, c.null, lateLabelled)
			}
		}
		if !c.null {
			labelled++
			if c.label == (c.id%2 == 0) {
				right++
			}
		}
	}
	if !sawLate {
		t.Fatalf("late item %d has no row", late)
	}
	if labelled < rows*8/10 || right < labelled*95/100 {
		t.Fatalf("%d of %d rows labelled, %d with their own item's parity: the labels are out of step with the rows", labelled, rows, right)
	}
}

// The money invariant of the expansion path: rows that come and go while
// the crowd deliberates must not fail the fill (the judgments are already
// paid for) and must not shift it (every label lands in its item's row).
func TestRowsChangingDuringCrowdWaitDoNotLoseTheCharge(t *testing.T) {
	const rows, deleted = 120, 3
	late := rows // the one item of the space that has no row yet
	for _, tc := range []struct {
		name         string
		method       sqlparse.ExpandMethod
		columns      []string // more than one: expanded together, in one batch
		lateLabelled bool
		unbound      bool // no space attached: the item ids are physical row IDs
	}{
		{"space", sqlparse.ExpandSpace, []string{"even"}, true, false},
		{"crowd", sqlparse.ExpandCrowd, []string{"even"}, false, false},
		{"batch", sqlparse.ExpandSpace, []string{"even", "even_too"}, true, false},
		{"crowd-unbound", sqlparse.ExpandCrowd, []string{"even"}, false, true},
		{"batch-unbound", sqlparse.ExpandCrowd, []string{"even", "even_too"}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc := &churnService{inner: parityCrowd(7, rows+1)}
			opts := Options{Service: svc, DataDir: dir}
			if len(tc.columns) > 1 {
				opts.BatchWindow = 200 * time.Millisecond
			}
			build := parityDB
			if tc.unbound {
				build = parityTable
			}
			db := build(t, opts, rows)
			liveAtFill := 0
			svc.during = func() {
				tbl, _ := db.Catalog().Get("movies")
				if err := insertItem(tbl, late); err != nil {
					t.Error(err)
				}
				if _, _, err := db.ExecSQL(fmt.Sprintf(`DELETE FROM movies WHERE movie_id = %d`, deleted)); err != nil {
					t.Error(err)
				}
				liveAtFill = tbl.NumRows()
				// A compaction now renumbers every row behind the deleted
				// one. Labels by id column do not care; labels by physical
				// row ID would all land one row off, so the compactor has to
				// be kept out until they are written.
				got := db.CompactNow()["movies"]
				if tc.unbound && got.Skipped != storage.CompactSkipFenced {
					t.Errorf("compaction during the crowd wait of an unbound table: %+v, want it skipped for %s", got, storage.CompactSkipFenced)
				}
				if !tc.unbound && !got.Compacted {
					t.Errorf("compaction during the crowd wait of a bound table: %+v, want it admitted", got)
				}
			}
			expand := ExpandOptions{Method: tc.method, SamplesPerClass: 10}
			var reports []*ExpansionReport
			if len(tc.columns) == 1 {
				db.RegisterExpandable("movies", tc.columns[0], storage.KindBool, expand)
				_, rep, err := db.ExecSQL(fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, tc.columns[0]))
				if err != nil {
					t.Fatalf("expansion failed after the crowd was paid: %v (ledger %+v)", err, db.Ledger())
				}
				reports = append(reports, rep)
			} else {
				var handles []*jobs.Job
				for _, c := range tc.columns {
					job, err := db.SubmitExpand("movies", c, storage.KindBool, expand)
					if err != nil {
						t.Fatal(err)
					}
					handles = append(handles, job)
				}
				for _, h := range handles {
					res, err := h.Wait(context.Background())
					if err != nil {
						t.Fatalf("batched expansion failed after the crowd was paid: %v (ledger %+v)", err, db.Ledger())
					}
					reports = append(reports, res.(*ExpansionReport))
				}
			}
			if svc.calls != 1 {
				t.Fatalf("%d crowd calls, want the one (shared) job", svc.calls)
			}
			paid := db.Ledger()
			if paid.Jobs != 1 || paid.Judgments == 0 {
				t.Fatalf("ledger %+v, want exactly one charge", paid)
			}
			for _, rep := range reports {
				if rep == nil || rep.Filled+rep.Unfilled != liveAtFill || liveAtFill != rows {
					t.Fatalf("report %+v does not cover the %d rows live at fill time", rep, liveAtFill)
				}
				if rep.Steps.Plan <= 0 || rep.Steps.Collect <= 0 || rep.Steps.Vote <= 0 || rep.Steps.Fill <= 0 ||
					(tc.method == sqlparse.ExpandSpace) != (rep.Steps.Train > 0 && rep.Steps.Predict > 0) {
					t.Fatalf("step durations %+v for %s", rep.Steps, tc.method)
				}
			}
			before := map[string][]cell{}
			for _, c := range tc.columns {
				before[c] = readColumn(t, db, c)
				checkParity(t, before[c], rows, deleted, late, tc.lateLabelled)
				// The column is filled: asking again buys nothing.
				if _, rep, err := db.ExecSQL(fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, c)); err != nil || rep != nil {
					t.Fatalf("second query: report %+v, err %v", rep, err)
				}
			}
			if again := db.Ledger(); again != paid || svc.calls != 1 {
				t.Fatalf("second query bought judgments: ledger %+v → %+v, %d crowd calls", paid, again, svc.calls)
			}
			if got := db.CompactNow()["movies"]; tc.unbound && !got.Compacted {
				t.Fatalf("compaction after the expansion: %+v, want the deleted row reclaimed", got)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			dead := &deadService{}
			db2, err := Open(Options{Service: dead, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for _, c := range tc.columns {
				after := readColumn(t, db2, c)
				if len(after) != len(before[c]) {
					t.Fatalf("%s: %d rows after restart, %d before", c, len(after), len(before[c]))
				}
				for i := range after {
					if after[i] != before[c][i] {
						t.Fatalf("%s row %d: %+v before restart, %+v after", c, i, before[c][i], after[i])
					}
				}
			}
			if got := db2.Ledger(); got != paid || dead.calls != 0 {
				t.Fatalf("restart changed the ledger: %+v → %+v (%d crowd calls)", paid, got, dead.calls)
			}
		})
	}
}

// flakyService is a crowd that can be told to fail.
type flakyService struct {
	inner *SimulatedCrowd
	fail  bool
}

func (s *flakyService) Collect(q string, ids []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
	if s.fail {
		return nil, fmt.Errorf("flakyService: the crowd is gone")
	}
	return s.inner.Collect(q, ids, cfg)
}

func (s *flakyService) CollectBatch(reqs []BatchRequest, cfg crowd.JobConfig) (*crowd.BatchResult, error) {
	if s.fail {
		return nil, fmt.Errorf("flakyService: the crowd is gone")
	}
	return s.inner.CollectBatch(reqs, cfg)
}

// An expansion of a table without a binding holds a write fence while its
// row IDs are in the crowd's hands, and only then: whichever way it ends —
// filled, failed at the crowd, rejected by the budget, or never run at all
// because it was a price check — the table is free to compact afterwards.
func TestUnboundTableIsFreeToCompactAfterEveryExpansionOutcome(t *testing.T) {
	const rows = 60
	for _, window := range []time.Duration{0, 50 * time.Millisecond} { // batches of one, and shared batches
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			svc := &flakyService{inner: parityCrowd(5, rows)}
			db := parityTable(t, Options{Service: svc, BatchWindow: window}, rows)
			defer db.Close()
			doomed := 0
			freeToCompact := func(after string) {
				t.Helper()
				// Compact looks at its fences only when there is a tombstone.
				if _, _, err := db.ExecSQL(fmt.Sprintf(`DELETE FROM movies WHERE movie_id = %d`, doomed)); err != nil {
					t.Fatal(err)
				}
				doomed++
				if got := db.CompactNow()["movies"]; !got.Compacted {
					t.Fatalf("compaction after %s: %+v", after, got)
				}
			}
			// submit expands columns together and waits for all of them.
			submit := func(opts ExpandOptions, columns ...string) error {
				t.Helper()
				var handles []*jobs.Job
				for _, c := range columns {
					job, err := db.SubmitExpand("movies", c, storage.KindBool, opts)
					if err != nil {
						return err
					}
					handles = append(handles, job)
				}
				var failed error
				for _, h := range handles {
					if _, err := h.Wait(context.Background()); err != nil {
						failed = err
					}
				}
				return failed
			}
			crowdOpts := ExpandOptions{Method: sqlparse.ExpandCrowd, APIKey: "alice"}

			if err := db.preflight("movies", "a", crowdOpts); err != nil {
				t.Fatalf("an uncapped key fails the pre-flight: %v", err)
			}
			freeToCompact("a pre-flight")

			if err := submit(crowdOpts, "a", "b"); err != nil {
				t.Fatal(err)
			}
			freeToCompact("two filled columns")

			svc.fail = true
			if err := submit(crowdOpts, "c", "d"); err == nil {
				t.Fatal("expansion succeeded without a crowd")
			}
			svc.fail = false
			freeToCompact("a failed crowd job")

			// Past the pre-flight of SubmitExpand, the job's own reservation
			// is what rejects.
			if err := db.SetBudget("bob", 0.001); err != nil {
				t.Fatal(err)
			}
			bobOpts := crowdOpts
			bobOpts.APIKey = "bob"
			var handles []*jobs.Job
			for _, c := range []string{"e", "f"} {
				job, _, err := db.submitExpansion("movies", c, storage.KindBool, bobOpts, false)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, job)
			}
			for _, h := range handles {
				if _, err := h.Wait(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("job over its cap: %v, want %v", err, ErrBudgetExceeded)
				}
			}
			freeToCompact("a budget rejection inside the job")

			if _, err := db.SubmitExpand("movies", "g", storage.KindBool, bobOpts); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("submission over its cap: %v, want %v", err, ErrBudgetExceeded)
			}
			freeToCompact("a budget rejection at submission")
		})
	}
}

// GoldFill has no crowd wait but the same gap between reading the rows
// and applying the column; it runs here beside a goroutine that inserts.
func TestGoldFillBesideInserts(t *testing.T) {
	const rows, extra = 200, 400
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text("m")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AttachSpace("movies", "movie_id", paritySpace(rows+extra, 4)); err != nil {
		t.Fatal(err)
	}
	// The column exists before the inserter starts, so that the width of
	// the rows it appends is not itself a race with the test.
	if _, err := tbl.AddColumn(storage.Column{Name: "humor", Kind: storage.KindFloat, Perceptual: true, Origin: storage.ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	gold := make([]GoldValue, 40)
	for i := range gold {
		gold[i] = GoldValue{ItemID: i, Value: float64(i%2) * 10} // odd items score 10, even ones 0
	}

	stop, done := make(chan struct{}), make(chan int)
	go func() {
		n := rows
		defer func() { done <- n }()
		for ; n < rows+extra; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := insertItem(tbl, n); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	report, err := db.GoldFill("movies", "humor", gold)
	close(stop)
	final := <-done
	if err != nil {
		t.Fatalf("GoldFill beside inserts: %v", err)
	}
	covered := report.Filled + report.Unfilled
	if covered < rows || covered > final || report.Unfilled != 0 {
		t.Fatalf("report %+v covers %d rows; the table had %d before and %d after", report, covered, rows, final)
	}
	// Inserts only append: the rows the fill saw are the first `covered`.
	col, _ := tbl.Schema().Lookup("humor")
	cur := tbl.NewCursor(0)
	cur.SetCols([]int{0, col})
	for k := 0; ; k++ {
		row, ok := cur.Next()
		if !ok {
			if k != final {
				t.Fatalf("read %d rows of %d", k, final)
			}
			break
		}
		id, _ := row[0].AsInt()
		score, filled := row[1].AsFloat()
		if filled != (k < covered) {
			t.Fatalf("row %d of %d covered: filled=%v", k, covered, filled)
		}
		if filled && (score > 5) != (id%2 == 1) {
			t.Fatalf("row %d holds item %d's neighbour's score %g", k, id, score)
		}
	}
}

// A fill_column record must survive what the log can do to it: the cells
// it carried come back exactly, over tombstones logged after it, with no
// snapshot pin left behind by replay; and a record torn by a crash leaves
// the prefix before it — the column added, charged for, and still empty.
func TestFillColumnRecordRoundTripAndTornFrame(t *testing.T) {
	const rows = 60
	dir := t.TempDir()
	db := parityDB(t, Options{Service: parityCrowd(3, rows+1), DataDir: dir}, rows)
	if _, err := db.Expand("movies", "even", storage.KindBool, ExpandOptions{Method: sqlparse.ExpandCrowd}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`DELETE FROM movies WHERE movie_id < 7`); err != nil {
		t.Fatal(err)
	}
	// The last record of the log: a second fill, over the tombstones.
	if _, err := db.Expand("movies", "even_too", storage.KindBool, ExpandOptions{Method: sqlparse.ExpandSpace, SamplesPerClass: 10}); err != nil {
		t.Fatal(err)
	}
	want := map[string][]cell{"even": readColumn(t, db, "even"), "even_too": readColumn(t, db, "even_too")}
	paid := db.Ledger()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() *DB {
		t.Helper()
		db, err := Open(Options{Service: &deadService{}, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db = reopen()
	tbl, _ := db.Catalog().Get("movies")
	if pins := tbl.LiveSnapshotEpochs(); len(pins) != 0 {
		t.Fatalf("replay left snapshots pinned: %v", pins)
	}
	for col, cells := range want {
		got := readColumn(t, db, col)
		if len(got) != rows-7 || len(got) != len(cells) {
			t.Fatalf("%s: %d rows after restart, want %d", col, len(got), len(cells))
		}
		for i := range got {
			if got[i] != cells[i] {
				t.Fatalf("%s row %d: %+v before restart, %+v after", col, i, cells[i], got[i])
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame — even_too's fill_column — as a crash mid-write would.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	db = reopen()
	defer db.Close()
	if got := readColumn(t, db, "even"); len(got) != rows-7 || got[0] != want["even"][0] {
		t.Fatalf("the column before the torn record did not survive: %d rows", len(got))
	}
	for _, c := range readColumn(t, db, "even_too") {
		if !c.null {
			t.Fatalf("a torn fill_column record was applied: %+v", c)
		}
	}
	if got := db.Ledger(); got != paid {
		t.Fatalf("ledger %+v after the torn tail, %+v before", got, paid)
	}
}

// cannedService answers from one judgment log computed up front — five
// correct judgments an item — so that a measurement around an expansion
// sees the database's allocations and not the crowd simulator's.
type cannedService struct{ res *crowd.RunResult }

func (s *cannedService) Collect(_ string, ids []int, _ crowd.JobConfig) (*crowd.RunResult, error) {
	if s.res == nil {
		s.res = &crowd.RunResult{TotalCost: 1, DurationMinutes: 1}
		for _, id := range ids {
			answer := crowd.Negative
			if id%2 == 0 {
				answer = crowd.Positive
			}
			for w := 0; w < 5; w++ {
				s.res.Records = append(s.res.Records, crowd.Record{WorkerID: w, ItemID: id, Answer: answer})
			}
		}
	}
	return s.res, nil
}

// One SPACE expansion of a new column costs the same whatever the width of
// the table: it adds the column, reads the id column and writes the new
// one. Adding the column extends the schema's shared column list and name
// index in place and copies one page of column headers; the fill copies
// one page again.
func TestSpaceExpansionAllocationIsWidthIndependent(t *testing.T) {
	const rows = 4000
	// ceiling bounds one expansion of 4 000 rows in a 16-d space without
	// the crowd simulator: the model's support vectors (≈20 KB), two 4 KB
	// label vectors, the vote's two maps, the 160 sampled ids, the
	// add_column and fill_column records and a page of column headers for
	// each — 32–34 KB measured. The Gram matrix and working vectors (≈110
	// KB for 160 samples) are the warm-up expansion's and reused; the plan
	// and the fill stream the ids. A list of the table's ids (rows × 8 B =
	// 32 KB), a fresh Gram matrix, or a boxed or row-at-a-time step
	// anywhere in the path (rows × 40 B = 160 KB) breaks it.
	const ceiling = 64 << 10
	sp := paritySpace(rows, 16)
	measure := func(width int) uint64 {
		svc := &cannedService{}
		db, err := Open(Options{Service: svc, DataDir: t.TempDir(), ExecWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Catalog().Get("movies")
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Text("m"), storage.Int(2000)); err != nil {
				t.Fatal(err)
			}
		}
		filled := make([]storage.Value, rows)
		for i := range filled {
			filled[i] = storage.Bool(i%3 == 0)
		}
		for c := 3; c < width; c++ {
			name := fmt.Sprintf("x%03d", c)
			if _, err := tbl.AddColumn(storage.Column{Name: name, Kind: storage.KindBool, Origin: storage.ColumnExpanded}); err != nil {
				t.Fatal(err)
			}
			if c%2 == 0 { // the other half stays nil chunks: expansions nobody filled yet
				if err := tbl.FillColumn(name, filled); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.AttachSpace("movies", "movie_id", sp); err != nil {
			t.Fatal(err)
		}
		opts := ExpandOptions{Method: sqlparse.ExpandSpace}
		if _, err := db.Expand("movies", "warm", storage.KindBool, opts); err != nil { // primes the canned log
			t.Fatal(err)
		}
		// The least of three expansions, each of a new column: the WAL's
		// and the scheduler's goroutines allocate now and then beside it.
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			column := fmt.Sprintf("even%d", i)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := db.Expand("movies", column, storage.KindBool, opts)
			runtime.ReadMemStats(&after)
			if err != nil || rep.Filled != rows {
				t.Fatalf("width %d: report %+v, err %v", width, rep, err)
			}
			if !db.columnFilled("movies", column) || (width > 5 && (db.columnFilled("movies", "x005") || !db.columnFilled("movies", "x004"))) {
				t.Fatalf("width %d: columnFilled misreports", width)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const narrowCols, wideCols = 3, 200
	narrow, wide := measure(narrowCols), measure(wideCols)
	t.Logf("one SPACE expansion of %d rows: %d B at %d columns, %d B at %d", rows, narrow, narrowCols, wide, wideCols)
	if narrow > ceiling || wide > ceiling {
		t.Fatalf("expansion allocated %d B (%d columns) and %d B (%d columns), ceiling %d", narrow, narrowCols, wide, wideCols, ceiling)
	}
	// Nothing grows with the width but the page directories the two
	// commits copy, 24 B a page of 32 columns: the two tables may differ
	// by no more than 1 KiB.
	if diff := int64(wide) - int64(narrow); diff > 1<<10 || diff < -1<<10 {
		t.Fatalf("expansion allocated %d B at %d columns and %d B at %d: it depends on the table's width", narrow, narrowCols, wide, wideCols)
	}
}

// The database keeps at most one idle Trainer per expansion worker, keeps
// none whose working memory outgrew trainerKeepBytes, and a model fitted
// in a shared Trainer — whichever, after whatever — is the model
// svm.TrainSVC fits.
func TestTrainersAreSharedBoundedAndForgetful(t *testing.T) {
	const workers, callers = 2, 8
	db, err := Open(Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sp := paritySpace(800, 4)
	sample := func(n, stride int) (X [][]float64, y []bool) {
		for i := 0; i < n; i++ {
			X, y = append(X, sp.Vector(i*stride)), append(y, (i*stride)%2 == 0)
		}
		return X, y
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				X, y := sample(40+10*c, 1+2*round) // odd strides: both parities
				cfg := svm.SVCConfig{C: 2, Seed: int64(c + 1)}
				want, err := svm.TrainSVC(X, y, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := db.trainSVC(X, y, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got.NumSupport() != want.NumSupport() || !slices.Equal(got.PredictAll(X), want.PredictAll(X)) || got.Decision(X[0]) != want.Decision(X[0]) {
					t.Errorf("caller %d round %d: the shared Trainer fitted another model", c, round)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(db.trainers); n == 0 || n > workers {
		t.Fatalf("%d idle trainers after %d concurrent callers, want 1..%d", n, callers, workers)
	}
	// 600 samples: a 1.4 MB Gram matrix, over the bound.
	X, y := sample(600, 1)
	db.trainers = db.trainers[:0]
	if _, err := db.trainSVC(X, y, svm.SVCConfig{C: 2}); err != nil {
		t.Fatal(err)
	}
	if len(db.trainers) != 0 {
		t.Fatalf("a Trainer holding %d B was kept (bound %d)", db.trainers[0].Footprint(), trainerKeepBytes)
	}
}
