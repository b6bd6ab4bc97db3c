// Workload subsystem acceptance tests (DESIGN.md §13): speculative
// pre-expansion merging into the demand HIT group's single charge, the
// speculative budget cap, semantic-result-cache invalidation across every
// mutation class, restart semantics (durable counters, cold cache), and
// the cached-read speedup bar.
package crowddb_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowddb"
	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/storage"
)

// speculativeDB is batchBenchDB plus a speculative budget: one table,
// four registered CROWD-method expandable columns, batching window open.
func speculativeDB(tb testing.TB, seed int64, window time.Duration, specBudget float64) *crowddb.DB {
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
		Service:           crowddb.NewSimulatedCrowd(pop, items, rng),
		BatchWindow:       window,
		SpeculativeBudget: specBudget,
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

// teachComedyThenDrama warms the co-access model with the exploratory
// pattern the predictor exists for: whoever queries comedy queries drama
// a query later.
func teachComedyThenDrama(db *crowddb.DB, rounds int) {
	for i := 0; i < rounds; i++ {
		db.RecordObservation(crowddb.WorkloadObservation{
			Table: "movies", Columns: []string{"comedy"}, Kind: crowddb.WorkloadAccess})
		db.RecordObservation(crowddb.WorkloadObservation{
			Table: "movies", Columns: []string{"drama"}, Kind: crowddb.WorkloadAccess})
	}
}

// waitAllJobs waits for every expansion job the DB has ever admitted.
func waitAllJobs(tb testing.TB, db *crowddb.DB) {
	tb.Helper()
	for _, st := range db.Jobs() {
		job, ok := db.JobHandle(st.ID)
		if !ok {
			continue
		}
		if _, err := job.Wait(context.Background()); err != nil {
			tb.Fatalf("job %s (%s): %v", st.ID, st.Origin, err)
		}
	}
}

// TestSpeculativePreExpansionSharesOneCharge is the tentpole's ledger
// acceptance bar: after the model has seen "comedy then drama", a demand
// expansion of comedy must carry a speculative expansion of drama inside
// the SAME batch window, so the marketplace is engaged (and charged)
// exactly once for both columns.
func TestSpeculativePreExpansionSharesOneCharge(t *testing.T) {
	const cap = 2.0
	db := speculativeDB(t, 42, 30*time.Millisecond, cap)
	teachComedyThenDrama(db, 4)

	job, err := db.Do(context.Background(), new(crowddb.RowStream), crowddb.Request{SQL: `SELECT name FROM movies WHERE comedy = true`, Mode: crowddb.ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	if job == nil {
		t.Fatal("comedy query did not trigger an expansion")
	}
	waitAllJobs(t, db)

	// One combined HIT-group charge for demand + speculative.
	if led := db.Ledger(); led.Jobs != 1 {
		t.Fatalf("marketplace charged %d times, want 1 combined charge (ledger %+v)", led.Jobs, led)
	}

	// Both jobs exist, correctly origin-tagged.
	origins := map[string]int{}
	for _, st := range db.Jobs() {
		origins[st.Origin]++
	}
	if origins[core.OriginDemand] != 1 || origins[core.OriginSpeculative] != 1 {
		t.Fatalf("job origins = %v, want one demand + one speculative", origins)
	}

	// The speculative column is already filled: querying drama now must
	// answer immediately, with no further expansion or charge.
	res, _, err := db.ExecSQL(`SELECT name FROM movies WHERE drama = true`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("speculatively expanded drama returned no rows")
	}
	if led := db.Ledger(); led.Jobs != 1 {
		t.Fatalf("drama query re-engaged the crowd: %d charges", led.Jobs)
	}

	// Speculative spend is accounted under its own key and within cap.
	b, ok := db.Budget(core.SpeculativeBudgetKey)
	if !ok {
		t.Fatal("no speculative budget account")
	}
	if b.Spent <= 0 || b.Spent > cap {
		t.Fatalf("speculative spend $%.4f outside (0, %.2f]", b.Spent, cap)
	}
}

// TestSpeculationRespectsBudgetAndNeverBlocksDemand: with a cap too small
// for even one speculative run, the predictor must stand down entirely —
// the demand expansion still completes, nothing is spent under the
// speculative key, and no speculative job is ever admitted.
func TestSpeculationRespectsBudgetAndNeverBlocksDemand(t *testing.T) {
	db := speculativeDB(t, 43, 30*time.Millisecond, 0.01) // projected cost per column ≈ $0.40
	teachComedyThenDrama(db, 4)

	res, _, err := db.ExecSQL(`SELECT name FROM movies WHERE comedy = true`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("demand expansion returned no rows")
	}
	waitAllJobs(t, db)

	for _, st := range db.Jobs() {
		if st.Origin == core.OriginSpeculative {
			t.Fatalf("speculative job %s admitted despite a $0.01 cap", st.ID)
		}
	}
	if b, ok := db.Budget(core.SpeculativeBudgetKey); ok && b.Spent != 0 {
		t.Fatalf("speculative key spent $%.4f under a cap it cannot afford", b.Spent)
	}
	// Drama was not pre-expanded: the column must still be virtual.
	tbl, _ := db.Catalog().Get("movies")
	if _, exists := tbl.Schema().Lookup("drama"); exists {
		t.Fatal("drama was expanded despite the unaffordable cap")
	}
}

// TestCacheHitMutateMiss walks the result cache through every mutation
// class that must invalidate an entry keyed on its SQL text — INSERT,
// FillColumn, CREATE INDEX, DROP INDEX, UPDATE, DELETE, a forced
// compaction, an EXPAND that adds a column, and DROP TABLE followed by a
// CREATE TABLE of the same name and another schema — asserting hit →
// mutate → miss with live data each time, and that every cached read is
// exactly one hit or exactly one miss, never both.
func TestCacheHitMutateMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 40}, rng)
	items := func(string) ([]crowd.Item, error) {
		out := make([]crowd.Item, 16)
		for i := range out {
			out[i] = crowd.Item{ID: i, Truth: i%2 == 0, Popularity: 1}
		}
		return out, nil
	}
	db, err := crowddb.Open(crowddb.Options{Service: crowddb.NewSimulatedCrowd(pop, items, rng)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	mustExec := func(sql string) *crowddb.Result {
		t.Helper()
		res, _, err := db.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	// read runs a cached SELECT that must be one hit (hit) or one miss.
	read := func(sql string, hit bool) *crowddb.Result {
		t.Helper()
		before := db.CacheStats()
		res := mustExec(sql)
		after := db.CacheStats()
		if hit && (after.Hits != before.Hits+1 || after.Misses != before.Misses) ||
			!hit && (after.Hits != before.Hits || after.Misses != before.Misses+1) {
			t.Fatalf("%s (hit=%v): cache hits/misses went %d/%d → %d/%d", sql, hit, before.Hits, before.Misses, after.Hits, after.Misses)
		}
		return res
	}
	mustExec(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`)
	mustExec(`INSERT INTO movies VALUES (1, 'alpha', 2000), (2, 'beta', 2001), (3, 'gamma', 2002)`)

	const q = `SELECT name, year FROM movies ORDER BY year`
	if res := read(q, false); len(res.Rows) != 3 { // cold: miss, fills
		t.Fatalf("cold read: %d rows, want 3", len(res.Rows))
	}
	if res := read(q, true); len(res.Rows) != 3 { // warm: hit
		t.Fatalf("warm read: %d rows, want 3", len(res.Rows))
	}
	if st := db.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d after a cold and a warm read, want 1/1", st.Hits, st.Misses)
	}

	// INSERT invalidates.
	mustExec(`INSERT INTO movies VALUES (4, 'delta', 1999)`)
	if res := read(q, false); len(res.Rows) != 4 {
		t.Fatalf("post-insert read served %d rows — a stale cache entry", len(res.Rows))
	}

	// FillColumn (the crowd-fill storage primitive) invalidates.
	tbl, _ := db.Catalog().Get("movies")
	years := []storage.Value{storage.Int(1990), storage.Int(1991), storage.Int(1992), storage.Int(1993)}
	read(q, true) // warm again
	if err := tbl.FillColumn("year", years); err != nil {
		t.Fatal(err)
	}
	if res := read(q, false); res.Rows[0][1] != storage.Int(1990) {
		t.Fatalf("post-fill read served year %v — a stale cache entry", res.Rows[0][1])
	}

	// CREATE INDEX and DROP INDEX both invalidate (plan shape may
	// change), counted at the DDL.
	read(q, true) // warm
	before := db.CacheStats()
	mustExec(`CREATE INDEX by_year ON movies (year)`)
	if got := db.CacheStats(); got.Invalidations != before.Invalidations+1 {
		t.Fatalf("CREATE INDEX left the entry alive: %+v -> %+v", before, got)
	}
	read(q, false)
	read(q, true) // warm again
	before = db.CacheStats()
	mustExec(`DROP INDEX by_year ON movies`)
	if res := read(q, false); len(res.Rows) != 4 {
		t.Fatalf("post-drop read served %d rows", len(res.Rows))
	}
	if got := db.CacheStats(); got.Invalidations != before.Invalidations+1 {
		t.Fatalf("read after DROP INDEX was served stale: %+v -> %+v", before, got)
	}

	// UPDATE and DELETE invalidate; a forced compaction, which drops the
	// deleted row and keeps the live ones in order, changes no answer.
	read(q, true)
	mustExec(`UPDATE movies SET name = 'omega' WHERE movie_id = 1`)
	if res := read(q, false); res.Rows[0][0] != storage.Text("omega") {
		t.Fatalf("post-update read served %v — a stale cache entry", res.Rows)
	}
	read(q, true)
	mustExec(`DELETE FROM movies WHERE movie_id = 2`)
	if res := read(q, false); len(res.Rows) != 3 {
		t.Fatalf("post-delete read served %d rows — a stale cache entry", len(res.Rows))
	}
	read(q, true)
	if compacted := db.CompactNow()["movies"]; compacted.RowsReclaimed != 1 {
		t.Fatalf("CompactNow reclaimed %+v, want the deleted row", compacted)
	}
	if res := read(q, true); len(res.Rows) != 3 {
		t.Fatalf("post-compaction read served %d rows", len(res.Rows))
	}

	// An EXPAND adds a column: SELECT * grows by it.
	const star = `SELECT * FROM movies`
	read(star, false)
	if res := read(star, true); len(res.Columns) != 3 {
		t.Fatalf("SELECT * answers columns %v before the expansion", res.Columns)
	}
	mustExec(`EXPAND TABLE movies ADD COLUMN comedy BOOLEAN USING CROWD`)
	if res := read(star, false); len(res.Columns) != 4 || res.Columns[3] != "comedy" || len(res.Rows) != 3 || len(res.Rows[0]) != 4 {
		t.Fatalf("post-expand SELECT * answers columns %v and %d rows — a stale cache entry", res.Columns, len(res.Rows))
	}
	// So does the add-column step alone, an expansion whose fill never came.
	read(star, true)
	if _, err := tbl.AddColumn(storage.Column{Name: "drama", Kind: storage.KindBool}); err != nil {
		t.Fatal(err)
	}
	if res := read(star, false); len(res.Columns) != 5 || res.Rows[0][4] != storage.Null() {
		t.Fatalf("post-add-column SELECT * answers columns %v — a stale cache entry", res.Columns)
	}

	// DROP TABLE, then a CREATE TABLE of the same name with another schema.
	read(star, true)
	mustExec(`DROP TABLE movies`)
	mustExec(`CREATE TABLE movies (title TEXT, rating FLOAT)`)
	if res := read(star, false); !reflect.DeepEqual(res.Columns, []string{"title", "rating"}) || len(res.Rows) != 0 {
		t.Fatalf("SELECT * over the re-created table answers columns %v and %d rows — a stale cache entry", res.Columns, len(res.Rows))
	}
	read(star, true)

	// The nocache escape hatch bypasses without disturbing entries.
	hits := db.CacheStats().Hits
	if _, _, err := db.ExecSQLNoCache(star); err != nil {
		t.Fatal(err)
	}
	if got := db.CacheStats().Hits; got != hits {
		t.Fatalf("ExecSQLNoCache touched the cache (hits %d -> %d)", hits, got)
	}
}

// TestWorkloadSurvivesRestartCacheCold: workload counters are durable
// (snapshot + typed WAL records), the dropped index stays dropped, and
// the result cache restarts cold — recovered state must never serve a
// stale cached row.
func TestWorkloadSurvivesRestartCacheCold(t *testing.T) {
	dir := t.TempDir()
	db, err := crowddb.Open(crowddb.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(sql string) {
		t.Helper()
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`)
	exec(`INSERT INTO movies VALUES (1, 'alpha', 2000), (2, 'beta', 2001)`)
	exec(`CREATE INDEX by_year ON movies (year) USING HASH`)
	exec(`SELECT name FROM movies WHERE year = 2000`)
	exec(`SELECT name FROM movies WHERE year = 2000`) // cache hit
	if st := db.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hit before restart: %+v", st)
	}
	// Snapshot mid-stream so recovery exercises snapshot restore AND WAL
	// replay of post-snapshot workload_obs / drop_index records.
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	exec(`DROP INDEX by_year ON movies`)
	exec(`SELECT name FROM movies WHERE year = 2001`)
	exec(`INSERT INTO movies VALUES (3, 'gamma', 2002)`)
	wantQueries := db.Workload().Counters.TotalQueries
	if wantQueries == 0 {
		t.Fatal("tracker recorded no queries")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = crowddb.Open(crowddb.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })

	if idx := db.TableIndexes("movies"); len(idx) != 0 {
		t.Fatalf("dropped index resurrected on recovery: %+v", idx)
	}
	if got := db.Workload().Counters.TotalQueries; got != wantQueries {
		t.Fatalf("recovered TotalQueries = %d, want %d", got, wantQueries)
	}
	if st := db.CacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("cache not cold after restart: %+v", st)
	}
	res, _, err := db.ExecSQL(`SELECT name FROM movies ORDER BY year`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("recovered read returned %d rows, want 3", len(res.Rows))
	}
	if st := db.CacheStats(); st.Misses != 1 {
		t.Fatalf("first post-restart read was not a cache miss: %+v", st)
	}
}

// TestConcurrentCacheReadsDuringCrowdFill races cached and uncached reads
// against an in-flight crowd expansion that mutates the table (AddColumn
// + FillColumn). Run under -race in the nightly sweep; correctness bar
// here: no errors, and the post-fill read sees the expanded column.
func TestConcurrentCacheReadsDuringCrowdFill(t *testing.T) {
	db := speculativeDB(t, 44, 10*time.Millisecond, 0)

	job, err := db.Do(context.Background(), new(crowddb.RowStream), crowddb.Request{SQL: `SELECT name FROM movies WHERE comedy = true`, Mode: crowddb.ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	if job == nil {
		t.Fatal("no expansion job")
	}

	var wg sync.WaitGroup
	var reads atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if g%2 == 0 {
					_, _, err = db.ExecSQL(`SELECT name FROM movies ORDER BY name LIMIT 5`)
				} else {
					_, _, err = db.ExecSQLNoCache(`SELECT name FROM movies ORDER BY name LIMIT 5`)
				}
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reads completed during the fill")
	}
	res, _, err := db.ExecSQL(`SELECT name FROM movies WHERE comedy = true`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expanded column returned no rows after the fill")
	}
}

// TestTextHitsRaceWritesAndDDL races readers served from the cache by
// their SQL text against a writer that inserts, moves a row into and out
// of the point id = 2500 with UPDATEs of id, creates and drops an index,
// and drops the table to re-create it with one column more or one fewer.
// Two of the texts read only the point, so writes elsewhere spare their
// entries. Run under -race in the nightly sweep. A reader's answer must be
// one some version of the table could have given — v = 2·id and w = 3·id
// on every row, ids ascending, only id = 2500 for the point — or, while
// the table is gone, a missing table; and after every step the writer's
// own read of each text must be what the statement answers with the cache
// bypassed, columns included.
func TestTextHitsRaceWritesAndDDL(t *testing.T) {
	db := crowddb.New(nil)
	t.Cleanup(func() { _ = db.Close() })
	const (
		q         = `SELECT id, v FROM churn ORDER BY id`
		star      = `SELECT * FROM churn ORDER BY id`
		k         = 2500
		point     = `SELECT id, v FROM churn WHERE id = 2500`
		starPoint = `SELECT * FROM churn WHERE 2500 = id`
	)
	texts := []string{q, star, point, starPoint}
	wide := false // the writer's view of the schema: (id, v) or (id, v, w)
	insert := func(id int) string {
		if wide {
			return fmt.Sprintf(`INSERT INTO churn VALUES (%d, %d, %d)`, id, 2*id, 3*id)
		}
		return fmt.Sprintf(`INSERT INTO churn VALUES (%d, %d)`, id, 2*id)
	}
	// move renumbers the rows of id from to id to.
	move := func(from, to int) string {
		if wide {
			return fmt.Sprintf(`UPDATE churn SET id = %d, v = %d, w = %d WHERE id = %d`, to, 2*to, 3*to, from)
		}
		return fmt.Sprintf(`UPDATE churn SET id = %d, v = %d WHERE id = %d`, to, 2*to, from)
	}
	create := func() error {
		schema := `CREATE TABLE churn (id INTEGER, v INTEGER)`
		if wide {
			schema = `CREATE TABLE churn (id INTEGER, v INTEGER, w INTEGER)`
		}
		if _, _, err := db.ExecSQL(schema); err != nil {
			return err
		}
		for id := 0; id < 40; id++ {
			if _, _, err := db.ExecSQL(insert(id)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := create(); err != nil {
		t.Fatal(err)
	}
	// plausible reports whether res is an answer some version of churn
	// gives to sql.
	plausible := func(sql string, res *crowddb.Result) bool {
		if len(res.Columns) < 2 || res.Columns[0] != "id" || res.Columns[1] != "v" {
			return false
		}
		last := int64(-1)
		for _, row := range res.Rows {
			id, _ := row[0].AsInt()
			v, _ := row[1].AsInt()
			if len(row) != len(res.Columns) || id <= last || v != 2*id {
				return false
			}
			if (sql == point || sql == starPoint) && id != k {
				return false
			}
			if len(row) == 3 {
				if w, _ := row[2].AsInt(); w != 3*id {
					return false
				}
			}
			last = id
		}
		return true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := texts[(r+i)%len(texts)]
				res, _, err := db.ExecSQL(sql)
				if err != nil {
					if !strings.Contains(err.Error(), `no such table "churn"`) {
						t.Errorf("reader %d: %s: %v", r, sql, err)
						return
					}
					continue
				}
				if !plausible(sql, res) {
					t.Errorf("reader %d: %s answered columns %v, rows %v", r, sql, res.Columns, res.Rows)
					return
				}
			}
		}(r)
	}

	// settled: with the writer between steps, each text read through the
	// cache answers what the statement answers now.
	settled := func(step string) {
		t.Helper()
		for _, sql := range texts {
			cached, _, err := db.ExecSQL(sql)
			if err != nil {
				t.Fatalf("after %s: %s: %v", step, sql, err)
			}
			live, _, err := db.ExecSQLNoCache(sql)
			if err != nil {
				t.Fatalf("after %s: %s: %v", step, sql, err)
			}
			if !reflect.DeepEqual(cached.Columns, live.Columns) || !reflect.DeepEqual(cached.Rows, live.Rows) {
				t.Fatalf("after %s: %s served columns %v and %d rows, the table answers %v and %d", step, sql, cached.Columns, len(cached.Rows), live.Columns, len(live.Rows))
			}
		}
	}
	for i := 0; i < 30 && !t.Failed(); i++ {
		steps := []string{insert(1000 + i), insert(k), move(k, 4000+i), move(4000+i, k), move(k, 5000+i),
			`CREATE INDEX churn_id ON churn (id)`, `DROP INDEX churn_id ON churn`}
		for _, step := range steps {
			if _, _, err := db.ExecSQL(step); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			settled(step)
		}
		// Every round re-creates the table: a reader that planned over the
		// dropped one must not leave an entry the new one would serve.
		if _, _, err := db.ExecSQL(`DROP TABLE churn`); err != nil {
			t.Fatal(err)
		}
		wide = !wide
		if err := create(); err != nil {
			t.Fatal(err)
		}
		settled("DROP TABLE and CREATE TABLE")
	}
	close(stop)
	wg.Wait()
	if st := db.CacheStats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("the race saw %d hits and %d invalidations: want some of each", st.Hits, st.Invalidations)
	}
}

// --- cached-read speedup (acceptance: ≥20× vs uncached) ---

const cachedSelectRows = 30_000

// cachedSelectDB seeds a table large enough that the uncached TopN scan
// costs real work.
func cachedSelectDB(tb testing.TB) *crowddb.DB {
	tb.Helper()
	db := crowddb.New(nil)
	tb.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE big (id INTEGER, score FLOAT)`); err != nil {
		tb.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("big")
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < cachedSelectRows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Float(rng.Float64()*1000)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

const cachedSelectSQL = `SELECT id, score FROM big ORDER BY score DESC LIMIT 10`

// TestCachedSelectAtLeast20xFaster is the cache's acceptance bar: a hot
// repeated SELECT must run ≥20× faster than the same statement with the
// cache bypassed — and a single mutation must drop it back to live data.
func TestCachedSelectAtLeast20xFaster(t *testing.T) {
	db := cachedSelectDB(t)
	if _, _, err := db.ExecSQL(cachedSelectSQL); err != nil { // warm
		t.Fatal(err)
	}
	const iters = 15
	// The best of three rounds: the cached loop is a few hundred
	// microseconds, and one preemption beside the other packages' tests
	// is longer than that.
	timeIt := func(f func() error) time.Duration {
		t.Helper()
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 3; round++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	cached := timeIt(func() error { _, _, err := db.ExecSQL(cachedSelectSQL); return err })
	uncached := timeIt(func() error { _, _, err := db.ExecSQLNoCache(cachedSelectSQL); return err })
	if cached*20 > uncached {
		t.Fatalf("cached %v vs uncached %v: less than the required 20x speedup", cached, uncached)
	}
	if st := db.CacheStats(); st.Hits < iters {
		t.Fatalf("cached loop did not hit the cache: %+v", st)
	}

	// Mutation-invalidation proof: one insert, and the next read is a
	// recomputed miss over the live 30_001 rows.
	misses := db.CacheStats().Misses
	if _, _, err := db.ExecSQL(`INSERT INTO big VALUES (999999, 5000.0)`); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.ExecSQL(cachedSelectSQL)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := res.Rows[0][0].AsInt(); id != 999999 {
		t.Fatalf("post-insert top row id = %d — stale cached result", id)
	}
	if got := db.CacheStats().Misses; got != misses+1 {
		t.Fatalf("post-insert read was not a miss (misses %d -> %d)", misses, got)
	}
}

// BenchmarkCachedSelect measures the hot cached-read path (guarded in
// BENCH_baseline.json); BenchmarkUncachedSelectBaseline is the identical
// statement with the cache bypassed, for the speedup comparison.
func BenchmarkCachedSelect(b *testing.B) {
	db := cachedSelectDB(b)
	if _, _, err := db.ExecSQL(cachedSelectSQL); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := db.ExecSQL(cachedSelectSQL)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkUncachedSelectBaseline(b *testing.B) {
	db := cachedSelectDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := db.ExecSQLNoCache(cachedSelectSQL)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.ReportMetric(float64(cachedSelectRows), "rows-scanned/op")
}

// BenchmarkSpeculativeHitMerge measures the end-to-end demand+speculative
// cycle: warm model, demand-expand comedy, speculation rides the same
// batch window, everything settles. Reports marketplace charges (the
// merge makes it 1) and the columns filled per charge.
func BenchmarkSpeculativeHitMerge(b *testing.B) {
	var charges, filled float64
	for i := 0; i < b.N; i++ {
		db := speculativeDB(b, int64(200+i), 20*time.Millisecond, 2.0)
		teachComedyThenDrama(db, 4)
		job, err := db.Do(context.Background(), new(crowddb.RowStream), crowddb.Request{SQL: `SELECT name FROM movies WHERE comedy = true`, Mode: crowddb.ModeAsync})
		if err != nil {
			b.Fatal(err)
		}
		if job == nil {
			b.Fatal("no expansion job")
		}
		waitAllJobs(b, db)
		charges = float64(db.Ledger().Jobs)
		tbl, _ := db.Catalog().Get("movies")
		filled = 0
		for _, col := range []string{"comedy", "drama"} {
			if _, ok := tbl.Schema().Lookup(col); ok {
				filled++
			}
		}
	}
	b.ReportMetric(charges, "marketplace-charges")
	b.ReportMetric(filled, "columns-filled")
	if charges > 0 {
		b.ReportMetric(filled/charges, "columns-per-charge")
	}
}
