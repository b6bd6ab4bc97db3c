package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/storage"
)

// discard is a ResponseWriter (and Flusher) that keeps the status and
// counts the body: what the handler allocates is then the handler's.
type discard struct {
	header http.Header
	status int
	bytes  int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { d.bytes += len(p); return len(p), nil }
func (d *discard) Flush()                      {}

// serveDiscard posts sql to path of h and requires a 200.
func serveDiscard(t testing.TB, h http.Handler, path, sql string) *discard {
	body, _ := json.Marshal(queryRequest{SQL: sql})
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := &discard{header: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		t.Fatalf("%s %s: status %d", path, sql, w.status)
	}
	return w
}

// ratingsServer serves the shape of the benchmark harness's ratings table:
// rows rows over 4 000 movies and 1 000 users.
func ratingsServer(t testing.TB, rows int, opts core.Options) *Server {
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE ratings (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("ratings")
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(i%4000)), storage.Int(int64(i*7%1000)), storage.Float(float64(i%10)/2)); err != nil {
			t.Fatal(err)
		}
	}
	return New(db, Config{})
}

// allocatedBy returns the heap bytes and objects one call of fn allocates,
// averaged over runs calls after one that warms pools and caches.
func allocatedBy(runs int, fn func()) (bytes, objects float64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestResultPathAllocationWalls holds the figures columnar results and the
// streamed answer exist for (beside the cache's own,
// TestGetBatchesAllocatesNothing).
//
// The analytic_scan GROUP BY — 4 000 groups of COUNT and AVG under a
// literal nobody repeats — answered through the handler allocated 2 303 KB
// before results were columnar (its 4 000 rows boxed at the root, cloned
// into the cache, rebuilt as [][]any and marshalled into a buffer of
// encoding/json's own), ≈ 600 KB before the aggregate's state outlived the
// statement (regrown from 16 groups by every query), and ≈ 135 KB while
// every answer was copied whole for a cache that defers it on its text's
// first sighting. Read from the executor into the encoder, the answer is
// copied no further than the cache's admission line: ≈ 38 KB measured,
// firstSightWall the wall. A text asked twice is stored on its second
// sighting, which pays the copy the cache keeps (96 KB of cells): the
// pair is held to groupByWall. (Under -race, whose sync.Pool drops encoder
// buffers, both walls are wider: wall_race_test.go.)
//
// An NDJSON stream allocates per batch, not per row: 8 192 more rows — two
// more batches — may not cost a tenth of an object each.
func TestResultPathAllocationWalls(t *testing.T) {
	srv := ratingsServer(t, 40000, core.Options{ExecWorkers: 1})
	h := srv.Handler()

	literal := 0
	groupBy := func() {
		w := serveDiscard(t, h, "/v1/query", fmt.Sprintf(
			`SELECT movie_id, COUNT(*), AVG(score) FROM ratings WHERE usr >= 0 AND rid >= %d GROUP BY movie_id`, literal))
		if w.bytes < 4000*10 {
			t.Fatalf("a %d-byte answer does not hold 4 000 groups", w.bytes)
		}
	}
	firstSight := func() {
		literal++ // a text of its own: a miss, deferred
		groupBy()
	}
	if got, _ := allocatedBy(10, firstSight); got > firstSightWall {
		t.Errorf("the 4 000-group GROUP BY, first sighted, allocates %.0f bytes through the handler, want at most %d", got, firstSightWall)
	} else {
		t.Logf("the 4 000-group GROUP BY, first sighted, allocates %.0f bytes through the handler", got)
	}
	stored := func() {
		firstSight()
		groupBy() // the second sighting: a miss, stored
	}
	before := srv.db.CacheStats()
	if got, _ := allocatedBy(10, stored); got > groupByWall {
		t.Errorf("the 4 000-group GROUP BY, sighted twice, allocates %.0f bytes through the handler, want at most %d", got, groupByWall)
	} else {
		t.Logf("the 4 000-group GROUP BY, sighted twice, allocates %.0f bytes through the handler", got)
	}
	if after := srv.db.CacheStats(); after.Deferred-before.Deferred != 11 || after.Misses-before.Misses != 22 || after.Hits != before.Hits {
		t.Fatalf("eleven texts sighted twice moved the cache from %+v to %+v: want each deferred, then stored", before, after)
	}

	stream := func(rows int) func() {
		return func() {
			w := serveDiscard(t, h, "/v1/query?stream=1", fmt.Sprintf(`SELECT rid, movie_id, score FROM ratings WHERE rid < %d`, rows))
			if w.bytes < rows*10 {
				t.Fatalf("a %d-byte stream does not hold %d rows", w.bytes, rows)
			}
		}
	}
	_, short := allocatedBy(10, stream(5000))
	_, long := allocatedBy(10, stream(5000+2*storage.ChunkRows))
	if perRow := (long - short) / (2 * storage.ChunkRows); perRow > 0.1 {
		t.Errorf("a stream of 5 000 rows allocates %.0f objects, of %d rows %.0f: %.2f per row, want none", short, 5000+2*storage.ChunkRows, long, perRow)
	} else {
		t.Logf("a stream of 5 000 rows allocates %.0f objects, of %d rows %.0f", short, 5000+2*storage.ChunkRows, long)
	}
}

// TestSharedEntriesUnderWritersEvictionAndCompaction hammers what is
// shared now that an entry, the miss that stored it and every hit are one
// batch list: readers encoding hits of the same entries while a writer
// inserts into, deletes from and compacts the scanned table (invalidating
// them and retiring the chunks their cursors had pinned), in a cache small
// enough that every Put evicts. Every answer here is over the cache's
// admission line, so each is stored on its text's second miss. Run under -race; every body must be one the
// table could have answered with — whole rows, v = 2·id, ids ascending —
// and nothing may stay pinned.
func TestSharedEntriesUnderWritersEvictionAndCompaction(t *testing.T) {
	db, err := core.Open(core.Options{ExecWorkers: 2, CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	for _, sql := range []string{`CREATE TABLE churn (id INTEGER, v INTEGER, tag TEXT)`, `CREATE TABLE stable (id INTEGER, v INTEGER, tag TEXT)`} {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	const rows = storage.ChunkRows + 500
	for _, name := range []string{"churn", "stable"} {
		tbl, _ := db.Catalog().Get(name)
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(2*i)), storage.Text(fmt.Sprintf("tag-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := New(db, Config{}).Handler()
	stable := serveBody(t, h, `SELECT id, v, tag FROM stable WHERE id >= 4000`)

	const rounds = 60
	// The writer takes one round per round reader 0 ends, so its writes
	// land among the reads: unpaced, it can finish before any reader has
	// stored an entry for it to invalidate.
	paced := make(chan struct{}, rounds)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r == 0 {
				defer close(paced)
			}
			for i := 0; i < rounds; i++ {
				if got := serveBody(t, h, `SELECT id, v, tag FROM stable WHERE id >= 4000`); got != stable {
					t.Errorf("reader %d: the answer over the untouched table changed", r)
					return
				}
				var out queryResponse
				if err := json.Unmarshal([]byte(serveBody(t, h, `SELECT id, v, tag FROM churn WHERE id >= 4000`)), &out); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				last := float64(-1)
				for _, row := range out.Rows {
					id, _ := row[0].(float64)
					if v, _ := row[1].(float64); id <= last || v != 2*id || row[2] != fmt.Sprintf("tag-%d", int(id)) {
						t.Errorf("reader %d: row %v after id %v is not one the table held", r, row, last)
						return
					}
					last = id
				}
				// A text asked twice and never again: a large answer, stored
				// on its second miss, that evicts in a 256 KiB cache.
				once := fmt.Sprintf(`SELECT id, v FROM stable WHERE id >= %d`, r*rounds+i)
				serveBody(t, h, once)
				serveBody(t, h, once)
				if r == 0 {
					paced <- struct{}{}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, ok := <-paced; !ok {
				return
			}
			id := rows + i
			for _, sql := range []string{
				fmt.Sprintf(`INSERT INTO churn VALUES (%d, %d, 'tag-%d')`, id, 2*id, id),
				fmt.Sprintf(`DELETE FROM churn WHERE id = %d`, 4000+i),
			} {
				if _, _, err := db.ExecSQL(sql); err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
			}
			if i%5 == 0 {
				db.CompactNow()
			}
		}
	}()
	wg.Wait()

	if st := db.CacheStats(); st.Hits == 0 || st.Evictions == 0 || st.Invalidations == 0 {
		t.Fatalf("the run saw %d hits, %d evictions and %d invalidations: want some of each", st.Hits, st.Evictions, st.Invalidations)
	}
	for _, name := range []string{"churn", "stable"} {
		tbl, _ := db.Catalog().Get(name)
		if live := tbl.LiveSnapshotEpochs(); len(live) != 0 {
			t.Fatalf("table %s still pins snapshot epochs %v", name, live)
		}
	}
}

// serveBody posts sql to /v1/query of h and returns the 200's body.
func serveBody(t *testing.T, h http.Handler, sql string) string {
	body, _ := json.Marshal(queryRequest{SQL: sql})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !strings.HasSuffix(rec.Body.String(), "}\n") {
		t.Errorf("%s: status %d, body %.80q", sql, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}
