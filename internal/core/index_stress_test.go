package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/storage"
)

// TestIndexStressConcurrentInsertsReadsAndFill is the PR's race
// satellite (run under -race in CI and nightly): concurrent INSERTs,
// index-backed point and range reads, and an in-flight crowd expansion
// bulk-filling an indexed column, all against one database. Correctness
// bar: no probe ever returns a row that fails its own predicate, and the
// final index answers match a full scan.
func TestIndexStressConcurrentInsertsReadsAndFill(t *testing.T) {
	const rows = 60
	db := seedExpandableDB(t, t.TempDir(), simulatedService(7, rows), rows)
	defer func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}()

	// First expansion materializes is_comedy so it can be indexed.
	if got := queryComedyNames(t, db); len(got) == 0 {
		t.Fatal("expansion produced no comedies")
	}
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE INDEX idx_comedy ON movies (is_comedy) USING HASH`)
	mustExec(`CREATE INDEX idx_mid ON movies (movie_id)`)
	mustExec(`CREATE TABLE events (id INTEGER, bucket INTEGER)`)
	mustExec(`CREATE INDEX ev_bucket ON events (bucket) USING HASH`)
	mustExec(`CREATE INDEX ev_id ON events (id)`)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: a stream of inserts into the indexed events table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			sql := fmt.Sprintf(`INSERT INTO events VALUES (%d, %d)`, i, i%7)
			if _, _, err := db.ExecSQL(sql); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	// Readers: index-backed point + range probes on both tables while the
	// writer and the expansion below are running.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := db.ExecSQL(`SELECT id, bucket FROM events WHERE bucket = 3`)
				if err != nil {
					t.Errorf("point read: %v", err)
					return
				}
				for _, row := range res.Rows {
					if b, _ := row[1].AsInt(); b != 3 {
						t.Errorf("point probe returned bucket %d", b)
						return
					}
				}
				res, _, err = db.ExecSQL(`SELECT id FROM events WHERE id >= 100 AND id < 200`)
				if err != nil {
					t.Errorf("range read: %v", err)
					return
				}
				if len(res.Rows) > 100 {
					t.Errorf("range probe returned %d rows for a 100-wide window", len(res.Rows))
					return
				}
				if _, _, err := db.ExecSQL(`SELECT name FROM movies WHERE is_comedy = true`); err != nil {
					t.Errorf("comedy read: %v", err)
					return
				}
			}
		}()
	}

	// The in-flight expansion: re-elicit is_comedy, whose bulk FillColumn
	// rebuilds idx_comedy under the table lock while the readers above
	// are probing it.
	if _, _, err := db.ExecSQL(`EXPAND TABLE movies ADD COLUMN is_comedy BOOLEAN USING SPACE WITH SAMPLES 10`); err != nil {
		t.Fatalf("re-expansion: %v", err)
	}
	close(stop)
	wg.Wait()

	// Settled state: index answers must agree with a scan-side recount.
	res, _, err := db.ExecSQL(`SELECT count(*) n FROM events WHERE bucket = 3`)
	if err != nil {
		t.Fatal(err)
	}
	viaIndex, _ := res.Rows[0][0].AsInt()
	tbl, _ := db.Catalog().Get("events")
	want := int64(0)
	tbl.Scan(func(i int, row storage.Row) bool {
		if b, _ := row[1].AsInt(); b == 3 {
			want++
		}
		return true
	})
	// count(*) plans through the aggregate over the index scan; verify the
	// plan actually used the index so the comparison means something.
	if p := explainText(t, db, `SELECT count(*) n FROM events WHERE bucket = 3`); !strings.Contains(p, "IndexScan(ev_bucket") {
		t.Fatalf("count not index-planned:\n%s", p)
	}
	if viaIndex != want {
		t.Fatalf("index count %d != scan count %d", viaIndex, want)
	}
	if m := db.TableIndexes("movies"); len(m) != 2 {
		t.Fatalf("movies indexes = %+v", m)
	}
}
