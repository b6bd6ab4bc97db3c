package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/storage"
)

// explainText plans a query and returns the EXPLAIN tree as one string.
func explainText(t *testing.T, db *DB, sql string) string {
	t.Helper()
	res, _, err := db.ExecSQL("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var lines []string
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		lines = append(lines, s)
	}
	return strings.Join(lines, "\n")
}

// tornTail chops a few bytes off the newest WAL segment — the signature
// of a crash mid-append.
func tornTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 8 {
		t.Fatalf("segment %s too small to tear", last)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
}

// TestIndexesSurviveRestartWithTornTail is the PR's durability
// acceptance: create indexes (one over an expanded, crowd-paid column),
// kill the process with a torn WAL tail, and require the restarted DB to
// rebuild every index, answer the same point/range queries through them,
// and charge the crowd nothing.
func TestIndexesSurviveRestartWithTornTail(t *testing.T) {
	dir := t.TempDir()
	const rows = 60

	db1 := seedExpandableDB(t, dir, simulatedService(7, rows), rows)
	before := queryComedyNames(t, db1) // triggers + pays for the expansion
	if len(before) == 0 {
		t.Fatal("expansion produced no comedies")
	}
	mustExec := func(db *DB, sql string) {
		t.Helper()
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(db1, `CREATE INDEX idx_mid ON movies (movie_id) USING HASH`)
	mustExec(db1, `CREATE INDEX idx_mid_ord ON movies (movie_id)`)
	mustExec(db1, `CREATE INDEX idx_comedy ON movies (is_comedy) USING HASH`)
	// Scratch writes AFTER the index DDL: the torn tail must land on
	// these, proving recovery drops only the torn record while every
	// create_index record (and the data before it) survives.
	mustExec(db1, `CREATE TABLE scratch (x INTEGER)`)
	mustExec(db1, `INSERT INTO scratch VALUES (1)`)
	mustExec(db1, `INSERT INTO scratch VALUES (2)`)
	led1 := db1.Ledger()

	pointQ := `SELECT name FROM movies WHERE movie_id = 17`
	rangeQ := `SELECT name FROM movies WHERE movie_id >= 10 AND movie_id < 15 ORDER BY movie_id`
	comedyQ := `SELECT name FROM movies WHERE is_comedy = true ORDER BY name`
	answers := func(db *DB, sql string) string {
		t.Helper()
		res, _, err := db.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var out []string
		for _, row := range res.Rows {
			s, _ := row[0].AsText()
			out = append(out, s)
		}
		return strings.Join(out, "|")
	}
	point1, range1, comedy1 := answers(db1, pointQ), answers(db1, rangeQ), answers(db1, comedyQ)
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	tornTail(t, dir)

	dead := &deadService{}
	db2, err := Open(Options{Service: dead, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	// Index definitions recovered, contents rebuilt from recovered rows.
	metas := db2.TableIndexes("movies")
	if len(metas) != 3 {
		t.Fatalf("recovered %d indexes, want 3: %+v", len(metas), metas)
	}
	byName := map[string]storage.IndexMeta{}
	for _, m := range metas {
		byName[m.Name] = m
	}
	if m := byName["idx_mid"]; m.Column != "movie_id" || m.Ordered || m.Entries != rows {
		t.Fatalf("idx_mid recovered wrong: %+v", m)
	}
	if m := byName["idx_mid_ord"]; !m.Ordered || m.Entries != rows {
		t.Fatalf("idx_mid_ord recovered wrong: %+v", m)
	}
	if m := byName["idx_comedy"]; m.Column != "is_comedy" || m.Entries == 0 {
		t.Fatalf("idx_comedy recovered empty (expanded values lost?): %+v", m)
	}

	// The planner uses them again…
	if p := explainText(t, db2, pointQ); !strings.Contains(p, "IndexScan(idx_mid, movie_id=17)") {
		t.Fatalf("point query not index-planned after restart:\n%s", p)
	}
	if p := explainText(t, db2, rangeQ); !strings.Contains(p, "IndexRange(idx_mid_ord, 10..15)") {
		t.Fatalf("range query not index-planned after restart:\n%s", p)
	}
	// …and the answers are bit-identical, with zero new crowd work.
	if got := answers(db2, pointQ); got != point1 {
		t.Fatalf("point answers diverged: %q vs %q", got, point1)
	}
	if got := answers(db2, rangeQ); got != range1 {
		t.Fatalf("range answers diverged: %q vs %q", got, range1)
	}
	if got := answers(db2, comedyQ); got != comedy1 {
		t.Fatalf("comedy answers diverged: %q vs %q", got, comedy1)
	}
	if dead.calls != 0 {
		t.Fatalf("restart re-elicited the crowd %d times", dead.calls)
	}
	if led2 := db2.Ledger(); led2 != led1 {
		t.Fatalf("ledger changed across restart: %+v → %+v", led1, led2)
	}
}

// TestIndexSurvivesSnapshotPlusReplay covers the other recovery path: the
// index definition rides the snapshot, and WAL-replayed inserts after the
// snapshot are re-applied into the rebuilt index.
func TestIndexSurvivesSnapshotPlusReplay(t *testing.T) {
	dir := t.TempDir()
	db1, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(db *DB, sql string) {
		t.Helper()
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// 600 readings, so that the six the range below selects are few enough
	// of the table for the planner to probe the index for them.
	exec(db1, `CREATE TABLE readings (sensor INTEGER, temp FLOAT)`)
	for i := 0; i < 400; i++ {
		exec(db1, fmt.Sprintf(`INSERT INTO readings VALUES (%d, %d.5)`, i%4, i))
	}
	exec(db1, `CREATE INDEX r_temp ON readings (temp)`)
	if _, err := db1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail: replayed inserts must land in the rebuilt index.
	for i := 400; i < 600; i++ {
		exec(db1, fmt.Sprintf(`INSERT INTO readings VALUES (%d, %d.5)`, i%4, i))
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	metas := db2.TableIndexes("readings")
	if len(metas) != 1 || metas[0].Entries != 600 {
		t.Fatalf("recovered index = %+v, want 600 entries", metas)
	}
	// The range straddles the snapshot: 397.5 … 399.5 from it, 400.5 …
	// 402.5 from the replayed tail.
	res, _, err := db2.ExecSQL(`SELECT sensor FROM readings WHERE temp > 397.0 AND temp < 403.0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("range rows = %d, want 6", len(res.Rows))
	}
	if p := explainText(t, db2, `SELECT sensor FROM readings WHERE temp > 397.0 AND temp < 403.0`); !strings.Contains(p, "IndexRange(r_temp") {
		t.Fatalf("replayed index not used:\n%s", p)
	}
}

// TestCreateIndexOnVirtualColumnRejected is the satellite fix: indexing a
// registered-but-unexpanded column fails with the typed sentinel (HTTP
// 400), and crucially does NOT trigger the expansion; once the column is
// filled, the same statement succeeds.
func TestCreateIndexOnVirtualColumnRejected(t *testing.T) {
	const rows = 60
	db := seedExpandableDB(t, t.TempDir(), simulatedService(7, rows), rows)
	defer db.Close()

	led0 := db.Ledger()
	_, _, err := db.ExecSQL(`CREATE INDEX idx_c ON movies (is_comedy)`)
	if !errors.Is(err, ErrIndexOnVirtualColumn) {
		t.Fatalf("err = %v, want ErrIndexOnVirtualColumn", err)
	}
	if led := db.Ledger(); led != led0 {
		t.Fatalf("rejected CREATE INDEX charged the crowd: %+v → %+v", led0, led)
	}
	if _, ok := db.Catalog().Get("movies"); !ok {
		t.Fatal("movies vanished")
	}
	tbl, _ := db.Catalog().Get("movies")
	if _, exists := tbl.Schema().Lookup("is_comedy"); exists {
		t.Fatal("rejected CREATE INDEX materialized the virtual column")
	}

	// Fill it, then index it.
	if got := queryComedyNames(t, db); len(got) == 0 {
		t.Fatal("expansion produced no comedies")
	}
	if _, _, err := db.ExecSQL(`CREATE INDEX idx_c ON movies (is_comedy)`); err != nil {
		t.Fatalf("CREATE INDEX after expansion: %v", err)
	}
	metas := db.TableIndexes("movies")
	if len(metas) != 1 || metas[0].Entries == 0 {
		t.Fatalf("index after expansion = %+v", metas)
	}
}
