package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crowddb/internal/storage"
)

func allMovieNames(t *testing.T, db *DB) []string {
	t.Helper()
	res, _, err := db.ExecSQL(`SELECT movie_id, name FROM movies ORDER BY movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Rows {
		id, _ := row[0].AsInt()
		name, _ := row[1].AsText()
		out = append(out, fmt.Sprintf("%d:%s", id, name))
	}
	return out
}

// TestRestartReplaysCompactionDeterministically is the durability
// acceptance for the compactor: expand (paying the crowd), tombstone,
// compact, mutate THROUGH post-compaction physical row IDs, restart from
// the WAL alone — recovery must replay the OpCompact at exactly the same
// point so the later records resolve identically, answering the same
// queries with zero new crowd charges.
func TestRestartReplaysCompactionDeterministically(t *testing.T) {
	dir := t.TempDir()
	const rows = 60

	db1 := seedExpandableDB(t, dir, simulatedService(7, rows), rows)
	comediesBefore := queryComedyNames(t, db1)
	if len(comediesBefore) == 0 {
		t.Fatal("expansion produced no comedies")
	}

	// Tombstone a third of the table, then reclaim.
	if _, _, err := db1.ExecSQL(`DELETE FROM movies WHERE movie_id < 20`); err != nil {
		t.Fatal(err)
	}
	results := db1.CompactNow()
	res, ok := results["movies"]
	if !ok || !res.Compacted || res.RowsReclaimed != 20 {
		t.Fatalf("CompactNow = %+v", results)
	}
	tbl, _ := db1.Catalog().Get("movies")
	if got := tbl.Tombstones(); got != 0 {
		t.Fatalf("tombstones after compaction = %d", got)
	}

	// Mutations referencing post-compaction physical IDs: their WAL
	// records only replay correctly if recovery compacts at the same spot.
	if _, _, err := db1.ExecSQL(`UPDATE movies SET name = 'renamed after compaction' WHERE movie_id = 30`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db1.ExecSQL(`INSERT INTO movies (movie_id, name) VALUES (999, 'post-compaction insert')`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db1.ExecSQL(`DELETE FROM movies WHERE movie_id = 41`); err != nil {
		t.Fatal(err)
	}

	namesBefore := allMovieNames(t, db1)
	comediesBefore = queryComedyNames(t, db1)
	led1 := db1.Ledger()
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	dead := &deadService{}
	db2, err := Open(Options{Service: dead, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	if after := allMovieNames(t, db2); strings.Join(after, "|") != strings.Join(namesBefore, "|") {
		t.Fatalf("rows diverged after restart:\n before %v\n after  %v", namesBefore, after)
	}
	if after := queryComedyNames(t, db2); strings.Join(after, "|") != strings.Join(comediesBefore, "|") {
		t.Fatalf("comedy answers diverged after restart:\n before %v\n after  %v", comediesBefore, after)
	}
	if dead.calls != 0 {
		t.Fatalf("restart re-elicited the crowd %d times", dead.calls)
	}
	if led2 := db2.Ledger(); led2 != led1 {
		t.Fatalf("ledger changed across restart: %+v → %+v", led1, led2)
	}

	// Replay went through ReplayCompact: the counters prove it, and the
	// replayed table carries only the post-compaction tombstone.
	tbl2, _ := db2.Catalog().Get("movies")
	if st := tbl2.CompactionStats(); st.Runs < 1 || st.RowsReclaimed != 20 {
		t.Fatalf("replayed compaction stats = %+v", st)
	}
	if got := tbl2.Tombstones(); got != 1 { // the movie_id=41 delete
		t.Fatalf("tombstones after replay = %d, want 1", got)
	}
}

// TestSnapshotAfterCompactionRestart: a snapshot taken after compaction
// must capture the compacted physical layout, so WAL records appended
// after it keep resolving on restore.
func TestSnapshotAfterCompactionRestart(t *testing.T) {
	dir := t.TempDir()
	const rows = 60

	db1 := seedExpandableDB(t, dir, simulatedService(11, rows), rows)
	queryComedyNames(t, db1)
	if _, _, err := db1.ExecSQL(`DELETE FROM movies WHERE movie_id >= 40`); err != nil {
		t.Fatal(err)
	}
	if res := db1.CompactNow()["movies"]; !res.Compacted || res.RowsReclaimed != 20 {
		t.Fatalf("CompactNow = %+v", res)
	}
	if _, err := db1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail records against the compacted layout.
	if _, _, err := db1.ExecSQL(`UPDATE movies SET name = 'tail update' WHERE movie_id = 5`); err != nil {
		t.Fatal(err)
	}
	namesBefore := allMovieNames(t, db1)
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	dead := &deadService{}
	db2, err := Open(Options{Service: dead, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if after := allMovieNames(t, db2); strings.Join(after, "|") != strings.Join(namesBefore, "|") {
		t.Fatalf("rows diverged after snapshot+restart:\n before %v\n after  %v", namesBefore, after)
	}
	if dead.calls != 0 {
		t.Fatalf("restart re-elicited the crowd %d times", dead.calls)
	}
}

// TestBackgroundCompactorReclaims: with CompactInterval set, tombstones
// past the density threshold are reclaimed without any explicit call.
func TestBackgroundCompactorReclaims(t *testing.T) {
	db, err := Open(Options{
		Service:              &deadService{},
		CompactInterval:      5 * time.Millisecond,
		CompactTombstoneFrac: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE nums (n INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("nums")
	for i := 0; i < storage.ChunkRows+10; i++ {
		if err := tbl.Insert(storage.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.ExecSQL(`DELETE FROM nums WHERE n < 2000`); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tbl.Tombstones() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never reclaimed: %d tombstones", tbl.Tombstones())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := tbl.CompactionStats(); st.Runs < 1 || st.RowsReclaimed != 2000 {
		t.Fatalf("compaction stats = %+v", st)
	}
}

// TestUnknownBackendFailsOpen: Options.Backend names the storage engine;
// "mem" is the only one, and anything else — the file backend this tree
// once had included — fails Open loudly, naming the one there is.
func TestUnknownBackendFailsOpen(t *testing.T) {
	for _, name := range []string{"file", "bogus"} {
		if _, err := Open(Options{Service: &deadService{}, Backend: name}); err == nil ||
			!strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("Backend %q: Open = %v, want an unknown-backend error", name, err)
		}
	}
	db, err := Open(Options{Service: &deadService{}, Backend: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
}
