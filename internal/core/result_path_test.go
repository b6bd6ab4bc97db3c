package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"crowddb/internal/jobs"
	"crowddb/internal/storage"
)

// pathDB is a three-chunk table with NULLs, a text column and a small
// dimension table, served at the given degree of parallelism.
func pathDB(t *testing.T, workers int) *DB {
	t.Helper()
	db, err := Open(Options{ExecWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	for _, sql := range []string{
		`CREATE TABLE facts (id INTEGER, k INTEGER, score FLOAT, tag TEXT)`,
		`CREATE TABLE dims (k INTEGER, label TEXT)`,
		`CREATE INDEX facts_id ON facts (id) USING ORDERED`,
	} {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	facts, _ := db.Catalog().Get("facts")
	for i := 0; i < 2*storage.ChunkRows+700; i++ {
		k, score := storage.Int(int64(i%7)), storage.Float(float64(i%1000)/4)
		if i%11 == 0 {
			k = storage.Null()
		}
		if i%13 == 0 {
			score = storage.Null()
		}
		if err := facts.Insert(storage.Int(int64(i)), k, score, storage.Text(fmt.Sprintf("t%03d", i%500))); err != nil {
			t.Fatal(err)
		}
	}
	dims, _ := db.Catalog().Get("dims")
	for k := 0; k < 5; k++ {
		if err := dims.Insert(storage.Int(int64(k)), storage.Text(fmt.Sprintf("label-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSameRowsWhateverThePath: one query's answer is the same rows as a
// cache miss (as both misses of a large answer, which only the second
// stores), as the hit that follows, with the cache bypassed, streamed a
// row at a time and streamed a batch at a time — at exec-workers 1, 2 and
// 8, for results of no row, of one batch and of several, with typed, boxed
// and all-NULL columns.
func TestSameRowsWhateverThePath(t *testing.T) {
	// large: the answer is charged over the cache's 16 KiB admission line,
	// so it is stored on its text's second miss, not its first.
	queries := []struct {
		sql   string
		large bool
	}{
		{`SELECT id, k, score, tag FROM facts WHERE score > 100.0`, true}, // three batches
		{`SELECT id, score FROM facts WHERE id >= 100 AND id < 140`, false},
		{`SELECT id FROM facts WHERE id < 0`, false}, // no row
		{`SELECT k, COUNT(*), AVG(score), MIN(tag), MAX(score) FROM facts GROUP BY k`, false},
		{`SELECT tag, COUNT(*) FROM facts WHERE score >= 0.0 GROUP BY tag HAVING COUNT(*) > 10`, false},
		{`SELECT f.id, d.label, f.score * 2, f.k + NULL FROM facts f JOIN dims d ON f.k = d.k WHERE f.score < 50.0`, true},
		{`SELECT id, score FROM facts WHERE k = 3 ORDER BY score DESC, id LIMIT 25`, false},
		{`SELECT DISTINCT k FROM facts`, false},
		{`SELECT COUNT(*) FROM facts f JOIN dims d ON f.k = d.k`, false},
		{`SELECT id, tag FROM facts ORDER BY tag, id`, true},
	}
	for _, workers := range []int{1, 2, 8} {
		db := pathDB(t, workers)
		for _, q := range queries {
			sql := q.sql
			before := db.CacheStats()
			miss, _, err := db.ExecSQL(sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			secondMiss, misses := miss, uint64(1)
			if q.large {
				if secondMiss, _, err = db.ExecSQL(sql); err != nil {
					t.Fatal(err)
				}
				misses = 2
			}
			hit, _, err := db.ExecSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			if after := db.CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses+misses || after.Deferred != before.Deferred+misses-1 {
				t.Fatalf("workers=%d %s: cache went %+v → %+v, want %d misses (%d deferred) and one hit", workers, sql, before, after, misses, misses-1)
			}
			nocache, _, err := db.ExecSQLNoCache(sql)
			if err != nil {
				t.Fatal(err)
			}
			columnar, _, err := do(db, Request{SQL: sql})
			if err != nil {
				t.Fatal(err)
			}
			first, err := columnar.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if len(hit.Batches) > 0 && first != &hit.Batches[0] {
				t.Fatalf("workers=%d %s: two hits do not share the entry's batch list", workers, sql)
			}
			columnarRows := batchRows(t, columnar, first)

			byRow, _, err := do(db, Request{SQL: sql, Mode: ModeStream})
			if err != nil {
				t.Fatal(err)
			}
			var rows []storage.Row
			for {
				row, ok, err := byRow.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows = append(rows, row)
			}
			byBatch, _, err := do(db, Request{SQL: sql, Mode: ModeStream})
			if err != nil {
				t.Fatal(err)
			}
			batched := batchRows(t, byBatch, nil)
			if byRow.Rows() != len(rows) || byBatch.Rows() != len(rows) {
				t.Fatalf("workers=%d %s: streams count %d and %d rows, delivered %d", workers, sql, byRow.Rows(), byBatch.Rows(), len(rows))
			}
			_, _ = byRow.Close(), byBatch.Close()

			if miss.Affected != len(miss.Rows) || hit.Affected != len(miss.Rows) {
				t.Fatalf("workers=%d %s: Affected %d on the miss, %d on the hit, %d rows", workers, sql, miss.Affected, hit.Affected, len(miss.Rows))
			}
			for name, got := range map[string][]storage.Row{
				"second miss": secondMiss.Rows, "hit": hit.Rows, "nocache": nocache.Rows, "columnar hit": columnarRows,
				"row stream": rows, "batch stream": batched,
			} {
				if !reflect.DeepEqual(got, miss.Rows) {
					t.Fatalf("workers=%d %s: the %s answers %d rows, the miss %d, or other rows", workers, sql, name, len(got), len(miss.Rows))
				}
			}
			if !reflect.DeepEqual(hit.Columns, miss.Columns) || !reflect.DeepEqual(byBatch.Columns(), miss.Columns) {
				t.Fatalf("workers=%d %s: columns %v, %v, %v", workers, sql, miss.Columns, hit.Columns, byBatch.Columns())
			}
			// A caller may do to its rows what it likes.
			if len(hit.Rows) > 0 {
				hit.Rows[0][0] = storage.Text("scribbled")
				again, _, _ := db.ExecSQL(sql)
				if !reflect.DeepEqual(again.Rows, miss.Rows) {
					t.Fatalf("workers=%d %s: a hit's rows were written through to the entry", workers, sql)
				}
			}
		}
		for _, name := range db.Catalog().Names() {
			tbl, _ := db.Catalog().Get(name)
			if live := tbl.LiveSnapshotEpochs(); len(live) != 0 {
				t.Fatalf("workers=%d: table %s still pins snapshot epochs %v", workers, name, live)
			}
		}
	}
}

// TestStreamedSelectIsAccounted: a streamed SELECT is a query to the
// program's own accounting like any other — it feeds the workload tracker
// and every phase histogram once, and the end-to-end histogram when it is
// closed.
func TestStreamedSelectIsAccounted(t *testing.T) {
	db := pathDB(t, 1)
	counts := func() [5]int64 {
		return [5]int64{
			int64(db.Workload().Counters.TotalQueries),
			mQueryPhase.With("parse").Count(), mQueryPhase.With("plan").Count(), mQueryPhase.With("execute").Count(),
			mQuerySeconds.Count(),
		}
	}
	before := counts()
	s, _, err := do(db, Request{SQL: `SELECT id, tag FROM facts WHERE score > 200.0`, Mode: ModeStream})
	if err != nil {
		t.Fatal(err)
	}
	if got := counts(); got != [5]int64{before[0] + 1, before[1] + 1, before[2] + 1, before[3], before[4]} {
		t.Fatalf("opening the stream moved queries/parse/plan/execute/total from %v to %v, want the first three up by one", before, got)
	}
	for {
		b, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = s.Close() // accounted once
	want := [5]int64{before[0] + 1, before[1] + 1, before[2] + 1, before[3] + 1, before[4] + 1}
	if got := counts(); got != want {
		t.Fatalf("a streamed SELECT moved queries/parse/plan/execute/total from %v to %v, want each up by one", before, got)
	}
	cols := db.Workload().Counters
	found := false
	for _, tc := range cols.Tables {
		found = found || tc.Table == "facts" && tc.Queries > 0
	}
	if !found {
		t.Fatalf("the tracker has no access to facts: %+v", cols.Tables)
	}
}

// TestTraceRowsReadsAffected: the trace (and with it the slow-query log)
// counts rows from the stream's Affected — a stream read a batch at a
// time boxes no Rows to count.
func TestTraceRowsReadsAffected(t *testing.T) {
	db := pathDB(t, 1)
	for sql, want := range map[string]int{
		`SELECT id FROM facts WHERE id < 37`:          37,
		`UPDATE dims SET label = 'x' WHERE k >= 3`:    2,
		`CREATE TABLE scratch (a INTEGER)`:            0,
		`SELECT k, COUNT(*) FROM facts GROUP BY k`:    8,
		`SELECT id FROM facts WHERE id < 37 LIMIT 10`: 10,
	} {
		s, _, err := do(db, Request{SQL: sql, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows := batchRows(t, s, nil)
		if qt := s.Trace(); qt.Rows != want || s.Affected() != want || len(rows) != s.Rows() {
			t.Fatalf("%s: trace rows %d, affected %d, %d rows read of %d; want %d, %d and all", sql, qt.Rows, s.Affected(), len(rows), s.Rows(), want, want)
		}
	}
	s, _, err := do(db, Request{SQL: `SELECT 1 FROM dims`})
	if err != nil || s.Trace() != nil {
		t.Fatalf("an untraced request returned trace %+v, error %v", s.Trace(), err)
	}
	_ = s.Close()
}

// do is Do on a stream of its own, under the background context.
func do(db *DB, req Request) (*RowStream, *jobs.Job, error) {
	s := new(RowStream)
	job, err := db.Do(context.Background(), s, req)
	return s, job, err
}

// batchRows reads s to its end a batch at a time, after first — a batch
// already read, or nil — and closes it. It returns the rows boxed.
func batchRows(t *testing.T, s *RowStream, first *storage.Batch) []storage.Row {
	t.Helper()
	defer s.Close()
	var rows []storage.Row
	for b := first; ; {
		if b != nil {
			rows = b.AppendRows(rows)
		}
		var err error
		if b, err = s.NextBatch(); err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
	}
}
