package core

import (
	"errors"
	"strings"
	"testing"

	"crowddb/internal/engine"
	"crowddb/internal/storage"
)

func TestExecStreamBasic(t *testing.T) {
	db := NewDB(nil)
	defer db.Close()
	mustSQL := func(sql string) {
		if _, _, err := db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustSQL(`CREATE TABLE nums (n INTEGER)`)
	mustSQL(`INSERT INTO nums VALUES (1), (2), (3), (4), (5)`)

	s, _, err := do(db, Request{SQL: `SELECT n FROM nums WHERE n >= 2 ORDER BY n DESC`, Mode: ModeStream})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Columns(); len(got) != 1 || got[0] != "n" {
		t.Fatalf("columns = %v", got)
	}
	var vals []int64
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		v, _ := row[0].AsInt()
		vals = append(vals, v)
	}
	if len(vals) != 4 || vals[0] != 5 || vals[3] != 2 {
		t.Fatalf("vals = %v", vals)
	}
	if s.Rows() != 4 {
		t.Fatalf("Rows() = %d", s.Rows())
	}
}

func TestExecStreamRejectsNonSelect(t *testing.T) {
	db := NewDB(nil)
	defer db.Close()
	if _, _, err := do(db, Request{SQL: `DELETE FROM nowhere`, Mode: ModeStream}); err == nil {
		t.Fatal("streaming DML must fail")
	}
}

// A streaming query on a registered-but-unexpanded column must not
// produce any rows until the expansion job has completed — the stream
// opens only after the job fills the column.
func TestExecStreamTriggersExpansionBeforeFirstRow(t *testing.T) {
	db, u := newMovieDB(t, 0, 11)
	defer db.Close()
	genre := u.CategoryNames()[0]
	db.RegisterExpandable("movies", genre, storage.KindBool,
		ExpandOptions{SamplesPerClass: 8, Assignments: 3})

	s, _, err := do(db, Request{SQL: `SELECT name FROM movies WHERE ` + genre + ` = true`, Mode: ModeStream})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Expansion() == nil {
		t.Fatal("stream must report the expansion it triggered")
	}
	// By the time the stream produces rows, the column must exist and be
	// filled — the job completed before the first row.
	tbl, _ := db.Catalog().Get("movies")
	if _, ok := tbl.Schema().Lookup(genre); !ok {
		t.Fatalf("column %s not created before first row", genre)
	}
	n := 0
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("expanded query streamed no rows")
	}
	if s.Expansion().Filled == 0 {
		t.Fatal("expansion filled nothing")
	}
}

// A streaming query on an unregistered column stays an error (a typo must
// not become a crowd job) and streams nothing.
func TestExecStreamUnregisteredColumnFails(t *testing.T) {
	db := NewDB(nil)
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE t (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	_, _, err := do(db, Request{SQL: `SELECT nosuch FROM t`, Mode: ModeStream})
	var missing *engine.MissingColumnError
	if !errors.As(err, &missing) {
		t.Fatalf("err = %v, want MissingColumnError", err)
	}
}

// An unqualified reference to a column registered on a *joined* table
// (not the primary FROM table) must still trigger implicit expansion:
// the planner reports every table in scope as a candidate and core
// consults each registry.
func TestImplicitExpansionOnJoinedTable(t *testing.T) {
	db, u := newMovieDB(t, 0, 17)
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE awards (movie INTEGER, prize TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`INSERT INTO awards VALUES (0, 'Gold'), (1, 'Silver')`); err != nil {
		t.Fatal(err)
	}
	genre := u.CategoryNames()[2]
	db.RegisterExpandable("movies", genre, storage.KindBool,
		ExpandOptions{SamplesPerClass: 8, Assignments: 3})

	// movies is the *joined* table; the genre reference is unqualified.
	res, report, err := db.ExecSQL(`SELECT m.name FROM awards a JOIN movies m ON a.movie = m.movie_id
		WHERE ` + genre + ` = true`)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || report.Table != "movies" || report.Column != genre {
		t.Fatalf("report = %+v", report)
	}
	_ = res
}

// EXPLAIN must plan without executing — and must never trigger (or pay
// for) an expansion, even on a registered expandable column.
func TestExplainDoesNotTriggerExpansion(t *testing.T) {
	db, u := newMovieDB(t, 0, 13)
	defer db.Close()
	genre := u.CategoryNames()[1]
	db.RegisterExpandable("movies", genre, storage.KindBool, ExpandOptions{})

	_, _, err := db.ExecSQL(`EXPLAIN SELECT name FROM movies WHERE ` + genre + ` = true`)
	if err == nil {
		t.Fatal("EXPLAIN on a missing column must surface the miss, not expand it")
	}
	if len(db.Jobs()) != 0 {
		t.Fatalf("EXPLAIN submitted %d expansion jobs", len(db.Jobs()))
	}
	if led := db.Ledger(); led.Cost != 0 {
		t.Fatalf("EXPLAIN charged $%.2f", led.Cost)
	}

	// On existing columns EXPLAIN renders the plan.
	res, _, err := db.ExecSQL(`EXPLAIN SELECT name FROM movies WHERE year > 1980 ORDER BY year LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	text := resultText(res.Rows)
	if !strings.Contains(text, "TopN") || !strings.Contains(text, "Scan(movies, filter=") {
		t.Fatalf("plan missing TopN/pushdown:\n%s", text)
	}
}

func resultText(rows []storage.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		s, _ := r[0].AsText()
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}
