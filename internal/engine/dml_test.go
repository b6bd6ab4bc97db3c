package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/storage"
)

// opLog is a journal and observer that records the kinds it was handed.
type opLog struct{ logged, observed []storage.OpKind }

func (l *opLog) LogOp(op storage.Op) error {
	l.logged = append(l.logged, op.Kind)
	return nil
}

func selectInts(t *testing.T, e *Engine, sql string) []int64 {
	t.Helper()
	var out []int64
	for _, row := range mustExec(t, e, sql).Rows {
		v, _ := row[0].AsInt()
		out = append(out, v)
	}
	return out
}

// An UPDATE whose third row cannot be coerced used to fail after rows one
// and two had been changed, journaled and the cache invalidated.
func TestFailedUpdateChangesNothing(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE t (a INTEGER, f FLOAT)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.5), (4, 40.0)`)
	log := &opLog{}
	e.Catalog().SetJournal(log)
	e.Catalog().SetObserver(storage.ObserverFunc(func(w storage.Write) { log.observed = append(log.observed, w.Kind) }))

	_, err := e.ExecSQL(`UPDATE t SET a = f`)
	if err == nil || !strings.Contains(err.Error(), `cannot coerce FLOAT value "30.5" to INTEGER`) {
		t.Fatalf("UPDATE t SET a = f: %v, want the coercion error of row 3", err)
	}
	if got := selectInts(t, e, `SELECT a FROM t`); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("after the failed UPDATE a = %v, want [1 2 3 4]", got)
	}
	if len(log.logged) != 0 || len(log.observed) != 0 {
		t.Fatalf("the failed UPDATE journaled %v and notified %v", log.logged, log.observed)
	}

	// The same statement over rows that all coerce: one notification for
	// the statement, one journal record per SET column.
	if res := mustExec(t, e, `UPDATE t SET a = f WHERE f != 30.5`); res.Affected != 3 {
		t.Fatalf("affected %d rows, want 3", res.Affected)
	}
	if got := selectInts(t, e, `SELECT a FROM t`); fmt.Sprint(got) != "[10 20 3 40]" {
		t.Fatalf("a = %v, want [10 20 3 40]", got)
	}
	if fmt.Sprint(log.logged) != "[set]" || fmt.Sprint(log.observed) != "[set]" {
		t.Fatalf("journaled %v, notified %v; want one set record and one notification", log.logged, log.observed)
	}
}

// A SET target or a WHERE column the table lacks is found when the
// statement is planned, not when (and if) a row matches.
func TestDMLColumnsAreCheckedAtPlanTime(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE t (a INTEGER, f FLOAT)`)
	mustExec(t, e, `CREATE TABLE empty (a INTEGER)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 10.0)`)
	for sql, want := range map[string][2]string{
		`UPDATE t SET nosuch = 1 WHERE false`:         {"t", "nosuch"},
		`UPDATE empty SET a = nosuch + 1`:             {"empty", "nosuch"},
		`UPDATE empty SET a = 1 WHERE nosuch = 2`:     {"empty", "nosuch"},
		`DELETE FROM empty WHERE nosuch IS NULL`:      {"empty", "nosuch"},
		`DELETE FROM t WHERE false AND t.nosuch`:      {"t", "nosuch"},
		`EXPLAIN DELETE FROM t WHERE nosuch = 1`:      {"t", "nosuch"},
		`EXPLAIN UPDATE t SET nosuch = 1 WHERE a = 1`: {"t", "nosuch"},
	} {
		_, err := e.ExecSQL(sql)
		var missing *MissingColumnError
		if !errors.As(err, &missing) || missing.Table != want[0] || missing.Column != want[1] {
			t.Errorf("%s: %v, want a MissingColumnError for %s.%s", sql, err, want[0], want[1])
		}
	}
	if _, err := e.ExecSQL(`UPDATE t SET a = 2 WHERE other.a = 1`); err == nil || !strings.Contains(err.Error(), `unknown table or alias "other"`) {
		t.Errorf("a foreign qualifier in a DML WHERE: %v", err)
	}
	if _, err := e.ExecSQL(`INSERT INTO t VALUES (a, 1.5)`); err == nil || !strings.Contains(err.Error(), "column reference") {
		t.Errorf("a column reference in INSERT VALUES: %v", err)
	}
	if got := selectInts(t, e, `SELECT a FROM t`); fmt.Sprint(got) != "[1]" {
		t.Fatalf("t.a = %v after statements that all failed, want [1]", got)
	}
}

// EXPLAIN of an UPDATE or DELETE prints the access path its WHERE was
// given, with the planner's note, and runs nothing.
func TestExplainDML(t *testing.T) {
	e := withBallast(t, indexedEngine(t))
	e.SetExecWorkers(1)
	items, _ := e.Catalog().Get("items")
	rows := items.NumRows()
	for _, c := range []struct{ sql, root, leaf string }{
		{`UPDATE items SET score = score + 1 WHERE id = 3`, "Update(items, set=score)", "└─ IndexScan(idx_id, id=3)"},
		{`DELETE FROM items WHERE score >= 100 AND score < 110`, "Delete(items)", "└─ IndexRange(idx_score, 100..110) rows=18 of 20500"},
		{`DELETE FROM items WHERE score < 0`, "Delete(items)", "└─ Scan(items, filter=(score < 0)) index idx_score declined: 20000 of 20500 rows"},
		{`UPDATE items SET tier = 'x', score = 1 WHERE tier = 't9'`, "Update(items, set=tier, score)", "└─ Scan(items, filter=(tier = 't9'))"},
		{`DELETE FROM items`, "Delete(items)", "└─ Scan(items)"},
	} {
		lines := explainLines(t, e, c.sql)
		if len(lines) != 2 || lines[0] != c.root || lines[1] != c.leaf {
			t.Errorf("EXPLAIN %s:\n%s\nwant\n%s\n%s", c.sql, strings.Join(lines, "\n"), c.root, c.leaf)
		}
	}
	for _, sql := range []string{
		`EXPLAIN ANALYZE DELETE FROM items WHERE id = 3`,
		`EXPLAIN ANALYZE UPDATE items SET score = 1`,
		`EXPLAIN INSERT INTO items VALUES (1, 2.0, 'x')`,
	} {
		if _, err := e.ExecSQL(sql); err == nil || !strings.Contains(err.Error(), "EXPLAIN") {
			t.Errorf("%s: %v, want a refusal", sql, err)
		}
	}
	if items.NumRows() != rows || items.Tombstones() != 0 {
		t.Fatalf("EXPLAIN ran a statement: %d rows of %d, %d tombstones", items.NumRows(), rows, items.Tombstones())
	}
}
