package engine

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// EXPLAIN ANALYZE coverage. The acceptance bar: the root operator's
// "actual rows" annotation must exactly match the row count the same
// query returns when run for real, and every operator carries actuals —
// at dop=1 and at dop=8, where a chain's operators run once per worker.

var actualRowsRE = regexp.MustCompile(`actual rows=(\d+)`)

// flattenPlan flattens an EXPLAIN result (one text row per line) for
// substring checks.
func flattenPlan(t *testing.T, res *Result) string {
	t.Helper()
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("explain columns = %v", res.Columns)
	}
	var lines []string
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		lines = append(lines, s)
	}
	return strings.Join(lines, "\n")
}

// rootActualRows parses the root line's actual-rows annotation.
func rootActualRows(t *testing.T, res *Result) int {
	t.Helper()
	root, _ := res.Rows[0][0].AsText()
	m := actualRowsRE.FindStringSubmatch(root)
	if m == nil {
		t.Fatalf("root line missing actual rows: %q", root)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

func TestExplainAnalyzeRootRowsMatchRealQuery(t *testing.T) {
	e := parallelEngine(t)
	queries := []string{
		`SELECT id, score FROM wide WHERE score > 899.0`,
		`SELECT id FROM wide ORDER BY score LIMIT 7`,
		`SELECT grp, COUNT(*) c FROM wide GROUP BY grp`,
		`SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k WHERE w.grp = 2`,
	}
	for _, dop := range []int{1, 8} {
		e.SetExecWorkers(dop)
		for _, sql := range queries {
			real := mustExec(t, e, sql)
			an := mustExec(t, e, "EXPLAIN ANALYZE "+sql)
			if got, want := rootActualRows(t, an), len(real.Rows); got != want {
				t.Errorf("dop=%d %s: root actual rows=%d, real query returned %d\n%s",
					dop, sql, got, want, flattenPlan(t, an))
			}
			if !strings.Contains(flattenPlan(t, an), "time=") {
				t.Errorf("dop=%d %s: missing wall-time annotation\n%s", dop, sql, flattenPlan(t, an))
			}
		}
	}
	e.SetExecWorkers(1)
}

// At dop=1 every operator has its own iterator, so every plan line must
// carry actuals — and intermediate counts must be self-consistent: a
// Filter's input SeqScan reports the full table.
func TestExplainAnalyzeSerialAnnotatesEveryOperator(t *testing.T) {
	e := parallelEngine(t)
	e.SetExecWorkers(1)
	an := mustExec(t, e, `EXPLAIN ANALYZE SELECT id FROM wide WHERE grp = 1`)
	for _, row := range an.Rows {
		line, _ := row[0].AsText()
		if !actualRowsRE.MatchString(line) {
			t.Errorf("serial plan line missing actuals: %q", line)
		}
	}
}

// Plain EXPLAIN must stay annotation-free (its text feeds the result
// cache fingerprint) and must not execute anything.
func TestExplainWithoutAnalyzeHasNoActuals(t *testing.T) {
	e := parallelEngine(t)
	res := mustExec(t, e, `EXPLAIN SELECT id FROM wide WHERE grp = 1`)
	if txt := flattenPlan(t, res); strings.Contains(txt, "actual rows") || strings.Contains(txt, "parallel chain") {
		t.Fatalf("plain EXPLAIN carries analyze annotations:\n%s", txt)
	}
}

// Every operator reports actuals at any dop: a chain's operators run
// in every worker's stack and add to one OpStats per node, so at dop 8
// each line carries actuals, and every operator the serial plan has
// reports the rows it reports at dop 1 — the Gather lines the parallel
// plan adds aside.
func TestExplainAnalyzeReportsEveryOperatorAtAnyDop(t *testing.T) {
	e := parallelEngine(t)
	mustExec(t, e, `CREATE INDEX wide_id ON wide (id)`)
	defer e.SetExecWorkers(1)
	queries := []string{
		`SELECT id, score FROM wide WHERE score > 899.0`,
		`SELECT id FROM wide WHERE id >= 100 AND id < 150 AND grp + 0 = 1`,
		`SELECT id, score FROM wide WHERE id = 4321`,
		`SELECT grp, COUNT(*) c FROM wide WHERE score > 100 GROUP BY grp`,
		`SELECT w.id, d.label FROM wide w JOIN dims d ON w.k = d.k WHERE w.grp = 2`,
		`SELECT id FROM wide WHERE grp = 3 ORDER BY score DESC, id LIMIT 7`,
	}
	var plans strings.Builder
	for _, sql := range queries {
		e.SetExecWorkers(1)
		serial := operatorRows(t, mustExec(t, e, "EXPLAIN ANALYZE "+sql))
		e.SetExecWorkers(8)
		an := mustExec(t, e, "EXPLAIN ANALYZE "+sql)
		txt := flattenPlan(t, an)
		plans.WriteString(txt)
		if got, want := strings.Join(operatorRows(t, an), "\n"), strings.Join(serial, "\n"); got != want {
			t.Errorf("%s: operator rows at dop 8\n%s\nat dop 1\n%s\nplan\n%s", sql, got, want, txt)
		}
	}
	for _, want := range []string{"[dop=8]", "IndexScan(", "IndexRange("} {
		if !strings.Contains(plans.String(), want) {
			t.Errorf("no dop-8 plan has %s:\n%s", want, plans.String())
		}
	}
}

var (
	treeGlyphsRE = regexp.MustCompile(`^[│├└─ ]*`)
	dopSuffixRE  = regexp.MustCompile(` \[dop=\d+\]`)
)

// operatorRows lists an EXPLAIN ANALYZE result's operators but Gather,
// each as its description and actual rows, failing the test for a line
// without actuals.
func operatorRows(t *testing.T, res *Result) []string {
	t.Helper()
	var ops []string
	for _, row := range res.Rows {
		line, _ := row[0].AsText()
		m := actualRowsRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("plan line missing actuals: %q", line)
			continue
		}
		desc := treeGlyphsRE.ReplaceAllString(line[:strings.Index(line, " (actual")], "")
		if !strings.HasPrefix(desc, "Gather(") {
			ops = append(ops, dopSuffixRE.ReplaceAllString(desc, "")+" rows="+m[1])
		}
	}
	return ops
}

func TestExplainAnalyzeRejectsNonSelect(t *testing.T) {
	e := parallelEngine(t)
	if _, err := e.ExecSQL(`EXPLAIN ANALYZE INSERT INTO tiny VALUES (1, 'x')`); err == nil {
		t.Fatal("EXPLAIN ANALYZE INSERT must fail")
	}
}

var actualTimeRE = regexp.MustCompile(`time=[^)]+`)

// Per-operator actuals are exact whatever the batch boundaries: a traced
// operator counts the selected rows of every batch it hands up. The
// figures below are the row-at-a-time executor's for the same queries on
// the same fixture (parRows rows, every 7th join key NULL), so the move
// to batches changed none of them.
func TestExplainAnalyzeRowsExactPerOperator(t *testing.T) {
	e := parallelEngine(t)
	e.SetExecWorkers(1)
	cases := []struct {
		sql  string
		plan []string
	}{
		{`SELECT id FROM wide WHERE grp = 1 AND score + 1 > 500`, []string{
			`Project(id) (actual rows=625 time=T)`,
			`└─ Scan(wide, filter=((grp = 1) AND ((score + 1) > 500))) (actual rows=625 time=T)`,
		}},
		{`SELECT w.id FROM wide w JOIN dims d ON w.k = d.k WHERE w.grp + d.k > 10`, []string{
			`Project(id) (actual rows=215 time=T)`,
			`└─ Filter(((w.grp + d.k) > 10)) (actual rows=215 time=T)`,
			`   └─ HashJoin(w.k = d.k) (actual rows=4285 time=T)`,
			`      ├─ Scan(wide w) (actual rows=5000 time=T)`,
			`      └─ Scan(dims d) (actual rows=10 time=T)`,
		}},
		{`SELECT d.label, COUNT(*) FROM wide w JOIN dims d ON w.k = d.k WHERE w.grp = 2 GROUP BY d.label`, []string{
			`HashAggregate(by=d.label → label, count(*)) (actual rows=5 time=T)`,
			`└─ HashJoin(w.k = d.k) (actual rows=1071 time=T)`,
			`   ├─ Scan(wide w, filter=(w.grp = 2)) (actual rows=1250 time=T)`,
			`   └─ Scan(dims d) (actual rows=10 time=T)`,
		}},
		{`SELECT id, score FROM wide WHERE grp = 3 ORDER BY score DESC, id LIMIT 7`, []string{
			`Project(id, score) (actual rows=7 time=T)`,
			`└─ TopN(n=7, score DESC, id) (actual rows=7 time=T)`,
			`   └─ Scan(wide, filter=(grp = 3)) (actual rows=1250 time=T)`,
		}},
		{`SELECT grp, COUNT(*) c, AVG(score) FROM wide WHERE score > 100 GROUP BY grp HAVING c > 1 ORDER BY c DESC`, []string{
			`Sort(c DESC) (actual rows=4 time=T)`,
			`└─ HashAggregate(by=grp → grp, c, avg(score)) (actual rows=4 time=T)`,
			`   └─ Scan(wide, filter=(score > 100)) (actual rows=4495 time=T)`,
		}},
	}
	for _, c := range cases {
		an := mustExec(t, e, "EXPLAIN ANALYZE "+c.sql)
		got := actualTimeRE.ReplaceAllString(flattenPlan(t, an), "time=T")
		if want := strings.Join(c.plan, "\n"); got != want {
			t.Errorf("%s:\ngot\n%s\nwant\n%s", c.sql, got, want)
		}
	}
}
