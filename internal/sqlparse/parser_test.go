package sqlparse

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	s, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return s
}

func TestParsePaperQuery(t *testing.T) {
	// The running example of the paper.
	s := mustParse(t, "SELECT * FROM movies WHERE is_comedy = true")
	sel, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("not a SelectStmt: %T", s)
	}
	if sel.Table != "movies" || !sel.Items[0].Star {
		t.Fatalf("stmt = %+v", sel)
	}
	cmp, ok := sel.Where.(*BinaryExpr)
	if !ok || cmp.Op != "=" {
		t.Fatalf("where = %v", sel.Where)
	}
	col, ok := cmp.Left.(*ColumnRef)
	if !ok || col.Name != "is_comedy" {
		t.Fatalf("lhs = %v", cmp.Left)
	}
	lit, ok := cmp.Right.(*Literal)
	if !ok || lit.Kind != LitBool || !lit.Bool {
		t.Fatalf("rhs = %v", cmp.Right)
	}
}

func TestParseHumorQuery(t *testing.T) {
	// "SELECT name FROM movies WHERE humor >= 8"
	s := mustParse(t, "SELECT name FROM movies WHERE humor >= 8")
	sel := s.(*SelectStmt)
	if len(sel.Items) != 1 || sel.Items[0].Star {
		t.Fatalf("items = %+v", sel.Items)
	}
	if e, ok := sel.Items[0].Expr.(*ColumnRef); !ok || e.Name != "name" {
		t.Fatalf("item = %+v", sel.Items[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3")
	sel := s.(*SelectStmt)
	// Expect OR(a=1, AND(b=2, NOT(c=3)))
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", sel.Where.String())
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %v", or.Right.String())
	}
	if _, ok := and.Right.(*UnaryExpr); !ok {
		t.Fatalf("expected NOT on the right of AND, got %v", and.Right.String())
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a + b * 2 >= c - 1")
	sel := s.(*SelectStmt)
	want := "((a + (b * 2)) >= (c - 1))"
	if got := sel.Where.String(); got != want {
		t.Fatalf("where = %s, want %s", got, want)
	}
}

func TestParseParentheses(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE (a OR b) AND c")
	sel := s.(*SelectStmt)
	want := "((a OR b) AND c)"
	if got := sel.Where.String(); got != want {
		t.Fatalf("where = %s, want %s", got, want)
	}
}

func TestParseIsNull(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE x IS NULL AND y IS NOT NULL")
	sel := s.(*SelectStmt)
	want := "((x IS NULL) AND (y IS NOT NULL))"
	if got := sel.Where.String(); got != want {
		t.Fatalf("where = %s, want %s", got, want)
	}
}

func TestParseOrderByLimit(t *testing.T) {
	s := mustParse(t, "SELECT name FROM movies ORDER BY year DESC, name LIMIT 10")
	sel := s.(*SelectStmt)
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("orderBy = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Fatalf("limit = %d", sel.Limit)
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustParse(t, "SELECT COUNT(*), AVG(humor) mean_humor FROM movies WHERE is_comedy = true")
	sel := s.(*SelectStmt)
	if sel.Items[0].Agg != AggCount || sel.Items[0].Expr != nil {
		t.Fatalf("item0 = %+v", sel.Items[0])
	}
	if sel.Items[1].Agg != AggAvg || sel.Items[1].Alias != "mean_humor" {
		t.Fatalf("item1 = %+v", sel.Items[1])
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Fatal("SUM(*) must be rejected")
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE movies (
		movie_id INTEGER,
		name VARCHAR(200),
		year INT,
		rating FLOAT,
		humor FLOAT PERCEPTUAL,
		is_comedy BOOLEAN PERCEPTUAL
	)`)
	ct := s.(*CreateTableStmt)
	if ct.Table != "movies" || len(ct.Columns) != 6 {
		t.Fatalf("stmt = %+v", ct)
	}
	if ct.Columns[1].Type != "TEXT" {
		t.Fatalf("VARCHAR should normalize to TEXT, got %s", ct.Columns[1].Type)
	}
	if ct.Columns[2].Type != "INTEGER" || ct.Columns[3].Type != "FLOAT" {
		t.Fatalf("types = %+v", ct.Columns)
	}
	if !ct.Columns[4].Perceptual || !ct.Columns[5].Perceptual || ct.Columns[0].Perceptual {
		t.Fatalf("perceptual flags wrong: %+v", ct.Columns)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO movies (movie_id, name) VALUES (1, 'Rocky'), (2, 'Psycho')")
	ins := s.(*InsertStmt)
	if ins.Table != "movies" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("stmt = %+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if lit.Kind != LitString || lit.Str != "Psycho" {
		t.Fatalf("value = %+v", lit)
	}
}

func TestParseInsertNegativeNumber(t *testing.T) {
	s := mustParse(t, "INSERT INTO t VALUES (-3, -2.5)")
	ins := s.(*InsertStmt)
	if lit := ins.Rows[0][0].(*Literal); lit.Kind != LitInt || lit.Int != -3 {
		t.Fatalf("folded literal = %+v", lit)
	}
	if lit := ins.Rows[0][1].(*Literal); lit.Kind != LitFloat || lit.Float != -2.5 {
		t.Fatalf("folded literal = %+v", lit)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s := mustParse(t, "UPDATE movies SET year = 1977, name = 'X' WHERE movie_id = 1")
	up := s.(*UpdateStmt)
	if len(up.Set) != 2 || up.Set[0].Column != "year" || up.Where == nil {
		t.Fatalf("stmt = %+v", up)
	}
	s = mustParse(t, "DELETE FROM movies WHERE year < 1950")
	del := s.(*DeleteStmt)
	if del.Table != "movies" || del.Where == nil {
		t.Fatalf("stmt = %+v", del)
	}
	s = mustParse(t, "DROP TABLE movies")
	if s.(*DropTableStmt).Table != "movies" {
		t.Fatalf("stmt = %+v", s)
	}
}

func TestParseExpand(t *testing.T) {
	s := mustParse(t, "EXPAND TABLE movies ADD COLUMN is_comedy BOOLEAN USING SPACE WITH SAMPLES 40 WITH BUDGET 2.50")
	ex := s.(*ExpandStmt)
	if ex.Table != "movies" || ex.Column.Name != "is_comedy" || ex.Column.Type != "BOOLEAN" {
		t.Fatalf("stmt = %+v", ex)
	}
	if ex.Method != ExpandSpace || ex.Samples != 40 || ex.Budget != 2.50 {
		t.Fatalf("stmt = %+v", ex)
	}
	if !ex.Column.Perceptual {
		t.Fatal("EXPAND columns default to perceptual")
	}

	s = mustParse(t, "EXPAND TABLE movies ADD COLUMN humor FLOAT USING CROWD")
	if s.(*ExpandStmt).Method != ExpandCrowd {
		t.Fatal("USING CROWD not parsed")
	}

	s = mustParse(t, "EXPAND TABLE movies ADD COLUMN humor FLOAT")
	if s.(*ExpandStmt).Method != ExpandSpace {
		t.Fatal("default method should be SPACE")
	}

	if _, err := Parse("EXPAND TABLE m ADD COLUMN c BOOLEAN USING MAGIC"); err == nil {
		t.Fatal("bad method must fail")
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * WHERE a = 1",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t LIMIT x",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a)",
		"CREATE TABLE t (a WIBBLE)",
		"INSERT INTO t",
		"INSERT t VALUES (1)",
		"UPDATE t SET",
		"DELETE t",
		"DROP t",
		"SELECT * FROM t; garbage",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t WHERE (a = 1",
		"EXPAND movies ADD COLUMN x BOOLEAN",
		"EXPAND TABLE movies ADD x BOOLEAN",
		"EXPAND TABLE m ADD COLUMN c BOOLEAN WITH SAMPLES 0",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseMultipleStatementsRejectedBySingleParse(t *testing.T) {
	if _, err := Parse("SELECT * FROM a; SELECT * FROM b"); err == nil {
		t.Fatal("Parse must reject multiple statements")
	}
}

func TestWalkColumns(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = 1 AND (b OR NOT c > 2) AND d IS NULL")
	sel := s.(*SelectStmt)
	var names []string
	WalkColumns(sel.Where, func(c *ColumnRef) { names = append(names, c.Name) })
	want := []string{"a", "b", "c", "d"}
	if len(names) != len(want) {
		t.Fatalf("columns = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("columns = %v, want %v", names, want)
		}
	}
	WalkColumns(nil, func(c *ColumnRef) { t.Fatal("nil expression must visit nothing") })
}

func TestLiteralString(t *testing.T) {
	cases := map[string]*Literal{
		"NULL":   {Kind: LitNull},
		"true":   {Kind: LitBool, Bool: true},
		"42":     {Kind: LitInt, Int: 42},
		"2.5":    {Kind: LitFloat, Float: 2.5},
		"'a''b'": {Kind: LitString, Str: "a'b"},
	}
	for want, lit := range cases {
		if got := lit.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestParseIsSafeForConcurrentUse: eight goroutines parsing different
// statements at once get what a serial parse of each gets — a parser
// shares no lookahead or buffer with another.
func TestParseIsSafeForConcurrentUse(t *testing.T) {
	stmts := []string{
		`SELECT name, COUNT(*) FROM movies m JOIN ratings r ON m.id = r.movie_id WHERE r.score >= 4.5 GROUP BY name ORDER BY name DESC LIMIT 10`,
		`INSERT INTO t (a, b, c) VALUES (1, 'it''s', -2.5), (2, NULL, 1e3)`,
		`UPDATE t SET a = a + 1, b = 'x' WHERE id = 7`,
		`DELETE FROM t WHERE a >= 1 AND a < 2`,
		`EXPLAIN ANALYZE SELECT DISTINCT k FROM t WHERE NOT (a IS NULL OR b != 'y')`,
		`CREATE TABLE movies (id INTEGER, name TEXT, funny BOOLEAN PERCEPTUAL)`,
		`SELECT * FROM t WHERE s = 'unterminated`,
		`SELECT a FROM t WHERE a = 1 AND`,
	}
	type outcome struct {
		stmt Statement
		err  string
	}
	want := make([]outcome, len(stmts))
	for i, sql := range stmts {
		s, err := Parse(sql)
		want[i] = outcome{s, fmt.Sprint(err)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				i := (g + r) % len(stmts)
				s, err := Parse(stmts[i])
				if got := (outcome{s, fmt.Sprint(err)}); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %q parses to %#v, serially to %#v", g, stmts[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParseAllocatesItsASTOnly: the parser pulls its tokens one at a time
// and keeps none, so parsing a single-row INSERT allocates the statement,
// its row list and row, four literals and the text literal's copy — 10
// objects, 23 while the whole token slice was built first — held to 15.
func TestParseAllocatesItsASTOnly(t *testing.T) {
	const sql = `INSERT INTO events VALUES (12345, 'user-17', 3.25, true)`
	got := testing.AllocsPerRun(200, func() {
		if _, err := Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	if got > 15 {
		t.Errorf("Parse(%q) allocates %.1f objects, want at most 15", sql, got)
	}
}
