package sqlparse

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzParse: arbitrary bytes through Parse never panic; text Tokenize
// refuses, Parse refuses with Tokenize's error, wherever in the text the
// lexing error is; the same text parses twice to equal statements (or
// the same error); and the WHERE expression of every SELECT that parses
// prints to text that parses back to the same text. The corpus is seeded
// with the round-trip generator's expressions.
func FuzzParse(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 64; i++ {
		f.Add("SELECT * FROM t WHERE " + genExpr(rng, 1+rng.Intn(4)).String())
	}
	for _, sql := range []string{
		`SELECT name, COUNT(*) FROM movies m JOIN ratings r ON m.id = r.movie_id WHERE r.score >= 4.5 AND m.year < 2000 GROUP BY name HAVING COUNT(*) > 3 ORDER BY name DESC LIMIT 10`,
		`SELECT DISTINCT k FROM t WHERE NOT (a IS NULL OR b != 'it''s')`,
		`INSERT INTO t VALUES (1, 'a', NULL, -2.5)`,
		`UPDATE t SET a = a + 1 WHERE id = 7`,
		`DELETE FROM t WHERE a BETWEEN 1 AND 2`,
		`EXPLAIN ANALYZE SELECT * FROM t WHERE a IN (1, 2, 3)`,
		`CREATE INDEX i ON t (a) USING ORDERED`,
		`SELECT*FROM A WHERE(-.0)`, // an integral float once printed as an integer
		`SELECT * FROM t WHERE x > 2.0 + 99999999999999999999`,
		`SELECT * FROM t WHERE a = 1 AND AND b = 'unterminated`, // a parse error before a lexing error
		`SELECT FROM; SELECT * FROM t WHERE 1e`,
		`INSERT INTO t VALUES ('it''s', 'x''', '''')`,
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if _, lexErr := Tokenize(sql); lexErr != nil && (err == nil || err.Error() != lexErr.Error()) {
			t.Fatalf("%q: Tokenize fails with %q, Parse with %v", sql, lexErr, err)
		}
		again, againErr := Parse(sql)
		if !reflect.DeepEqual(stmt, again) || fmt.Sprint(err) != fmt.Sprint(againErr) {
			t.Fatalf("%q parses to %#v, %v, then to %#v, %v", sql, stmt, err, again, againErr)
		}
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok || sel.Where == nil {
			return
		}
		text := sel.Where.String()
		back, err := Parse("SELECT * FROM t WHERE " + text)
		if err != nil {
			t.Fatalf("%q: its WHERE prints as %q, which does not parse: %v", sql, text, err)
		}
		if got := back.(*SelectStmt).Where.String(); got != text {
			t.Fatalf("%q: its WHERE prints as %q, which parses back as %q", sql, text, got)
		}
	})
}
