package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseCreateIndex(t *testing.T) {
	cases := []struct {
		sql  string
		want CreateIndexStmt
	}{
		{`CREATE INDEX idx_year ON movies (year)`,
			CreateIndexStmt{Name: "idx_year", Table: "movies",
				Columns: []IndexCol{{Name: "year"}}, Kind: "ordered"}},
		{`create index i1 on t (c) using hash`,
			CreateIndexStmt{Name: "i1", Table: "t",
				Columns: []IndexCol{{Name: "c"}}, Kind: "hash"}},
		{`CREATE INDEX i1 ON t (c) USING ORDERED;`,
			CreateIndexStmt{Name: "i1", Table: "t",
				Columns: []IndexCol{{Name: "c"}}, Kind: "ordered"}},
		{`CREATE INDEX gy ON movies (genre, year DESC)`,
			CreateIndexStmt{Name: "gy", Table: "movies",
				Columns: []IndexCol{{Name: "genre"}, {Name: "year", Desc: true}},
				Kind:    "ordered"}},
		{`CREATE INDEX abc ON t (a ASC, b DESC, c) USING HASH`,
			CreateIndexStmt{Name: "abc", Table: "t",
				Columns: []IndexCol{{Name: "a"}, {Name: "b", Desc: true}, {Name: "c"}},
				Kind:    "hash"}},
	}
	for _, c := range cases {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got, ok := stmt.(*CreateIndexStmt)
		if !ok {
			t.Fatalf("%s: parsed %T", c.sql, stmt)
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Fatalf("%s: got %+v, want %+v", c.sql, *got, c.want)
		}
	}
}

func TestParseCreateIndexErrors(t *testing.T) {
	cases := []struct {
		sql     string
		wantErr string
	}{
		{`CREATE INDEX ON t (c)`, "expected identifier"},
		{`CREATE INDEX i ON t ()`, "expected identifier"},
		{`CREATE INDEX i ON t (a, )`, "expected identifier"},
		{`CREATE INDEX i ON t (c) USING btree`, "expected HASH or ORDERED"},
		{`CREATE INDEX i ON t`, `expected "("`},
	}
	for _, c := range cases {
		_, err := Parse(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", c.sql, err, c.wantErr)
		}
	}
}

func TestParseDropIndex(t *testing.T) {
	cases := []struct {
		sql  string
		want DropIndexStmt
	}{
		{`DROP INDEX idx_year ON movies`, DropIndexStmt{Name: "idx_year", Table: "movies"}},
		{`drop index i1 on t;`, DropIndexStmt{Name: "i1", Table: "t"}},
	}
	for _, c := range cases {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got, ok := stmt.(*DropIndexStmt)
		if !ok {
			t.Fatalf("%s: parsed %T", c.sql, stmt)
		}
		if *got != c.want {
			t.Fatalf("%s: got %+v, want %+v", c.sql, *got, c.want)
		}
	}
}

func TestParseDropIndexErrors(t *testing.T) {
	cases := []struct {
		sql     string
		wantErr string
	}{
		{`DROP INDEX ON movies`, "expected identifier"},
		{`DROP INDEX i`, "expected ON"},
		{`DROP INDEX i ON`, "expected identifier"},
	}
	for _, c := range cases {
		_, err := Parse(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", c.sql, err, c.wantErr)
		}
	}
}

// TestCreateTableStillParses guards the CREATE dispatch split.
func TestCreateTableStillParses(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE t (a INTEGER, b TEXT)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTableStmt)
	if !ok || ct.Table != "t" || len(ct.Columns) != 2 {
		t.Fatalf("parsed %#v", stmt)
	}
}
