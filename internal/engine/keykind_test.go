package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// The key-kind matrix: GROUP BY and the equi-join over every shape of
// key, each answer held — at exec-workers 1, 2 and 8 — to plain nested
// loops over Table.Scan rows written here. One INTEGER, FLOAT or BOOLEAN
// column takes the executor's typed key table, and the fixture gives it
// what a payload hash can get wrong: NULL keys, NaN, -0 beside 0, floats
// holding integers, an INTEGER column joined to a FLOAT one. TEXT and
// two-column keys keep the byte-key path under the same check.

const kkRows = 9000 // three morsels

// sameKey is key equality as GROUP BY and the hash join see it: kinds
// apart (unless numeric is set: then INTEGER and FLOAT meet as floats),
// -0 equal to 0, NaN equal to NaN. NULL is GROUP BY's own group and never
// a join match; the callers deal with it.
func sameKey(a, b storage.Value, numeric bool) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.Kind() == storage.KindFloat || b.Kind() == storage.KindFloat {
		if !numeric && a.Kind() != b.Kind() {
			return false
		}
		x, okx := a.AsFloat()
		y, oky := b.AsFloat()
		return okx && oky && (x == y || x != x && y != y)
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

func sameKeys(a, b []storage.Value, numeric bool) bool {
	for i := range a {
		if !sameKey(a[i], b[i], numeric) {
			return false
		}
	}
	return true
}

func keyKindEngine(t *testing.T) *Engine {
	t.Helper()
	old := plan.MinParallelRows
	plan.MinParallelRows = 64
	t.Cleanup(func() { plan.MinParallelRows = old })

	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE facts (id INTEGER, ik INTEGER, fk FLOAT, bk BOOLEAN, tk TEXT, v FLOAT)`)
	mustExec(t, e, `CREATE TABLE dims (ik INTEGER, fk FLOAT, bk BOOLEAN, tk TEXT, w INTEGER)`)
	floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5, math.NaN(), math.Float64frombits(0x7ff8000000000001), -3, 1e18}
	key := func(i int) (ik, fk, bk, tk storage.Value) {
		ik, fk = storage.Int(int64(i%23)-3), storage.Float(floats[i%len(floats)])
		bk, tk = storage.Bool(i%3 == 0), storage.Text(fmt.Sprintf("t%d", i%17))
		if i%11 == 0 {
			ik = storage.Null()
		}
		if i%13 == 0 {
			fk = storage.Null()
		}
		if i%5 == 4 {
			bk = storage.Null()
		}
		if i%19 == 0 {
			tk = storage.Null()
		}
		return
	}
	facts, _ := e.Catalog().Get("facts")
	for i := 0; i < kkRows; i++ {
		ik, fk, bk, tk := key(i)
		v := storage.Value(storage.Float(float64(i%41) / 2))
		if i%7 == 3 {
			v = storage.Null()
		}
		if err := facts.Insert(storage.Int(int64(i)), ik, fk, bk, tk, v); err != nil {
			t.Fatal(err)
		}
	}
	dims, _ := e.Catalog().Get("dims")
	for i := 0; i < 120; i++ {
		ik, fk, bk, tk := key(i * 7)
		if err := dims.Insert(ik, fk, bk, tk, storage.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// scanRows reads a table's rows the slow way.
func scanRows(e *Engine, table string) []storage.Row {
	tbl, _ := e.Catalog().Get(table)
	var rows []storage.Row
	tbl.Scan(func(_ int, row storage.Row) bool {
		rows = append(rows, row.Clone())
		return true
	})
	return rows
}

func TestKeyKindMatrixGroupBy(t *testing.T) {
	e := keyKindEngine(t)
	facts := scanRows(e, "facts")
	cols := map[string]int{"ik": 1, "fk": 2, "bk": 3, "tk": 4}
	const vCol = 5
	for _, keys := range [][]string{{"ik"}, {"fk"}, {"bk"}, {"tk"}, {"ik", "tk"}, {"fk", "bk"}} {
		list := strings.Join(keys, ", ")
		sql := fmt.Sprintf(`SELECT %s, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM facts WHERE id >= 5 GROUP BY %s`, list, list)
		got := bothDops(t, e, sql).Rows

		// The reference: groups in first-seen order, folded row by row.
		type group struct {
			key           []storage.Value
			rows, n       int64 // rows; non-NULL values of v
			sum, min, max float64
		}
		var want []*group
		for _, row := range facts {
			if id, _ := row[0].AsInt(); id < 5 {
				continue
			}
			key := make([]storage.Value, len(keys))
			for i, name := range keys {
				key[i] = row[cols[name]]
			}
			var g *group
			for _, cand := range want {
				if sameKeys(cand.key, key, false) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{key: key}
				want = append(want, g)
			}
			g.rows++
			if v, ok := row[vCol].AsFloat(); ok {
				if g.n == 0 || v < g.min {
					g.min = v
				}
				if g.n == 0 || v > g.max {
					g.max = v
				}
				g.n, g.sum = g.n+1, g.sum+v
			}
		}

		if len(got) != len(want) {
			t.Fatalf("GROUP BY %s: %d groups, want %d", list, len(got), len(want))
		}
		for i, g := range want {
			row, k := got[i], len(keys)
			if !sameKeys(row[:k], g.key, false) {
				t.Fatalf("GROUP BY %s: group %d has key %v, want %v (first-seen order)", list, i, row[:k], g.key)
			}
			rows, _ := row[k].AsInt()
			n, _ := row[k+1].AsInt()
			if rows != g.rows || n != g.n {
				t.Fatalf("GROUP BY %s: group %v counts %d rows, %d values; want %d, %d", list, g.key, rows, n, g.rows, g.n)
			}
			for j, wantF := range []float64{g.sum, g.sum / float64(g.n), g.min, g.max} {
				gotF, ok := row[k+2+j].AsFloat()
				if g.n == 0 {
					if !row[k+2+j].IsNull() {
						t.Fatalf("GROUP BY %s: group %v aggregate %d = %v over no value, want NULL", list, g.key, j, row[k+2+j])
					}
				} else if !ok || math.Abs(gotF-wantF) > 1e-9 {
					t.Fatalf("GROUP BY %s: group %v aggregate %d = %v, want %v", list, g.key, j, row[k+2+j], wantF)
				}
			}
		}
	}
}

func TestKeyKindMatrixJoin(t *testing.T) {
	e := keyKindEngine(t)
	facts, dims := scanRows(e, "facts"), scanRows(e, "dims")
	fcols := map[string]int{"ik": 1, "fk": 2, "bk": 3, "tk": 4}
	dcols := map[string]int{"ik": 0, "fk": 1, "bk": 2, "tk": 3}
	for _, on := range [][][2]string{
		{{"ik", "ik"}}, {{"fk", "fk"}}, {{"bk", "bk"}}, {{"tk", "tk"}},
		{{"ik", "fk"}}, {{"fk", "ik"}}, // INTEGER ⋈ FLOAT, either side building
		{{"ik", "ik"}, {"tk", "tk"}}, {{"fk", "fk"}, {"bk", "bk"}},
	} {
		var conds []string
		for _, pair := range on {
			conds = append(conds, fmt.Sprintf("f.%s = d.%s", pair[0], pair[1]))
		}
		cond := strings.Join(conds, " AND ")

		// The reference: every pair of rows, NULL matching nothing; each
		// match also adds the build row's w, so the right rows are checked
		// and not only how many.
		var wantN, wantW int64
		for _, f := range facts {
			for _, d := range dims {
				match := true
				for _, pair := range on {
					a, b := f[fcols[pair[0]]], d[dcols[pair[1]]]
					match = match && !a.IsNull() && sameKey(a, b, true)
				}
				if match {
					w, _ := d[4].AsInt()
					wantN, wantW = wantN+1, wantW+w
				}
			}
		}
		if wantN == 0 {
			t.Fatalf("ON %s: the fixture has no match", cond)
		}
		row := bothDops(t, e, `SELECT COUNT(*), SUM(d.w) FROM facts f JOIN dims d ON `+cond).Rows[0]
		gotN, _ := row[0].AsInt()
		gotW, _ := row[1].AsFloat()
		if gotN != wantN || int64(gotW) != wantW {
			t.Errorf("ON %s: %d matches with Σw %v, want %d with %d", cond, gotN, gotW, wantN, wantW)
		}
		// Output order is the probe's, each probe row's matches in build
		// order: the same at every dop.
		bothDops(t, e, `SELECT f.id, d.w FROM facts f JOIN dims d ON `+cond+` WHERE f.id < 4200`)
	}
}
