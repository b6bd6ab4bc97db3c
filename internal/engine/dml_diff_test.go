package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// The DML half of the correctness wall: seeded random UPDATE, DELETE and
// INSERT statements run against a table and against a plain-Go model of
// it, compared after every statement — the affected count (or that the
// statement failed and changed nothing), the whole table in physical
// order, and every index through its probes. The axes below must not
// matter: which index the table has, the degree of parallelism, and
// whether a compaction renumbered the rows half-way.

// dmlRow is the model's row of d(id, k, v, s, b); nil is NULL.
type dmlRow struct {
	id   int64
	k    *int64
	v    *float64
	s    *string
	b    *bool
	dead bool
}

func (r dmlRow) values() storage.Row {
	row := storage.Row{storage.Int(r.id), storage.Null(), storage.Null(), storage.Null(), storage.Null()}
	if r.k != nil {
		row[1] = storage.Int(*r.k)
	}
	if r.v != nil {
		row[2] = storage.Float(*r.v)
	}
	if r.s != nil {
		row[3] = storage.Text(*r.s)
	}
	if r.b != nil {
		row[4] = storage.Bool(*r.b)
	}
	return row
}

// tri is the model's three-valued truth: -1 unknown, 0 false, 1 true.
type tri int8

func triBool(b bool) tri {
	if b {
		return 1
	}
	return 0
}

// dmlPred is a WHERE in both forms: SQL text and the model's evaluation.
type dmlPred struct {
	sql  string
	eval func(r dmlRow) tri
}

// cmpK is the model of `k OP c` under 3VL.
func cmpK(op string, c int64) func(dmlRow) tri {
	return func(r dmlRow) tri {
		if r.k == nil {
			return -1
		}
		switch op {
		case "=":
			return triBool(*r.k == c)
		case ">=":
			return triBool(*r.k >= c)
		case "<=":
			return triBool(*r.k <= c)
		case "<":
			return triBool(*r.k < c)
		}
		panic(op)
	}
}

func and3(a, b tri) tri {
	switch {
	case a == 0 || b == 0:
		return 0
	case a < 0 || b < 0:
		return -1
	}
	return 1
}

func or3(a, b tri) tri {
	switch {
	case a == 1 || b == 1:
		return 1
	case a < 0 || b < 0:
		return -1
	}
	return 0
}

// randomPred draws one of the WHERE shapes: equality on k and on (k, s),
// half-open and closed ranges on k, a range with a residual, residuals
// no kernel takes (arithmetic, column = column, OR), IS NULL, a constant,
// no match, all match, and no WHERE at all.
func randomPred(rng *rand.Rand) dmlPred {
	a := int64(rng.Intn(50))
	w := int64(1 + rng.Intn(6))
	c := float64(rng.Intn(40)) / 2
	switch rng.Intn(16) {
	case 0:
		return dmlPred{fmt.Sprintf("k = %d", a), cmpK("=", a)}
	case 12, 13, 14:
		return dmlPred{fmt.Sprintf("k = %d AND s = 's%d'", a, a%8), func(r dmlRow) tri {
			t := tri(-1)
			if r.s != nil {
				t = triBool(*r.s == fmt.Sprintf("s%d", a%8))
			}
			return and3(cmpK("=", a)(r), t)
		}}
	case 1:
		return dmlPred{fmt.Sprintf("k >= %d AND k < %d", a, a+w), func(r dmlRow) tri {
			return and3(cmpK(">=", a)(r), cmpK("<", a+w)(r))
		}}
	case 2:
		return dmlPred{fmt.Sprintf("k >= %d AND k <= %d", a, a+w), func(r dmlRow) tri {
			return and3(cmpK(">=", a)(r), cmpK("<=", a+w)(r))
		}}
	case 3:
		return dmlPred{fmt.Sprintf("k >= %d AND k < %d AND v > %g", a, a+3*w, c), func(r dmlRow) tri {
			t := and3(cmpK(">=", a)(r), cmpK("<", a+3*w)(r))
			if r.v == nil {
				return and3(t, -1)
			}
			return and3(t, triBool(*r.v > c))
		}}
	case 4:
		return dmlPred{fmt.Sprintf("k + 1 > %d", a+40), func(r dmlRow) tri {
			if r.k == nil {
				return -1
			}
			return triBool(*r.k+1 > a+40)
		}}
	case 5:
		return dmlPred{"k = id", func(r dmlRow) tri {
			if r.k == nil {
				return -1
			}
			return triBool(*r.k == r.id)
		}}
	case 6:
		return dmlPred{fmt.Sprintf("k < %d OR b = true", a/8), func(r dmlRow) tri {
			t := tri(-1)
			if r.b != nil {
				t = triBool(*r.b)
			}
			return or3(cmpK("<", a/8)(r), t)
		}}
	case 7:
		return dmlPred{"s IS NULL AND k IS NOT NULL", func(r dmlRow) tri { return triBool(r.s == nil && r.k != nil) }}
	case 8:
		return dmlPred{fmt.Sprintf("s = 's%d' AND v * 2 < %g", a%8, c*3), func(r dmlRow) tri {
			t, u := tri(-1), tri(-1)
			if r.s != nil {
				t = triBool(*r.s == fmt.Sprintf("s%d", a%8))
			}
			if r.v != nil {
				u = triBool(*r.v*2 < c*3)
			}
			return and3(t, u)
		}}
	case 9:
		return dmlPred{"k < -1", cmpK("<", -1)}
	case 10:
		return dmlPred{"id >= 0", func(dmlRow) tri { return 1 }}
	case 11:
		return dmlPred{fmt.Sprintf("false AND k = %d", a), func(dmlRow) tri { return 0 }}
	}
	return dmlPred{"", func(dmlRow) tri { return 1 }}
}

// dmlSet is a SET list in both forms; apply computes the new row from the
// old one and reports a cell that cannot be coerced to its column.
type dmlSet struct {
	sql   string
	apply func(old dmlRow) (dmlRow, bool)
}

// randomSet draws a SET list: constants and NULLs, expressions reading the
// target itself or other columns (always the old row), several targets at
// once, the indexed column as target, and a FLOAT assigned to the INTEGER
// k, which fails the whole statement when any matched v is not integral.
func randomSet(rng *rand.Rand) dmlSet {
	c := int64(rng.Intn(50))
	switch rng.Intn(9) {
	case 0:
		return dmlSet{"v = v + 1", func(r dmlRow) (dmlRow, bool) {
			if r.v != nil {
				nv := *r.v + 1
				r.v = &nv
			}
			return r, true
		}}
	case 1:
		return dmlSet{"k = k + 1", func(r dmlRow) (dmlRow, bool) {
			if r.k != nil {
				nk := *r.k + 1
				r.k = &nk
			}
			return r, true
		}}
	case 2:
		return dmlSet{fmt.Sprintf("k = %d, v = k * 0.5", c), func(r dmlRow) (dmlRow, bool) {
			r.v = nil
			if r.k != nil {
				nv := float64(*r.k) * 0.5
				r.v = &nv
			}
			r.k = &c
			return r, true
		}}
	case 3:
		return dmlSet{"k = NULL, s = 'gone'", func(r dmlRow) (dmlRow, bool) {
			s := "gone"
			r.k, r.s = nil, &s
			return r, true
		}}
	case 4:
		return dmlSet{"s = NULL", func(r dmlRow) (dmlRow, bool) { r.s = nil; return r, true }}
	case 5:
		return dmlSet{fmt.Sprintf("b = k > %d", c), func(r dmlRow) (dmlRow, bool) {
			r.b = nil
			if r.k != nil {
				nb := *r.k > c
				r.b = &nb
			}
			return r, true
		}}
	case 6:
		return dmlSet{"v = k", func(r dmlRow) (dmlRow, bool) {
			r.v = nil
			if r.k != nil {
				nv := float64(*r.k)
				r.v = &nv
			}
			return r, true
		}}
	case 7:
		return dmlSet{"k = v", func(r dmlRow) (dmlRow, bool) {
			if r.v == nil {
				r.k = nil
				return r, true
			}
			nk := int64(*r.v)
			r.k = &nk
			return r, float64(nk) == *r.v
		}}
	}
	return dmlSet{"k = id - k, b = NULL", func(r dmlRow) (dmlRow, bool) {
		if r.k != nil {
			nk := r.id - *r.k
			r.k = &nk
		}
		r.b = nil
		return r, true
	}}
}

// randomDMLRow draws a row with every nullable column NULL one time in
// six; k stays within 0..49 and s within 8 strings so that probes and
// composite keys repeat.
func randomDMLRow(rng *rand.Rand, id int64) dmlRow {
	r := dmlRow{id: id}
	if rng.Intn(6) > 0 {
		k := int64(rng.Intn(50))
		r.k = &k
	}
	if rng.Intn(6) > 0 {
		v := float64(rng.Intn(80)) / 2
		r.v = &v
	}
	if rng.Intn(6) > 0 {
		s := fmt.Sprintf("s%d", rng.Intn(8))
		r.s = &s
	}
	if rng.Intn(6) > 0 {
		b := rng.Intn(2) == 0
		r.b = &b
	}
	return r
}

func sqlLit(v storage.Value) string {
	switch v.Kind() {
	case storage.KindNull:
		return "NULL"
	case storage.KindText:
		s, _ := v.AsText()
		return "'" + s + "'"
	}
	return v.String()
}

// dmlIndexes are the index axis: the DDL to run and the access paths,
// besides Scan, that a run's statements must have been planned with.
var dmlIndexes = []struct {
	name  string
	ddl   []string
	paths []string
}{
	{"none", nil, nil},
	{"hash", []string{`CREATE INDEX d_k ON d (k) USING HASH`}, []string{"IndexScan"}},
	{"ordered", []string{`CREATE INDEX d_k ON d (k)`}, []string{"IndexScan", "IndexRange"}},
	{"composite", []string{`CREATE INDEX d_ks ON d (k, s)`}, []string{"IndexScan"}},
	{"desc", []string{`CREATE INDEX d_k ON d (k DESC)`}, []string{"IndexScan", "IndexRange"}},
	{"two", []string{`CREATE INDEX d_k ON d (k)`, `CREATE INDEX d_s ON d (s) USING HASH`}, []string{"IndexScan", "IndexRange"}},
}

func TestDMLSeededDifferential(t *testing.T) {
	old := plan.MinParallelRows
	plan.MinParallelRows = 64
	t.Cleanup(func() { plan.MinParallelRows = old })

	for _, ix := range dmlIndexes {
		for _, workers := range []int{1, 2, 8} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/workers=%d/seed=%d", ix.name, workers, seed), func(t *testing.T) {
					paths := runDMLDifferential(t, ix.ddl, workers, seed)
					for _, want := range append(ix.paths, "Scan") {
						if paths[want] == 0 {
							t.Fatalf("no statement was planned with %s: %v", want, paths)
						}
					}
				})
			}
		}
	}
}

// dmlRun is one run's engine, model and statement history.
type dmlRun struct {
	t     *testing.T
	e     *Engine
	tbl   *storage.Table
	model []dmlRow // by physical row ID
	log   []string
	paths map[string]int // access paths of the UPDATEs and DELETEs, by node name
}

func (d *dmlRun) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s\nstatements so far:\n  %s", fmt.Sprintf(format, args...), strings.Join(d.log, "\n  "))
}

func runDMLDifferential(t *testing.T, ddl []string, workers int, seed int64) map[string]int {
	rng := rand.New(rand.NewSource(seed))
	e := New(storage.NewCatalog())
	e.SetExecWorkers(workers)
	mustExec(t, e, `CREATE TABLE d (id INTEGER, k INTEGER, v FLOAT, s TEXT, b BOOLEAN)`)
	for _, stmt := range ddl {
		mustExec(t, e, stmt)
	}
	tbl, _ := e.Catalog().Get("d")
	d := &dmlRun{t: t, e: e, tbl: tbl, paths: map[string]int{}}
	// Past one sealed chunk, so that a parallel plan has two morsels and
	// SetBatch writes sealed chunks as well as the tail.
	for i := 0; i < storage.ChunkRows+700; i++ {
		r := randomDMLRow(rng, int64(i))
		if err := tbl.Insert(r.values()...); err != nil {
			t.Fatal(err)
		}
		d.model = append(d.model, r)
	}
	d.check("load")

	const statements = 36
	for n := 0; n < statements; n++ {
		if n == statements/2 {
			d.compact()
		}
		switch pick := rng.Intn(10); {
		case pick < 5:
			d.update(randomSet(rng), randomPred(rng))
		case pick < 8:
			d.delete(randomPred(rng))
		default:
			d.insert(rng)
		}
	}
	return d.paths
}

// exec runs sql and returns the affected count, or the error text.
func (d *dmlRun) exec(sql string) (int, string) {
	d.log = append(d.log, sql)
	if !strings.HasPrefix(sql, "INSERT") {
		lines := explainLines(d.t, d.e, sql)
		leaf := strings.TrimLeft(lines[len(lines)-1], " └─")
		d.paths[leaf[:strings.Index(leaf, "(")]]++
	}
	res, err := d.e.ExecSQL(sql)
	if err != nil {
		return 0, err.Error()
	}
	requireNoPins(d.t, d.e)
	return res.Affected, ""
}

func where(p dmlPred) string {
	if p.sql == "" {
		return ""
	}
	return " WHERE " + p.sql
}

func (d *dmlRun) update(set dmlSet, p dmlPred) {
	next := append([]dmlRow(nil), d.model...)
	want, coerces := 0, true
	for i, r := range d.model {
		if r.dead || p.eval(r) != 1 {
			continue
		}
		nr, ok := set.apply(r)
		next[i], coerces = nr, coerces && ok
		want++
	}
	got, errText := d.exec("UPDATE d SET " + set.sql + where(p))
	switch {
	case !coerces:
		if !strings.Contains(errText, "cannot coerce") {
			d.fail("UPDATE of a non-integral FLOAT into k: affected %d, error %q; want a coercion error", got, errText)
		}
		// d.model stays: the failed statement changed nothing.
	case errText != "":
		d.fail("UPDATE failed: %s", errText)
	case got != want:
		d.fail("UPDATE affected %d rows, model says %d", got, want)
	default:
		d.model = next
	}
	d.check("UPDATE")
}

func (d *dmlRun) delete(p dmlPred) {
	want := 0
	for i, r := range d.model {
		if !r.dead && p.eval(r) == 1 {
			d.model[i].dead = true
			want++
		}
	}
	got, errText := d.exec("DELETE FROM d" + where(p))
	if errText != "" || got != want {
		d.fail("DELETE affected %d rows (error %q), model says %d", got, errText, want)
	}
	d.check("DELETE")
}

func (d *dmlRun) insert(rng *rand.Rand) {
	var tuples []string
	for n := 1 + rng.Intn(3); n > 0; n-- {
		r := randomDMLRow(rng, int64(len(d.model)))
		d.model = append(d.model, r)
		var lits []string
		for _, v := range r.values() {
			lits = append(lits, sqlLit(v))
		}
		tuples = append(tuples, "("+strings.Join(lits, ", ")+")")
	}
	if _, errText := d.exec("INSERT INTO d VALUES " + strings.Join(tuples, ", ")); errText != "" {
		d.fail("INSERT failed: %s", errText)
	}
	d.check("INSERT")
}

// compact forces a compaction: the dead rows go and the survivors are
// renumbered, in the table and in the model.
func (d *dmlRun) compact() {
	d.log = append(d.log, "-- forced compaction")
	hadDead := d.tbl.Tombstones() > 0
	res, err := d.tbl.Compact(storage.CompactionPolicy{Force: true})
	if err != nil || res.Compacted != hadDead {
		d.fail("forced compaction: %+v, %v (tombstones before: %v)", res, err, hadDead)
	}
	live := d.model[:0]
	for _, r := range d.model {
		if !r.dead {
			live = append(live, r)
		}
	}
	d.model = live
	d.check("compaction")
}

// check compares the table and its indexes with the model.
func (d *dmlRun) check(after string) {
	d.t.Helper()
	var wantIDs []int
	for id, r := range d.model {
		if !r.dead {
			wantIDs = append(wantIDs, id)
		}
	}
	n := 0
	d.tbl.Scan(func(id int, row storage.Row) bool {
		if n >= len(wantIDs) || id != wantIDs[n] || !equalRows(row, d.model[id].values()) {
			d.fail("after %s: table row %d is physical row %d = %v; model has %d live rows, the %dth being row %d = %v",
				after, n, id, row, len(wantIDs), n, at(wantIDs, n), d.model[at(wantIDs, n)].values())
		}
		n++
		return true
	})
	if n != len(wantIDs) {
		d.fail("after %s: table has %d live rows, model %d", after, n, len(wantIDs))
	}
	for _, meta := range d.tbl.IndexMetas() {
		d.checkIndex(after, meta)
	}
}

// equalRows compares cell by cell with ==: no cell here is NaN.
func equalRows(a, b storage.Row) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func at(ids []int, n int) int {
	if n < len(ids) {
		return ids[n]
	}
	return 0
}

// checkIndex compares one index with the model: the number of entries,
// Lookup of every key the model holds (and of one it does not), and for
// an ordered index the full Range in index order.
func (d *dmlRun) checkIndex(after string, meta storage.IndexMeta) {
	d.t.Helper()
	cols := make([]int, len(meta.Columns))
	for i, col := range meta.Columns {
		cols[i], _ = d.tbl.Schema().Lookup(col)
	}
	var text []byte
	keyOf := func(r dmlRow) ([]storage.Value, bool) {
		key := make([]storage.Value, len(cols))
		vals := r.values()
		text = text[:0]
		for i, ci := range cols {
			if key[i] = vals[ci]; key[i].IsNull() {
				return nil, false
			}
			text = storage.AppendKey(text, key[i], true)
		}
		return key, true
	}
	type entry struct {
		key []storage.Value
		id  int
	}
	var entries []entry
	byKey := map[string][]int{}
	keys := map[string][]storage.Value{}
	for id, r := range d.model {
		if key, ok := keyOf(r); ok && !r.dead {
			entries = append(entries, entry{key, id})
			byKey[string(text)], keys[string(text)] = append(byKey[string(text)], id), key
		}
	}
	if meta.Entries != len(entries) {
		d.fail("after %s: index %s holds %d entries, model %d", after, meta.Name, meta.Entries, len(entries))
	}
	probe := func(p storage.IndexProbe) []int {
		snap, ids, err := d.tbl.PinIndexProbe(meta.Name, p)
		if err != nil {
			d.fail("after %s: probing %s: %v", after, meta.Name, err)
		}
		snap.Release()
		return ids
	}
	for text, key := range keys {
		if got, want := probe(storage.IndexProbe{Key: key}), byKey[text]; fmt.Sprint(got) != fmt.Sprint(want) {
			d.fail("after %s: index %s Lookup(%v) = %v, model %v", after, meta.Name, key, got, want)
		}
	}
	absent := make([]storage.Value, len(meta.Columns))
	for i := range absent {
		absent[i] = storage.Int(1 << 40)
	}
	if got := probe(storage.IndexProbe{Key: absent}); len(got) != 0 {
		d.fail("after %s: index %s Lookup(%v) = %v, model has no such key", after, meta.Name, absent, got)
	}
	if !meta.Ordered {
		return
	}
	sort.SliceStable(entries, func(i, j int) bool {
		for c := range meta.Columns {
			cmp, _ := entries[i].key[c].Compare(entries[j].key[c])
			if meta.Dirs[c] {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false // ties stay in row order
	})
	want := make([]int, len(entries))
	for i, en := range entries {
		want[i] = en.id
	}
	if got := probe(storage.IndexProbe{}); fmt.Sprint(got) != fmt.Sprint(want) {
		d.fail("after %s: index %s full Range = %v\nmodel %v", after, meta.Name, got, want)
	}
}
