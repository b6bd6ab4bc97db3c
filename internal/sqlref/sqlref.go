// Package sqlref is a reference interpreter for SELECTs, and the seeded
// generator that writes them, over a small fixture that holds NULLs. It
// evaluates a query with naive nested loops over Table.Scan rows and
// shares nothing with the planner or the executor — not their comparison,
// their three-valued logic, their grouping or their sort — so a semantic
// drift every engine path shares still shows as a disagreement. Tests
// import it; the program does not.
//
// The generated queries cover WHERE with AND, OR, NOT, comparisons and IS
// [NOT] NULL; GROUP BY with HAVING over COUNT, SUM, AVG, MIN and MAX;
// DISTINCT; ORDER BY ASC/DESC with LIMIT; and the two-table equi-join
// t JOIN u ON t.k = u.k, whose columns are written qualified, or in half
// the joins bare where one table alone has the name. Floats are quarters,
// so sums do not depend on the order they are added in.
package sqlref

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"crowddb/internal/storage"
)

// FixtureRows is the number of rows of t: three morsels (storage
// windows), so that a plan at four workers runs three, and enough that a
// query reading many of them answers well over the result cache's 16 KiB
// admission line, while a GROUP BY of a few groups answers far under it.
const FixtureRows = 2*storage.ChunkRows + 100

// Fixture returns the statements that create, index and fill the
// fixture, whose indexes put index leaves under generated queries:
//
//	t (id INTEGER, k INTEGER, x FLOAT, s TEXT, b BOOLEAN) — FixtureRows rows, on id, (k, x DESC) and s (hash)
//	u (k INTEGER, label TEXT, w INTEGER)                  — 10 rows, on k
//
// id is the row's number and never NULL; every other column of t is NULL
// on a stride of its own. u holds k = 3 twice and one NULL k.
func Fixture() []string {
	stmts := []string{
		`CREATE TABLE t (id INTEGER, k INTEGER, x FLOAT, s TEXT, b BOOLEAN)`,
		`CREATE TABLE u (k INTEGER, label TEXT, w INTEGER)`,
		`CREATE INDEX t_id ON t (id)`, `CREATE INDEX t_k_x ON t (k, x DESC)`,
		`CREATE INDEX t_s ON t (s) USING HASH`, `CREATE INDEX u_k ON u (k)`,
	}
	var vals []string
	for i := 0; i < FixtureRows; i++ {
		k, x, s, b := fmt.Sprint(i%7), fmt.Sprintf("%.2f", float64(i%40)/4), fmt.Sprintf("'s%02d'", i%30), fmt.Sprint(i%3 == 0)
		if i%11 == 0 {
			k = "NULL"
		}
		if i%13 == 0 {
			x = "NULL"
		}
		if i%17 == 0 {
			s = "NULL"
		}
		if i%19 == 0 {
			b = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s, %s)", i, k, x, s, b))
		if len(vals) == 100 || i == FixtureRows-1 {
			stmts = append(stmts, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	stmts = append(stmts, `INSERT INTO u VALUES (0, 'zero', 4), (1, 'one', 7), (2, 'two', 1), (3, 'three', 9), (3, 'three again', 2), `+
		`(4, 'four', NULL), (5, NULL, 5), (7, 'seven', 3), (NULL, 'none', 6), (8, 'eight', 0)`)
	return stmts
}

// column is one fixture column: its table, name and kind.
type column struct {
	table, name string
	kind        storage.Kind
}

var (
	tCols = []column{{"t", "id", storage.KindInt}, {"t", "k", storage.KindInt}, {"t", "x", storage.KindFloat}, {"t", "s", storage.KindText}, {"t", "b", storage.KindBool}}
	uCols = []column{{"u", "k", storage.KindInt}, {"u", "label", storage.KindText}, {"u", "w", storage.KindInt}}
)

// Query is one generated SELECT.
type Query struct {
	Join bool // FROM t JOIN u ON t.k = u.k; otherwise FROM t
	// Bare writes a join's columns unqualified where one table alone has
	// the name: the planner, and the cache's footprints, resolve them by
	// the tables' schemas.
	Bare     bool
	Distinct bool
	Items    []Item
	Where    Expr
	GroupBy  []int // indexes into Items, each a plain column
	Having   Expr  // over the aggregate items
	OrderBy  []Order
	Limit    int // 0: none
}

// Item is one output column: a column, or an aggregate of one (Col is
// nil for COUNT(*)).
type Item struct {
	Agg string // "", COUNT, SUM, AVG, MIN or MAX
	Col *column
}

// Order is one ORDER BY key: an output column, by index.
type Order struct {
	Item int
	Desc bool
}

// Ordered reports whether the answer's row order is the query's to
// decide: an ORDER BY over one table, whose ties keep table order (or,
// grouped, the order groups were first seen in). Any other answer is
// compared as a multiset.
func (q *Query) Ordered() bool { return len(q.OrderBy) > 0 && !q.Join }

// Generate writes a query from rng.
func Generate(rng *rand.Rand) *Query {
	q := &Query{}
	switch rng.Intn(5) {
	case 0, 1: // plain
		q.Items = pickColumns(rng, tCols, 1+rng.Intn(4))
		q.Where = genPred(rng, tCols, 3)
		if rng.Intn(2) == 0 {
			q.orderBy(rng)
			if rng.Intn(2) == 0 {
				q.Limit = 1 + rng.Intn(60)
			}
		}
	case 2: // distinct
		q.Distinct = true
		q.Items = pickColumns(rng, []column{tCols[1], tCols[3], tCols[4]}, 1+rng.Intn(2))
		if rng.Intn(2) == 0 {
			q.Where = genPred(rng, tCols, 2)
		}
		if rng.Intn(2) == 0 {
			q.orderBy(rng)
		}
	case 3: // grouped
		q.Items = pickColumns(rng, tCols[:4], 1+rng.Intn(2))
		for i := range q.Items {
			q.GroupBy = append(q.GroupBy, i)
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			q.Items = append(q.Items, genAgg(rng))
		}
		if rng.Intn(2) == 0 {
			q.Where = genPred(rng, tCols, 2)
		}
		if rng.Intn(2) == 0 {
			q.Having = genHaving(rng, q)
		}
		if rng.Intn(2) == 0 {
			for _, g := range q.GroupBy {
				q.OrderBy = append(q.OrderBy, Order{Item: g, Desc: rng.Intn(2) == 0})
			}
			if rng.Intn(2) == 0 {
				q.Limit = 1 + rng.Intn(20)
			}
		}
	default: // join
		q.Join = true
		q.Items = append(pickColumns(rng, tCols, 1+rng.Intn(2)), pickColumns(rng, uCols, 1+rng.Intn(2))...)
		if rng.Intn(3) > 0 {
			q.Where = genPred(rng, append(slices.Clone(tCols), uCols...), 2)
		}
		q.Bare = rng.Intn(2) == 0
	}
	return q
}

// GenerateBounded writes a query over t alone whose WHERE is a
// conjunction that bounds an INTEGER column, id or k, with a literal in
// the generated range — the shape a result-cache entry is checked by
// interval — and whose answer moves with every row it selects: the
// selected rows' COUNT(*) and SUM of k or of x, grouped by k or by b.
func GenerateBounded(rng *rand.Rand) *Query {
	bound := func() Expr {
		return &colCmp{col: &tCols[rng.Intn(2)], op: cmpOps[2+rng.Intn(4)], lit: genLiteral(rng, storage.KindInt, false)}
	}
	by := &tCols[1+3*rng.Intn(2)]
	q := &Query{
		Items:   []Item{{Col: by}, {Agg: "COUNT"}, {Agg: "SUM", Col: &tCols[1+rng.Intn(2)]}},
		GroupBy: []int{0},
		Where:   bound(),
	}
	switch rng.Intn(4) {
	case 0:
		q.Where = &logic{op: "AND", l: q.Where, r: bound()}
	case 1:
		q.Where = &logic{op: "AND", l: genPred(rng, tCols, 1), r: q.Where}
	case 2:
		q.Where = &colCmp{col: &tCols[rng.Intn(2)], op: "=", lit: genLiteral(rng, storage.KindInt, false)}
	}
	return q
}

// pickColumns returns n items, columns of cols in a random order.
func pickColumns(rng *rand.Rand, cols []column, n int) []Item {
	items := make([]Item, 0, n)
	for _, i := range rng.Perm(len(cols))[:min(n, len(cols))] {
		items = append(items, Item{Col: &cols[i]})
	}
	return items
}

// orderBy orders a plain or DISTINCT query by one or two of its columns.
func (q *Query) orderBy(rng *rand.Rand) {
	for _, i := range rng.Perm(len(q.Items))[:1+rng.Intn(min(2, len(q.Items)))] {
		q.OrderBy = append(q.OrderBy, Order{Item: i, Desc: rng.Intn(2) == 0})
	}
}

func genAgg(rng *rand.Rand) Item {
	switch rng.Intn(6) {
	case 0:
		return Item{Agg: "COUNT"}
	case 1:
		return Item{Agg: "COUNT", Col: &tCols[1+rng.Intn(4)]}
	case 2:
		return Item{Agg: "SUM", Col: &tCols[1+rng.Intn(2)]}
	case 3:
		return Item{Agg: "AVG", Col: &tCols[1+rng.Intn(2)]}
	case 4:
		return Item{Agg: "MIN", Col: &tCols[1+rng.Intn(3)]}
	default:
		return Item{Agg: "MAX", Col: &tCols[1+rng.Intn(3)]}
	}
}

// genHaving compares one of q's aggregates with a literal.
func genHaving(rng *rand.Rand, q *Query) Expr {
	var aggs []int
	for i, it := range q.Items {
		if it.Agg != "" {
			aggs = append(aggs, i)
		}
	}
	i := aggs[rng.Intn(len(aggs))]
	kind := storage.KindFloat
	switch it := q.Items[i]; {
	case it.Agg == "COUNT":
		kind = storage.KindInt
	case it.Agg == "MIN" || it.Agg == "MAX":
		kind = it.Col.kind
	}
	return &itemCmp{item: i, op: cmpOps[rng.Intn(len(cmpOps))], lit: genLiteral(rng, kind, true)}
}

var cmpOps = []string{"=", "!=", "<", "<=", ">", ">="}

// genPred writes a WHERE predicate over cols, depth levels deep at most.
func genPred(rng *rand.Rand, cols []column, depth int) Expr {
	if depth > 0 {
		switch rng.Intn(6) {
		case 0:
			return &logic{op: "AND", l: genPred(rng, cols, depth-1), r: genPred(rng, cols, depth-1)}
		case 1:
			return &logic{op: "OR", l: genPred(rng, cols, depth-1), r: genPred(rng, cols, depth-1)}
		case 2:
			return &not{genPred(rng, cols, depth-1)}
		}
	}
	c := &cols[rng.Intn(len(cols))]
	if rng.Intn(6) == 0 {
		return &isNull{col: c, not: rng.Intn(2) == 0}
	}
	op := cmpOps[rng.Intn(len(cmpOps))]
	if c.kind == storage.KindBool {
		op = cmpOps[rng.Intn(2)]
	}
	return &colCmp{col: c, op: op, lit: genLiteral(rng, c.kind, false)}
}

// genLiteral returns a value of kind in the range the fixture's column of
// that kind holds, a little beyond it at times; wide widens the integers
// to the counts and sums of a group.
func genLiteral(rng *rand.Rand, kind storage.Kind, wide bool) storage.Value {
	switch kind {
	case storage.KindInt:
		if wide {
			return storage.Int(int64(rng.Intn(400)))
		}
		return storage.Int(int64(rng.Intn(10) - 1))
	case storage.KindFloat:
		if wide {
			return storage.Float(float64(rng.Intn(4000)) / 4)
		}
		return storage.Float(float64(rng.Intn(44)-2) / 4)
	case storage.KindText:
		return storage.Text(fmt.Sprintf("s%02d", rng.Intn(32)))
	default:
		return storage.Bool(rng.Intn(2) == 0)
	}
}

// SQL renders the query in the engine's dialect.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range q.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(q.itemSQL(it))
	}
	b.WriteString(" FROM t")
	if q.Join {
		b.WriteString(" JOIN u ON t.k = u.k")
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.sql(q))
	}
	lead := " GROUP BY "
	for _, g := range q.GroupBy {
		b.WriteString(lead + q.itemSQL(q.Items[g]))
		lead = ", "
	}
	if q.Having != nil {
		b.WriteString(" HAVING " + q.Having.sql(q))
	}
	lead = " ORDER BY "
	for _, o := range q.OrderBy {
		b.WriteString(lead + q.itemSQL(q.Items[o.Item]))
		lead = ", "
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

func (q *Query) colSQL(c *column) string {
	if q.Join && !(q.Bare && unique(c.name)) {
		return c.table + "." + c.name
	}
	return c.name
}

// unique reports whether one fixture table alone has a column named name.
func unique(name string) bool {
	has := func(c column) bool { return c.name == name }
	return slices.ContainsFunc(tCols, has) != slices.ContainsFunc(uCols, has)
}

func (q *Query) itemSQL(it Item) string {
	switch {
	case it.Agg == "":
		return q.colSQL(it.Col)
	case it.Col == nil:
		return it.Agg + "(*)"
	}
	return it.Agg + "(" + q.colSQL(it.Col) + ")"
}

func literalSQL(v storage.Value) string {
	switch v.Kind() {
	case storage.KindText:
		s, _ := v.AsText()
		return "'" + s + "'"
	case storage.KindFloat:
		f, _ := v.AsFloat()
		return fmt.Sprintf("%.2f", f)
	}
	return v.String()
}

// Expr is a predicate: a WHERE over a row, or a HAVING over a group's
// output row.
type Expr interface {
	sql(q *Query) string
	eval(e *env) tri
}

// tri is SQL's three-valued logic.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

// env is what a predicate reads: a row of t, one of u beside it in a
// join, or a group's output row.
type env struct {
	t, u storage.Row
	out  storage.Row
}

func (e *env) get(c *column) storage.Value {
	row, cols := e.t, tCols
	if c.table == "u" {
		row, cols = e.u, uCols
	}
	for i := range cols {
		if cols[i].name == c.name {
			return row[i]
		}
	}
	panic("sqlref: no column " + c.name)
}

type colCmp struct {
	col *column
	op  string
	lit storage.Value
}

func (p *colCmp) sql(q *Query) string {
	return q.colSQL(p.col) + " " + p.op + " " + literalSQL(p.lit)
}
func (p *colCmp) eval(e *env) tri { return compareOp(e.get(p.col), p.op, p.lit) }

type itemCmp struct {
	item int
	op   string
	lit  storage.Value
}

func (p *itemCmp) sql(q *Query) string {
	return q.itemSQL(q.Items[p.item]) + " " + p.op + " " + literalSQL(p.lit)
}
func (p *itemCmp) eval(e *env) tri { return compareOp(e.out[p.item], p.op, p.lit) }

type isNull struct {
	col *column
	not bool
}

func (p *isNull) sql(q *Query) string {
	if p.not {
		return q.colSQL(p.col) + " IS NOT NULL"
	}
	return q.colSQL(p.col) + " IS NULL"
}

func (p *isNull) eval(e *env) tri {
	if e.get(p.col).IsNull() != p.not {
		return triTrue
	}
	return triFalse
}

type logic struct {
	op   string
	l, r Expr
}

func (p *logic) sql(q *Query) string { return "(" + p.l.sql(q) + " " + p.op + " " + p.r.sql(q) + ")" }

func (p *logic) eval(e *env) tri {
	l, r := p.l.eval(e), p.r.eval(e)
	if p.op == "AND" {
		switch {
		case l == triFalse || r == triFalse:
			return triFalse
		case l == triUnknown || r == triUnknown:
			return triUnknown
		}
		return triTrue
	}
	switch {
	case l == triTrue || r == triTrue:
		return triTrue
	case l == triUnknown || r == triUnknown:
		return triUnknown
	}
	return triFalse
}

type not struct{ e Expr }

func (p *not) sql(q *Query) string { return "NOT (" + p.e.sql(q) + ")" }

func (p *not) eval(e *env) tri {
	switch p.e.eval(e) {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triUnknown
}

// compareOp applies a comparison under SQL's rules: NULL on either side
// is UNKNOWN.
func compareOp(a storage.Value, op string, b storage.Value) tri {
	if a.IsNull() || b.IsNull() {
		return triUnknown
	}
	c := compare(a, b)
	var ok bool
	switch op {
	case "=":
		ok = c == 0
	case "!=":
		ok = c != 0
	case "<":
		ok = c < 0
	case "<=":
		ok = c <= 0
	case ">":
		ok = c > 0
	default:
		ok = c >= 0
	}
	if ok {
		return triTrue
	}
	return triFalse
}

// compare orders two non-NULL values of one kind, or two numbers.
func compare(a, b storage.Value) int {
	switch a.Kind() {
	case storage.KindText:
		x, _ := a.AsText()
		y, _ := b.AsText()
		return strings.Compare(x, y)
	case storage.KindBool:
		x, _ := a.AsBool()
		y, _ := b.AsBool()
		switch {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Eval answers q over the fixture tables of cat.
func Eval(cat *storage.Catalog, q *Query) ([]storage.Row, error) {
	rowsOf := func(name string) ([]storage.Row, error) {
		tbl, ok := cat.Get(name)
		if !ok {
			return nil, fmt.Errorf("sqlref: no table %s", name)
		}
		var rows []storage.Row
		tbl.Scan(func(_ int, row storage.Row) bool {
			rows = append(rows, slices.Clone(row))
			return true
		})
		return rows, nil
	}
	tRows, err := rowsOf("t")
	if err != nil {
		return nil, err
	}
	var envs []env
	if q.Join {
		uRows, err := rowsOf("u")
		if err != nil {
			return nil, err
		}
		for _, tr := range tRows {
			for _, ur := range uRows {
				if compareOp(tr[1], "=", ur[0]) == triTrue {
					envs = append(envs, env{t: tr, u: ur})
				}
			}
		}
	} else {
		for _, tr := range tRows {
			envs = append(envs, env{t: tr})
		}
	}
	kept := envs[:0]
	for _, e := range envs {
		if q.Where == nil || q.Where.eval(&e) == triTrue {
			kept = append(kept, e)
		}
	}

	var out []storage.Row
	if q.GroupBy != nil {
		out = q.group(kept)
	} else {
		for _, e := range kept {
			row := make(storage.Row, len(q.Items))
			for i, it := range q.Items {
				row[i] = e.get(it.Col)
			}
			out = append(out, row)
		}
	}
	if q.Distinct {
		seen := map[string]bool{}
		uniq := out[:0]
		for _, row := range out {
			if k := Key(row); !seen[k] {
				seen[k] = true
				uniq = append(uniq, row)
			}
		}
		out = uniq
	}
	if len(q.OrderBy) > 0 {
		slices.SortStableFunc(out, func(a, b storage.Row) int {
			for _, o := range q.OrderBy {
				x, y := a[o.Item], b[o.Item]
				switch {
				case x.IsNull() && y.IsNull():
					continue
				case x.IsNull(): // NULLs sort last, ascending or descending
					return 1
				case y.IsNull():
					return -1
				}
				c := compare(x, y)
				if o.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// group folds the kept rows into groups, in the order each group was
// first seen, and returns the output rows of those HAVING keeps.
func (q *Query) group(kept []env) []storage.Row {
	type group struct{ rows []env }
	var order []string
	groups := map[string]*group{}
	for _, e := range kept {
		key := make(storage.Row, len(q.GroupBy))
		for i, g := range q.GroupBy {
			key[i] = e.get(q.Items[g].Col)
		}
		k := Key(key)
		if groups[k] == nil {
			groups[k] = &group{}
			order = append(order, k)
		}
		groups[k].rows = append(groups[k].rows, e)
	}
	var out []storage.Row
	for _, k := range order {
		g := groups[k]
		row := make(storage.Row, len(q.Items))
		for i, it := range q.Items {
			row[i] = aggregate(it, g.rows)
		}
		if q.Having == nil || q.Having.eval(&env{out: row}) == triTrue {
			out = append(out, row)
		}
	}
	return out
}

// aggregate computes one item over a group: a grouping column's value, or
// the aggregate of the column's non-NULL values (COUNT(*) of the rows).
// SUM and AVG are FLOAT, and NULL over no value.
func aggregate(it Item, rows []env) storage.Value {
	if it.Agg == "" {
		return rows[0].get(it.Col)
	}
	if it.Col == nil {
		return storage.Int(int64(len(rows)))
	}
	var vals []storage.Value
	for i := range rows {
		if v := rows[i].get(it.Col); !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch it.Agg {
	case "COUNT":
		return storage.Int(int64(len(vals)))
	case "MIN", "MAX":
		if len(vals) == 0 {
			return storage.Null()
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if c := compare(v, best); c < 0 == (it.Agg == "MIN") && c != 0 {
				best = v
			}
		}
		return best
	}
	if len(vals) == 0 {
		return storage.Null()
	}
	sum := 0.0
	for _, v := range vals {
		f, _ := v.AsFloat()
		sum += f
	}
	if it.Agg == "AVG" {
		sum /= float64(len(vals))
	}
	return storage.Float(sum)
}

// Key is a row's JSON array, as the server encodes it: the form answers
// from every path are compared in.
func Key(row storage.Row) string {
	cells := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case storage.KindInt:
			cells[i], _ = v.AsInt()
		case storage.KindFloat:
			cells[i], _ = v.AsFloat()
		case storage.KindText:
			cells[i], _ = v.AsText()
		case storage.KindBool:
			cells[i], _ = v.AsBool()
		}
	}
	b, err := json.Marshal(cells)
	if err != nil {
		panic(err) // the fixture holds no NaN
	}
	return string(b)
}

// Keys returns the keys of rows, sorted unless ordered.
func Keys(rows []storage.Row, ordered bool) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = Key(row)
	}
	if !ordered {
		slices.Sort(keys)
	}
	return keys
}
