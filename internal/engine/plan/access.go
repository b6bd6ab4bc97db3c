package plan

import (
	"fmt"
	"strings"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Access-path selection: given the conjuncts pushed down to one table,
// pick an index probe instead of a full scan when the predicate shape
// allows it.
//
// Selection rules (see DESIGN.md §12):
//
//  1. An equality conjunct `col = literal` (either operand order) on an
//     indexed column becomes an IndexScan point probe. Any index kind
//     answers equality — hash is preferred. The literal may be of any
//     non-NULL type: Value.Equal never errors, and a probe of a foreign
//     type simply selects nothing, exactly like the filter would.
//  2. Otherwise, range conjuncts (<, <=, >, >=) on an ordered-indexed
//     column are folded into one bound probe (IndexRange), keeping the
//     tightest bound per side. Range probes require the literal's type
//     class to match the column's (numeric/text/bool): a mismatched
//     comparison is a runtime error in the evaluator, and the scan must
//     stay the one to raise it. The probe is counted as it is planned —
//     the index answers how many rows lie between the bounds from the two
//     binary searches the probe itself would start with — and once ORDER
//     BY has had its chance to ride the probe's order (tryIndexOrder), a
//     probe that elides no sort and selects more than 1/indexRangeShare of
//     the live rows is planned as a Scan of all the conjuncts instead
//     (finishAccess): fetching that many rows by ID costs more than
//     filtering every chunk in place.
//  3. Everything not consumed by the probe stays as a residual filter,
//     evaluated on the rows the probe returns.
//
// NULL literals never select an index: `col = NULL` is never TRUE under
// three-valued logic and the filter path already returns zero rows.

// eqProbe matches `col = literal` with col bound to seg, returning the
// column name and literal.
func eqProbe(e sqlparse.Expr, seg Segment) (string, *sqlparse.Literal, bool) {
	bin, ok := e.(*sqlparse.BinaryExpr)
	if !ok || bin.Op != "=" {
		return "", nil, false
	}
	if col, lit, ok := colLiteral(bin.Left, bin.Right, seg); ok {
		return col, lit, true
	}
	return colLiteral(bin.Right, bin.Left, seg)
}

// rangeProbe matches `col OP literal` (or the flipped literal OP col) for
// a range operator, returning the operator normalized to the column on
// the left.
func rangeProbe(e sqlparse.Expr, seg Segment) (col string, op string, lit *sqlparse.Literal, ok bool) {
	bin, isBin := e.(*sqlparse.BinaryExpr)
	if !isBin {
		return "", "", nil, false
	}
	var flip string
	switch bin.Op {
	case "<":
		flip = ">"
	case "<=":
		flip = ">="
	case ">":
		flip = "<"
	case ">=":
		flip = "<="
	default:
		return "", "", nil, false
	}
	if c, l, match := colLiteral(bin.Left, bin.Right, seg); match {
		return c, bin.Op, l, true
	}
	if c, l, match := colLiteral(bin.Right, bin.Left, seg); match {
		return c, flip, l, true
	}
	return "", "", nil, false
}

// colLiteral matches (ColumnRef-of-seg, Literal) across the two operands.
func colLiteral(a, b sqlparse.Expr, seg Segment) (string, *sqlparse.Literal, bool) {
	ref, ok := a.(*sqlparse.ColumnRef)
	if !ok {
		return "", nil, false
	}
	lit, ok := b.(*sqlparse.Literal)
	if !ok {
		return "", nil, false
	}
	if ref.Table != "" && strings.ToLower(ref.Table) != seg.Binding {
		return "", nil, false
	}
	if _, ok := seg.Schema.Lookup(ref.Name); !ok {
		return "", nil, false
	}
	return ref.Name, lit, true
}

// LitValue converts a parse-tree literal into a storage value. It is the
// one authoritative Literal→Value switch: the evaluator and the index
// probes (internal/engine/exec) delegate here, so a future literal kind
// cannot silently diverge between the scan and index paths.
func LitValue(l *sqlparse.Literal) storage.Value {
	switch l.Kind {
	case sqlparse.LitBool:
		return storage.Bool(l.Bool)
	case sqlparse.LitInt:
		return storage.Int(l.Int)
	case sqlparse.LitFloat:
		return storage.Float(l.Float)
	case sqlparse.LitString:
		return storage.Text(l.Str)
	default:
		return storage.Null()
	}
}

// LitCompatible reports whether an ordering comparison between the
// literal and a column of kind k evaluates without a type error —
// exported for internal/engine/exec, whose vectorized-filter lowering
// must make exactly the same call before replacing the evaluator (which
// surfaces the type error) with a storage predicate (which cannot).
func LitCompatible(l *sqlparse.Literal, k storage.Kind) bool {
	return classCompatible(l, k)
}

// classCompatible reports whether a range comparison between the literal
// and a column of kind k evaluates without a type error (numeric↔numeric,
// text↔text, bool↔bool — mirroring storage.Value.Compare).
func classCompatible(l *sqlparse.Literal, k storage.Kind) bool {
	switch l.Kind {
	case sqlparse.LitInt, sqlparse.LitFloat:
		return k == storage.KindInt || k == storage.KindFloat
	case sqlparse.LitString:
		return k == storage.KindText
	case sqlparse.LitBool:
		return k == storage.KindBool
	default:
		return false
	}
}

// rangeBounds accumulates the tightest lo/hi bounds for one column.
type rangeBounds struct {
	lo, hi       *sqlparse.Literal
	loInc, hiInc bool
	used         int // conjunct count consumed into the bounds
}

// tightenLo keeps the larger lower bound (exclusive beats inclusive on a
// tie).
func (r *rangeBounds) tightenLo(lit *sqlparse.Literal, inc bool) {
	r.used++
	if r.lo == nil {
		r.lo, r.loInc = lit, inc
		return
	}
	c, err := LitValue(lit).Compare(LitValue(r.lo))
	if err != nil {
		return // mixed numeric/text bounds on one column: keep the first
	}
	if c > 0 || (c == 0 && r.loInc && !inc) {
		r.lo, r.loInc = lit, inc
	}
}

// tightenHi keeps the smaller upper bound (exclusive beats inclusive on a
// tie).
func (r *rangeBounds) tightenHi(lit *sqlparse.Literal, inc bool) {
	r.used++
	if r.hi == nil {
		r.hi, r.hiInc = lit, inc
		return
	}
	c, err := LitValue(lit).Compare(LitValue(r.hi))
	if err != nil {
		return
	}
	if c < 0 || (c == 0 && r.hiInc && !inc) {
		r.hi, r.hiInc = lit, inc
	}
}

// accessPath builds segment i's access node from its pushed-down
// conjuncts: an IndexScan for an indexed equality, an IndexRange for
// indexed range bounds, or the plain Scan.
func (b *builder) accessPath(i int, cs []sqlparse.Expr) Node {
	tbl := b.tables[i]
	seg := b.segs[i]
	layout := b.singleLayout(i)

	// 1. Equality point probe: pool the `col = literal` conjuncts (a NULL
	// literal is never TRUE and stays on the filter path) and pick the
	// index whose key columns are ALL pinned by one — widest key first
	// (most conjuncts consumed, narrowest probe), then hash over ordered,
	// then name, for plan stability. Composite indexes need the full key:
	// a prefix match cannot probe, and rows with a NULL anywhere in the
	// key are absent from the index — which full-key equality (3VL)
	// excludes anyway, keeping the probe exact.
	type eqConj struct {
		lit *sqlparse.Literal
		pos int
	}
	eqs := map[string]eqConj{}
	for k, c := range cs {
		col, lit, ok := eqProbe(c, seg)
		if !ok || lit.Kind == sqlparse.LitNull {
			continue
		}
		lc := strings.ToLower(col)
		if _, dup := eqs[lc]; !dup {
			eqs[lc] = eqConj{lit: lit, pos: k}
		}
	}
	if len(eqs) > 0 {
		var best *storage.IndexMeta
		for _, meta := range tbl.IndexMetas() {
			meta := meta
			covered := len(meta.Columns) <= len(eqs)
			for _, col := range meta.Columns {
				if _, ok := eqs[strings.ToLower(col)]; !ok {
					covered = false
					break
				}
			}
			if covered && (best == nil || betterEqIndex(meta, *best)) {
				best = &meta
			}
		}
		if best != nil {
			keys := make([]*sqlparse.Literal, len(best.Columns))
			used := map[int]bool{}
			for i, col := range best.Columns {
				e := eqs[strings.ToLower(col)]
				keys[i] = e.lit
				used[e.pos] = true
			}
			rest := make([]sqlparse.Expr, 0, len(cs))
			for k, c := range cs {
				if !used[k] {
					rest = append(rest, c)
				}
			}
			return &IndexScan{
				Table: tbl, Name: seg.Table, Binding: seg.Binding,
				Index: best.Name, Cols: best.Columns, Keys: keys,
				Residual: conjoin(rest), Layout: layout,
			}
		}
	}

	// 2. Range probe on an ordered index: fold every usable bound on the
	// first ordered-indexed column that has one. Single-column indexes
	// only: a composite index omits rows with a NULL in any later key
	// column, rows the first-column bound alone would keep.
	var (
		rangeCol  string
		rangeMeta storage.IndexMeta
		bounds    rangeBounds
		rest      []sqlparse.Expr
	)
	for _, c := range cs {
		col, op, lit, ok := rangeProbe(c, seg)
		if ok && rangeCol == "" {
			if idx, found := seg.Schema.Lookup(col); found && classCompatible(lit, seg.Schema.Column(idx).Kind) {
				if meta, has := tbl.IndexOn(col, true); has && len(meta.Columns) == 1 {
					rangeCol, rangeMeta = col, meta
				}
			}
		}
		if ok && rangeCol != "" && strings.EqualFold(col, rangeCol) {
			ci, _ := seg.Schema.Lookup(col)
			if classCompatible(lit, seg.Schema.Column(ci).Kind) {
				switch op {
				case ">":
					bounds.tightenLo(lit, false)
				case ">=":
					bounds.tightenLo(lit, true)
				case "<":
					bounds.tightenHi(lit, false)
				case "<=":
					bounds.tightenHi(lit, true)
				}
				continue
			}
		}
		rest = append(rest, c)
	}
	if bounds.used > 0 {
		ir := &IndexRange{
			Table: tbl, Name: seg.Table, Binding: seg.Binding,
			Index: rangeMeta.Name, Column: rangeCol,
			Lo: bounds.lo, Hi: bounds.hi, LoInc: bounds.loInc, HiInc: bounds.hiInc,
			Residual: conjoin(rest), Layout: layout, pushed: cs,
		}
		ir.Rows, ir.Of, _ = tbl.CountIndexRange(ir.Index, BoundValue(ir.Lo), BoundValue(ir.Hi), ir.LoInc, ir.HiInc)
		return ir
	}

	return &Scan{
		Table: tbl, Name: seg.Table, Binding: seg.Binding,
		Filter: conjoin(cs), Layout: layout,
	}
}

// BoundValue is a range bound as an index probe takes it: nil for an open
// side.
func BoundValue(l *sqlparse.Literal) *storage.Value {
	if l == nil {
		return nil
	}
	v := LitValue(l)
	return &v
}

// indexRangeShare is the crossover between the two ways of reading a
// range of an indexed column: an IndexRange that selects more than
// 1/indexRangeShare of the table's live rows is planned as a Scan. Set
// from BenchmarkRangeCrossover (bench_test.go), which runs the same
// filtered range both ways at widths from 0.1 % to 50 % of a 146 k-row
// table; DESIGN.md's access-path section records the measurement.
const indexRangeShare = 32

// finishAccess is the planner's last look at the access paths under
// *slot, when everything that could depend on one (join order, ORDER BY
// elision, the index-only rewrite) has been decided: a range probe its
// count shows to be wide, and whose order nothing uses, becomes a Scan
// filtering all the conjuncts the probe was built from — both bounds and
// the residual, so each can lower to a predicate kernel over zero-copy
// chunk windows — and every path is counted under the name it ended with.
func finishAccess(slot *Node) {
	switch t := (*slot).(type) {
	case *Scan:
		mAccessScan.Inc()
	case *IndexScan:
		mAccessPoint.Inc()
	case *IndexOnlyScan:
		if t.Keys != nil {
			mAccessPoint.Inc()
		} else {
			mAccessRange.Inc()
		}
	case *IndexRange:
		if t.elidesSort || t.Rows*indexRangeShare <= t.Of {
			mAccessRange.Inc()
			return
		}
		mAccessDeclined.Inc()
		*slot = &Scan{
			Table: t.Table, Name: t.Name, Binding: t.Binding,
			Filter: conjoin(t.pushed), Layout: t.Layout, Declined: t,
		}
	}
	in, k := inputs(*slot)
	for i := 0; i < k; i++ {
		finishAccess(in[i])
	}
}

// AccessNote is the ExplainWith annotation that says why an access path
// was chosen: the plan-time count on a range probe, and on a scan the
// probe it was planned instead of. It stays out of Describe because the
// counts vary with the data while the fingerprint must not.
func AccessNote(n Node) string {
	switch t := n.(type) {
	case *IndexRange:
		if t.Of > 0 {
			return fmt.Sprintf(" rows=%d of %d", t.Rows, t.Of)
		}
	case *Scan:
		if d := t.Declined; d != nil {
			return fmt.Sprintf(" index %s declined: %d of %d rows", d.Index, d.Rows, d.Of)
		}
	}
	return ""
}

// betterEqIndex ranks equality-probe candidates whose keys are fully
// covered: widest key first (consumes the most conjuncts), then hash over
// ordered (O(1) equality), then name, for plan stability.
func betterEqIndex(a, b storage.IndexMeta) bool {
	switch {
	case len(a.Columns) != len(b.Columns):
		return len(a.Columns) > len(b.Columns)
	case a.Ordered != b.Ordered:
		return !a.Ordered
	default:
		return strings.ToLower(a.Name) < strings.ToLower(b.Name)
	}
}

// tryIndexOrder attempts to satisfy ORDER BY from index order, returning
// the (possibly replaced) access node and whether the sort can be elided.
//
// Index order is by key per the index's directions with ties in table
// order — identical to a stable sort in those directions (reversed for
// the opposite directions) — but the index holds no NULL keys, and the
// sorter places NULL keys last. Elision is therefore only legal when
// NULL-keyed rows provably cannot reach the output:
//
//   - above an IndexScan point probe whose ORDER BY columns are all part
//     of the (fully fixed, non-NULL) probe key: every emitted row ties on
//     every ORDER BY key, so the probe's row order is a valid stable
//     order in ANY direction;
//   - above an IndexRange on the ORDER BY column, whose bounds already
//     reject NULL keys (3VL) — DESC is served by reversing the probe;
//   - converting a bare unfiltered Scan when a LIMIT is present and a
//     single-column ordered index holds at least LIMIT entries at plan
//     time, so the NULL tail (which sorts last under either direction)
//     can never be reached. Composite indexes are excluded: a row with a
//     NULL in a later key column is absent from the index yet does NOT
//     sort last on the leading column, so the Entries guard cannot make
//     it safe.
func (b *builder) tryIndexOrder(node Node, orderBy []sqlparse.OrderKey, limit int64, distinct bool) (Node, bool) {
	if len(b.segs) != 1 || len(orderBy) == 0 {
		return node, false
	}
	seg := b.segs[0]
	names := make([]string, len(orderBy))
	for i, key := range orderBy {
		ref, ok := key.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return node, false
		}
		if ref.Table != "" && strings.ToLower(ref.Table) != seg.Binding {
			return node, false
		}
		if _, ok := seg.Schema.Lookup(ref.Name); !ok {
			return node, false
		}
		names[i] = ref.Name
	}

	switch t := node.(type) {
	case *IndexScan:
		fixed := map[string]bool{}
		for _, c := range t.Cols {
			fixed[strings.ToLower(c)] = true
		}
		for _, n := range names {
			if !fixed[strings.ToLower(n)] {
				return node, false
			}
		}
		return node, true
	case *IndexRange:
		if len(names) != 1 || !strings.EqualFold(t.Column, names[0]) {
			return node, false
		}
		t.Desc, t.elidesSort = orderBy[0].Desc, true
		return t, true
	case *Scan:
		if t.Filter != nil || distinct || limit < 0 || len(names) != 1 {
			return node, false
		}
		meta, has := t.Table.IndexOn(names[0], true)
		if !has || len(meta.Columns) != 1 || int64(meta.Entries) < limit {
			return node, false
		}
		return &IndexRange{
			Table: t.Table, Name: t.Name, Binding: t.Binding,
			Index: meta.Name, Column: names[0], Desc: orderBy[0].Desc,
			Layout: t.Layout, elidesSort: true,
		}, true
	default:
		return node, false
	}
}

// tryIndexOnly converts a residual-free index probe (optionally under a
// Limit) into an IndexOnlyScan when every projected expression is a bare
// reference to one of the probe's key columns: the executor then reads
// key tuples off the index and never touches table data. Returns the
// rewritten subtree and the pseudo-layout the Project above must resolve
// against.
func (b *builder) tryIndexOnly(node Node, exprs []sqlparse.Expr) (Node, *Layout, bool) {
	if len(b.segs) != 1 {
		return nil, nil, false
	}
	seg := b.segs[0]
	inner := node
	var lim *Limit
	if l, ok := node.(*Limit); ok {
		lim, inner = l, l.Input
	}

	var io *IndexOnlyScan
	switch t := inner.(type) {
	case *IndexScan:
		if t.Residual != nil {
			return nil, nil, false
		}
		io = &IndexOnlyScan{
			Table: t.Table, Name: t.Name, Binding: t.Binding, Index: t.Index,
			Cols: t.Cols, Keys: t.Keys,
		}
	case *IndexRange:
		if t.Residual != nil {
			return nil, nil, false
		}
		// Range keys come off the index itself (storage.KeyRanger); range
		// probes are planned over ordered indexes only, which implement it.
		io = &IndexOnlyScan{
			Table: t.Table, Name: t.Name, Binding: t.Binding, Index: t.Index,
			Cols: []string{t.Column},
			Lo:   t.Lo, Hi: t.Hi, LoInc: t.LoInc, HiInc: t.HiInc, Desc: t.Desc,
		}
	default:
		return nil, nil, false
	}

	covered := map[string]bool{}
	for _, c := range io.Cols {
		covered[strings.ToLower(c)] = true
	}
	for _, e := range exprs {
		ref, ok := e.(*sqlparse.ColumnRef)
		if !ok {
			return nil, nil, false
		}
		if ref.Table != "" && strings.ToLower(ref.Table) != seg.Binding {
			return nil, nil, false
		}
		if !covered[strings.ToLower(ref.Name)] {
			return nil, nil, false
		}
	}

	// The pseudo-layout: one segment shaped like the key columns, kinds
	// copied from the base schema.
	keyCols := make([]storage.Column, len(io.Cols))
	for i, name := range io.Cols {
		ci, ok := seg.Schema.Lookup(name)
		if !ok {
			return nil, nil, false
		}
		keyCols[i] = seg.Schema.Column(ci)
	}
	keySchema, err := storage.NewSchema(keyCols...)
	if err != nil {
		return nil, nil, false
	}
	lay := NewLayout(Segment{Binding: seg.Binding, Table: seg.Table, Schema: keySchema})
	io.Layout = lay
	if lim != nil {
		return &Limit{Input: io, N: lim.N}, lay, true
	}
	return io, lay, true
}
