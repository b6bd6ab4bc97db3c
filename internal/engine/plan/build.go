package plan

import (
	"fmt"
	"strings"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Build lowers a parsed SELECT into a logical plan over cat's tables.
//
// Planning validates every base-table column reference up front, so a
// query touching a not-yet-expanded column fails here — with a
// *MissingColumnError — before any row is read, which is what lets
// internal/core route it to the expansion scheduler instead of a scan.
func Build(s *sqlparse.SelectStmt, cat *storage.Catalog) (*SelectPlan, error) {
	b := &builder{stmt: s}
	if err := b.resolveTables(cat); err != nil {
		return nil, err
	}

	// ORDER BY may reference select-list aliases (ORDER BY age for
	// SELECT year - 1900 age …), including inside expressions
	// (ORDER BY age + 1). Rewrite before validation; real columns shadow
	// aliases. Grouped queries resolve ORDER BY against output columns
	// instead, so the rewrite only applies to the non-grouped path.
	grouped := len(s.GroupBy) > 0
	for _, item := range s.Items {
		if item.Agg != sqlparse.AggNone {
			grouped = true
		}
	}
	orderBy := s.OrderBy
	if !grouped && len(orderBy) > 0 {
		orderBy = b.rewriteOrderByAliases(orderBy)
	}

	if err := b.validate(grouped, orderBy); err != nil {
		return nil, err
	}
	if !grouped && s.Having != nil {
		return nil, fmt.Errorf("engine: HAVING requires GROUP BY or aggregates")
	}
	if grouped && s.Distinct {
		return nil, fmt.Errorf("engine: DISTINCT with aggregates/GROUP BY is not supported")
	}

	root, err := b.buildJoinTree()
	if err != nil {
		return nil, err
	}
	var p *SelectPlan
	if grouped {
		p, err = b.finishGrouped(root, orderBy)
	} else {
		p, err = b.finishPlain(root, orderBy)
	}
	if err != nil {
		return nil, err
	}
	finishAccess(&p.Root)
	pruneColumns(p.Root)
	return p, nil
}

type builder struct {
	stmt   *sqlparse.SelectStmt
	segs   []Segment
	tables []*storage.Table // parallel to segs
	layout *Layout          // syntax-order layout over all segments (validation, star expansion)
	phys   *Layout          // physical layout of the join output (probe-major; = layout until reordering)
}

func (b *builder) resolveTables(cat *storage.Catalog) error {
	add := func(name, alias string) error {
		tbl, ok := cat.Get(name)
		if !ok {
			return fmt.Errorf("engine: no such table %q", name)
		}
		binding := strings.ToLower(alias)
		if binding == "" {
			binding = strings.ToLower(name)
		}
		for _, s := range b.segs {
			if s.Binding == binding {
				return fmt.Errorf("engine: duplicate table binding %q (alias the second occurrence)", binding)
			}
		}
		b.segs = append(b.segs, Segment{Binding: binding, Table: tbl.Name(), Schema: tbl.Schema()})
		b.tables = append(b.tables, tbl)
		return nil
	}
	if err := add(b.stmt.Table, b.stmt.TableAlias); err != nil {
		return err
	}
	for _, j := range b.stmt.Joins {
		if err := add(j.Table, j.Alias); err != nil {
			return err
		}
	}
	b.layout = NewLayout(b.segs...)
	return nil
}

// prefixLayout is the layout over the first n segments (the tables in
// scope to the left of join n-1).
func (b *builder) prefixLayout(n int) *Layout { return NewLayout(b.segs[:n]...) }

// singleLayout is the one-segment layout a scan of segment i produces.
func (b *builder) singleLayout(i int) *Layout { return NewLayout(b.segs[i]) }

// rewriteOrderByAliases deep-rewrites unqualified column references that
// name a select-list alias (and no real column) into the aliased
// expression.
func (b *builder) rewriteOrderByAliases(orderBy []sqlparse.OrderKey) []sqlparse.OrderKey {
	aliases := map[string]sqlparse.Expr{}
	for _, item := range b.stmt.Items {
		if item.Alias != "" && item.Expr != nil && item.Agg == sqlparse.AggNone {
			aliases[strings.ToLower(item.Alias)] = item.Expr
		}
	}
	if len(aliases) == 0 {
		return orderBy
	}
	isRealColumn := func(name string) bool {
		for _, s := range b.segs {
			if _, ok := s.Schema.Lookup(name); ok {
				return true
			}
		}
		return false
	}
	var rewrite func(e sqlparse.Expr) sqlparse.Expr
	rewrite = func(e sqlparse.Expr) sqlparse.Expr {
		switch n := e.(type) {
		case *sqlparse.ColumnRef:
			if n.Table != "" || isRealColumn(n.Name) {
				return n
			}
			if repl, ok := aliases[strings.ToLower(n.Name)]; ok {
				return repl
			}
			return n
		case *sqlparse.BinaryExpr:
			return &sqlparse.BinaryExpr{Op: n.Op, Left: rewrite(n.Left), Right: rewrite(n.Right)}
		case *sqlparse.UnaryExpr:
			return &sqlparse.UnaryExpr{Op: n.Op, Expr: rewrite(n.Expr)}
		case *sqlparse.IsNullExpr:
			return &sqlparse.IsNullExpr{Expr: rewrite(n.Expr), Negate: n.Negate}
		default:
			return e
		}
	}
	out := make([]sqlparse.OrderKey, len(orderBy))
	for i, key := range orderBy {
		out[i] = sqlparse.OrderKey{Expr: rewrite(key.Expr), Desc: key.Desc}
	}
	return out
}

// validate resolves every base-table column reference. HAVING is excluded
// (it resolves against output columns), as is ORDER BY for grouped
// queries.
func (b *builder) validate(grouped bool, orderBy []sqlparse.OrderKey) error {
	for _, item := range b.stmt.Items {
		if item.Expr != nil {
			if err := checkRefs(item.Expr, b.layout); err != nil {
				return err
			}
		}
	}
	if err := checkRefs(b.stmt.Where, b.layout); err != nil {
		return err
	}
	for _, g := range b.stmt.GroupBy {
		if err := checkRefs(g, b.layout); err != nil {
			return err
		}
	}
	if !grouped {
		for _, key := range orderBy {
			if err := checkRefs(key.Expr, b.layout); err != nil {
				return err
			}
		}
	}
	// ON conditions are scoped to the tables joined so far plus the table
	// being joined.
	for i := range b.stmt.Joins {
		if err := checkRefs(b.stmt.Joins[i].On, b.prefixLayout(i+2)); err != nil {
			return err
		}
	}
	return nil
}

// checkRefs resolves every column reference of e against layout and
// returns the first failure.
func checkRefs(e sqlparse.Expr, layout *Layout) error {
	var firstErr error
	sqlparse.WalkColumns(e, func(c *sqlparse.ColumnRef) {
		if firstErr != nil {
			return
		}
		if _, err := layout.Resolve(c.Table, c.Name); err != nil {
			firstErr = err
		}
	})
	return firstErr
}

// conjuncts flattens a predicate's AND tree.
func conjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if bin, ok := e.(*sqlparse.BinaryExpr); ok && bin.Op == "AND" {
		return append(conjuncts(bin.Left), conjuncts(bin.Right)...)
	}
	if e == nil {
		return nil
	}
	return []sqlparse.Expr{e}
}

// conjoin rebuilds a single predicate from conjuncts (nil when empty).
func conjoin(cs []sqlparse.Expr) sqlparse.Expr {
	var out sqlparse.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &sqlparse.BinaryExpr{Op: "AND", Left: out, Right: c}
		}
	}
	return out
}

// bindings returns the set of segment bindings an expression references.
// Unqualified references resolve through the full layout (validation has
// already ensured they are unambiguous).
func (b *builder) bindings(e sqlparse.Expr) map[string]bool {
	out := map[string]bool{}
	sqlparse.WalkColumns(e, func(c *sqlparse.ColumnRef) {
		if c.Table != "" {
			out[strings.ToLower(c.Table)] = true
			return
		}
		for _, s := range b.segs {
			if _, ok := s.Schema.Lookup(c.Name); ok {
				out[s.Binding] = true
				return
			}
		}
	})
	return out
}

func subset(set map[string]bool, allowed map[string]bool) bool {
	for k := range set {
		if !allowed[k] {
			return false
		}
	}
	return true
}

// buildJoinTree assembles scans and joins with predicate pushdown: WHERE
// and ON conjuncts referencing a single table become scan filters (or
// index probes, see access.go); equality conjuncts whose two sides each
// touch exactly one table become equi-join graph edges consumed as hash
// keys; everything else attaches as a residual/Filter at the lowest join
// where all its tables are in scope. Multi-table queries are ordered
// greedily over that graph (order.go) instead of in syntax order, which
// also sets b.phys — the physical layout of the join output.
func (b *builder) buildJoinTree() (Node, error) {
	b.phys = b.layout

	// Pool WHERE and ON conjuncts and classify each by the binding set it
	// touches.
	pushed := map[string][]sqlparse.Expr{} // binding → conjuncts for its access path
	var edges []joinEdge
	var pending []joinConjunct
	collect := func(e sqlparse.Expr, fromOn bool) {
		for _, c := range conjuncts(e) {
			refs := b.bindings(c)
			if len(refs) == 1 {
				for binding := range refs {
					pushed[binding] = append(pushed[binding], c)
				}
				continue
			}
			if eq, ok := c.(*sqlparse.BinaryExpr); ok && eq.Op == "=" && len(refs) == 2 {
				lr, rr := b.bindings(eq.Left), b.bindings(eq.Right)
				if len(lr) == 1 && len(rr) == 1 {
					la, ra := oneKey(lr), oneKey(rr)
					if la != ra {
						edges = append(edges, joinEdge{a: la, b: ra, aExpr: eq.Left, bExpr: eq.Right})
						continue
					}
				}
			}
			pending = append(pending, joinConjunct{expr: c, refs: refs, fromOn: fromOn})
		}
	}
	collect(b.stmt.Where, false)
	for ji := range b.stmt.Joins {
		collect(b.stmt.Joins[ji].On, true)
	}

	if len(b.segs) == 1 {
		node := Node(b.accessPath(0, pushed[b.segs[0].Binding]))
		// Conjuncts referencing no column at all (constant predicates)
		// stay above the scan.
		var rest []sqlparse.Expr
		for _, p := range pending {
			rest = append(rest, p.expr)
		}
		if pred := conjoin(rest); pred != nil {
			node = &Filter{Input: node, Pred: pred, Layout: b.layout}
		}
		return node, nil
	}

	node, phys := b.greedyJoin(pushed, edges, pending)
	b.phys = phys
	return node, nil
}

// oneKey returns the single key of a one-element set.
func oneKey(set map[string]bool) string {
	for k := range set {
		return k
	}
	return ""
}

// outputName derives the display name of a select item (mirrors the
// pre-planner engine's naming).
func outputName(item sqlparse.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if item.Agg != sqlparse.AggNone {
		arg := "*"
		if item.Expr != nil {
			arg = item.Expr.String()
		}
		return strings.ToLower(string(item.Agg)) + "(" + arg + ")"
	}
	if ref, ok := item.Expr.(*sqlparse.ColumnRef); ok {
		return ref.Name
	}
	return item.Expr.String()
}

// finishPlain assembles the non-grouped pipeline:
// scan/join → [sort|topN] → project → [distinct] → [limit].
func (b *builder) finishPlain(node Node, orderBy []sqlparse.OrderKey) (*SelectPlan, error) {
	s := b.stmt

	// Expand the select list (stars become one column ref per layout
	// column, qualified by their segment binding).
	var names []string
	var exprs []sqlparse.Expr
	for _, item := range s.Items {
		if item.Star {
			for _, seg := range b.layout.Segs {
				for i := 0; i < seg.Schema.Len(); i++ {
					col := seg.Schema.Column(i)
					names = append(names, col.Name)
					exprs = append(exprs, &sqlparse.ColumnRef{Table: seg.Binding, Name: col.Name})
				}
			}
			continue
		}
		if item.Agg != sqlparse.AggNone {
			return nil, fmt.Errorf("engine: internal: aggregate item in non-grouped plan")
		}
		names = append(names, outputName(item))
		exprs = append(exprs, item.Expr)
	}

	// ORDER BY evaluates against base rows (pre-projection), so it sits
	// below Project. An ordered-index access path already emitting rows in
	// key order satisfies the ORDER BY by itself (tryIndexOrder), reducing
	// TopN to a plain Limit. Otherwise ORDER BY + LIMIT without DISTINCT
	// collapses into a TopN heap; LIMIT under DISTINCT applies to
	// deduplicated output and stays above it.
	ordered := false
	if len(orderBy) > 0 {
		node, ordered = b.tryIndexOrder(node, orderBy, s.Limit, s.Distinct)
	}
	if len(orderBy) > 0 && !ordered {
		if !s.Distinct && s.Limit >= 0 {
			node = &TopN{Input: node, Keys: orderBy, N: s.Limit, Layout: b.phys}
		} else {
			node = &Sort{Input: node, Keys: orderBy, Layout: b.phys}
		}
	} else if !s.Distinct && s.Limit >= 0 {
		node = &Limit{Input: node, N: s.Limit}
	}
	// Index-only rewrite: when the access path is a residual-free index
	// probe and the projection reads nothing but the index's key columns,
	// serve the query from index keys alone — the Project above resolves
	// against a pseudo-layout shaped like the key tuple.
	projLayout := b.phys
	if len(b.segs) == 1 {
		if n2, lay, ok := b.tryIndexOnly(node, exprs); ok {
			node, projLayout = n2, lay
		}
	}
	node = &Project{Input: node, Names: names, Exprs: exprs, Layout: projLayout}
	if s.Distinct {
		node = &Distinct{Input: node}
		if s.Limit >= 0 {
			node = &Limit{Input: node, N: s.Limit}
		}
	}
	return &SelectPlan{Root: node, Columns: names}, nil
}

// finishGrouped assembles the aggregate pipeline:
// scan/join → hashAggregate → [sort|topN] → [limit], with ORDER BY and
// HAVING resolving against the output columns.
func (b *builder) finishGrouped(node Node, orderBy []sqlparse.OrderKey) (*SelectPlan, error) {
	s := b.stmt
	groupTexts := map[string]bool{}
	for _, g := range s.GroupBy {
		groupTexts[g.String()] = true
	}
	names := make([]string, len(s.Items))
	for k, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregates/GROUP BY")
		}
		if item.Agg == sqlparse.AggNone && !groupTexts[item.Expr.String()] {
			return nil, fmt.Errorf("engine: %s must appear in GROUP BY or an aggregate", item.Expr.String())
		}
		names[k] = outputName(item)
	}

	node = &Aggregate{
		Input:  node,
		Layout: b.phys,
		Items:  s.Items, GroupBy: s.GroupBy, Having: s.Having,
		Names: names,
	}
	if len(orderBy) > 0 {
		if s.Limit >= 0 {
			node = &TopN{Input: node, Keys: orderBy, N: s.Limit, ByOutput: names}
		} else {
			node = &Sort{Input: node, Keys: orderBy, ByOutput: names}
		}
	} else if s.Limit >= 0 {
		node = &Limit{Input: node, N: s.Limit}
	}
	return &SelectPlan{Root: node, Columns: names}, nil
}
