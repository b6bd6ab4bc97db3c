// Package plan lowers parsed SELECT statements — and the row-finding half
// of UPDATE and DELETE (dml.go) — into a logical plan tree.
//
// The planner is the engine's front half: it resolves tables and aliases,
// validates every column reference (so a missing expandable column is
// detected *before* any row work — the hook query-driven schema expansion
// relies on), rewrites ORDER BY aliases, splits WHERE into conjuncts and
// pushes single-table predicates below joins into the scans, extracts
// equi-join keys from ON conditions, and records which columns each
// operator has to produce (columns.go). The resulting tree is executed by
// the batch iterators in internal/engine/exec.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// MissingColumnError reports that a query referenced a column that the
// table's schema does not (yet) contain. internal/core catches it and, if
// the column is registered as expandable, routes the query to the crowd
// instead of failing it.
type MissingColumnError struct {
	Table  string
	Column string
	// Candidates lists every other table in scope that also lacks the
	// column. It is set for unqualified references in multi-table
	// queries, where the planner cannot know which table the user (or an
	// expandable registration) meant — core tries each candidate's
	// registry before giving up.
	Candidates []string
}

func (e *MissingColumnError) Error() string {
	return fmt.Sprintf("engine: table %q has no column %q", e.Table, e.Column)
}

// Segment is one base table's slice of an executor row.
type Segment struct {
	Binding string // resolution name: alias if given, else table name (lower)
	Table   string // real table name, for error messages and expansion
	Schema  *storage.Schema
	Start   int // offset of this segment's first column in the combined row
}

// Layout maps column references onto positions in an executor row, which
// is the concatenation of one segment per joined table.
type Layout struct {
	Segs  []Segment
	Width int
}

// NewLayout builds a layout from segments, assigning offsets.
func NewLayout(segs ...Segment) *Layout {
	l := &Layout{}
	for _, s := range segs {
		s.Start = l.Width
		l.Width += s.Schema.Len()
		l.Segs = append(l.Segs, s)
	}
	return l
}

// Resolve returns the combined-row index of table.name (table may be
// empty for an unqualified reference). Unqualified names present in more
// than one segment are ambiguous; names found nowhere yield a
// *MissingColumnError attributed to the primary table, with the other
// tables in scope listed as candidates (an expandable registration on
// any of them can still trigger implicit expansion).
func (l *Layout) Resolve(table, name string) (int, error) {
	if table != "" {
		key := strings.ToLower(table)
		for _, s := range l.Segs {
			if s.Binding == key {
				if idx, ok := s.Schema.Lookup(name); ok {
					return s.Start + idx, nil
				}
				return 0, &MissingColumnError{Table: s.Table, Column: name}
			}
		}
		return 0, fmt.Errorf("engine: unknown table or alias %q in reference %s.%s", table, table, name)
	}
	found, hits := -1, 0
	for _, s := range l.Segs {
		if idx, ok := s.Schema.Lookup(name); ok {
			found = s.Start + idx
			hits++
		}
	}
	switch hits {
	case 1:
		return found, nil
	case 0:
		var candidates []string
		for _, s := range l.Segs[1:] {
			candidates = append(candidates, s.Table)
		}
		return 0, &MissingColumnError{Table: l.Segs[0].Table, Column: name, Candidates: candidates}
	default:
		return 0, fmt.Errorf("engine: column reference %q is ambiguous (qualify it with a table name)", name)
	}
}

// Kind returns the declared kind of the column at combined-row index idx.
func (l *Layout) Kind(idx int) storage.Kind {
	for _, s := range l.Segs {
		if idx < s.Start+s.Schema.Len() {
			return s.Schema.Column(idx - s.Start).Kind
		}
	}
	return storage.KindNull
}

// ---------- plan nodes ----------

// Node is one operator of a logical plan tree.
type Node interface {
	node()
	// Describe renders the operator's own line of EXPLAIN output.
	Describe() string
}

// Scan reads one table through the storage cursor. The vectorizable
// conjuncts of the pushed-down Filter become the cursor's selection
// bitmaps, so rows they reject are never copied out of the table; the
// executor evaluates the rest on the rows that survive.
type Scan struct {
	Table   *storage.Table
	Name    string // table name
	Binding string
	Filter  sqlparse.Expr // nil when nothing was pushed down
	Layout  *Layout       // single-segment layout of this scan's rows
	// Declined is the range probe this scan was planned instead of, its
	// count having said the range is too wide to fetch by row ID
	// (finishAccess); nil for any other scan. EXPLAIN names it
	// (AccessNote).
	Declined *IndexRange
	// Dop > 1 marks the scan as split into row-range morsels read by that
	// many workers (set by Parallelize; the executor partitions by
	// disjoint row ranges, so batched cursors need no extra coordination).
	Dop int
	// Out lists, ascending, the layout positions of the columns this
	// node's batches carry (set, never to nil, by the needed-columns pass,
	// columns.go).
	Out []int
}

// IndexScan answers equality predicates on an index's key columns with a
// point probe: the index yields the matching row IDs in the same critical
// section that pins the table snapshot, and only those rows are ever
// copied out. Composite indexes require equality literals on every key
// column (a prefix cannot probe). Residual carries the remaining
// pushed-down conjuncts, evaluated on the probed rows.
type IndexScan struct {
	Table    *storage.Table
	Name     string // table name
	Binding  string
	Index    string              // index name
	Cols     []string            // full key columns of the chosen index
	Keys     []*sqlparse.Literal // one equality literal per key column
	Residual sqlparse.Expr       // nil when the equalities were the whole filter
	Layout   *Layout
	Out      []int // see Scan.Out
}

// IndexRange answers range conjuncts on an ordered-indexed column with a
// bound probe. Rows come back in index order — ascending by key, ties in
// table order — which is exactly a stable ORDER BY on the key, letting
// the planner elide a Sort/TopN above it (see finishPlain). Desc flips
// the probe to reverse index order, serving ORDER BY ... DESC the same
// way. Only single-column ordered indexes are planned here: a composite
// index omits rows with a NULL in any key column, which a bound on the
// first column alone does not exclude.
type IndexRange struct {
	Table   *storage.Table
	Name    string
	Binding string
	Index   string
	Column  string
	// Lo/Hi are the range bounds; nil means open on that side (a fully
	// open probe is an index-ordered scan of the whole table).
	Lo, Hi       *sqlparse.Literal
	LoInc, HiInc bool
	Desc         bool
	Residual     sqlparse.Expr
	Layout       *Layout
	// Rows of Of: how many of the table's live rows the probe selects,
	// counted at plan time (Table.CountIndexRange); Of is 0 for a probe
	// that was never counted (the open-ended one behind ORDER BY + LIMIT).
	// Not part of Describe, and so of the fingerprint: it varies with the
	// data, not with the query.
	Rows, Of int
	// Dop > 1 marks the probe as split into morsels over disjoint chunks
	// of the resolved row-ID list (set by Parallelize).
	Dop int
	Out []int // see Scan.Out

	pushed     []sqlparse.Expr // every conjunct behind the bounds and Residual: the filter of the Scan that would replace the probe
	elidesSort bool            // the ORDER BY above rides the probe's order (tryIndexOrder)
}

// IndexOnlyScan answers a query entirely from an index: every projected
// column is an index key column and no residual predicate remains, so the
// executor reads key tuples straight off the index and never materializes
// table rows. Point probes emit the probe literals themselves; range
// probes enumerate keys through storage.KeyRanger (which ordered indexes
// implement). The node emits rows shaped like Cols, described by Layout —
// a single pseudo-segment the Project above resolves against unchanged.
type IndexOnlyScan struct {
	Table   *storage.Table
	Name    string
	Binding string
	Index   string
	Cols    []string // index key columns, in key order = emitted row shape
	// Keys is the point form (one literal per key column); when nil the
	// probe is the Lo/Hi range on the first key column.
	Keys         []*sqlparse.Literal
	Lo, Hi       *sqlparse.Literal
	LoInc, HiInc bool
	Desc         bool
	Layout       *Layout
}

// Filter drops rows whose predicate is not TRUE (three-valued logic).
type Filter struct {
	Input  Node
	Pred   sqlparse.Expr
	Layout *Layout
}

// HashJoin is an inner equi-join: the right input is built into a hash
// table on RightKeys, the left input probes with LeftKeys, and Residual
// (non-equi ON conjuncts) filters the combined rows. With no keys it
// degenerates into a filtered cross join.
type HashJoin struct {
	Left, Right                     Node
	LeftKeys, RightKeys             []sqlparse.Expr
	Residual                        sqlparse.Expr
	LeftLayout, RightLayout, Layout *Layout
	// Dop > 1 runs the build and/or probe phase morsel-parallel over
	// whichever child is a partitionable chain (set by Parallelize).
	Dop int
	Out []int // see Scan.Out; positions of Layout
}

// Project evaluates the select list: column references pass their input
// column on, other expressions are computed per row.
type Project struct {
	Input  Node
	Names  []string
	Exprs  []sqlparse.Expr
	Layout *Layout
}

// Aggregate implements GROUP BY / aggregate queries: it hashes input rows
// by the group keys, folds aggregate states, applies HAVING against the
// output columns, and emits one row per surviving group in first-seen
// order.
type Aggregate struct {
	Input   Node
	Layout  *Layout // input row layout
	Items   []sqlparse.SelectItem
	GroupBy []sqlparse.Expr
	Having  sqlparse.Expr
	Names   []string // output column names
	// Dop > 1 folds per-worker partial aggregates over the input morsels
	// and merges them (set by Parallelize).
	Dop int
}

// Sort fully sorts its input. Exactly one of Layout (keys evaluate
// against base rows) or ByOutput (keys resolve against output column
// names, the grouped path) is set.
type Sort struct {
	Input    Node
	Keys     []sqlparse.OrderKey
	Layout   *Layout
	ByOutput []string
	Out      []int // with Layout: see Scan.Out; with ByOutput the input's columns pass through
}

// TopN keeps the N smallest rows under the sort keys using a bounded
// heap — ORDER BY + LIMIT without sorting (or even retaining) the full
// input. Tie-breaking by input order reproduces a stable full sort
// followed by truncation.
type TopN struct {
	Input    Node
	Keys     []sqlparse.OrderKey
	N        int64
	Layout   *Layout
	ByOutput []string
	Out      []int // as Sort.Out
}

// Gather is the exchange operator: it runs its input — a Filter/Project
// chain over a morsel-split Scan or IndexRange leaf — on Dop workers,
// each worker consuming whole morsels, and re-emits the rows in morsel
// order, so the output sequence is identical to a serial execution of the
// same chain.
type Gather struct {
	Input Node
	Dop   int
}

// Distinct drops duplicate rows (kind-tagged equality, so 1 and '1' stay
// distinct).
type Distinct struct{ Input Node }

// Limit passes through at most N rows.
type Limit struct {
	Input Node
	N     int64
}

func (*Scan) node()          {}
func (*IndexScan) node()     {}
func (*IndexRange) node()    {}
func (*IndexOnlyScan) node() {}
func (*Filter) node()        {}
func (*HashJoin) node()      {}
func (*Project) node()       {}
func (*Aggregate) node()     {}
func (*Sort) node()          {}
func (*TopN) node()          {}
func (*Gather) node()        {}
func (*Distinct) node()      {}
func (*Limit) node()         {}

// dopSuffix renders the " [dop=N]" EXPLAIN annotation of a parallelized
// operator (empty for the serial default).
func dopSuffix(dop int) string {
	if dop <= 1 {
		return ""
	}
	return fmt.Sprintf(" [dop=%d]", dop)
}

func (s *Scan) Describe() string {
	b := s.Name
	if s.Binding != strings.ToLower(s.Name) {
		b += " " + s.Binding
	}
	if s.Filter != nil {
		return fmt.Sprintf("Scan(%s, filter=%s)", b, s.Filter.String()) + dopSuffix(s.Dop)
	}
	return fmt.Sprintf("Scan(%s)", b) + dopSuffix(s.Dop)
}

// eqKeyList renders "a=1 AND b=2" for a point probe's key columns. The
// single-column form matches the historical EXPLAIN output byte for byte,
// keeping the EXPLAIN output and fingerprints of existing plans stable.
func eqKeyList(cols []string, keys []*sqlparse.Literal) string {
	eqs := make([]string, len(cols))
	for i, col := range cols {
		eqs[i] = fmt.Sprintf("%s=%s", col, keys[i].String())
	}
	return strings.Join(eqs, " AND ")
}

func (s *IndexScan) Describe() string {
	d := fmt.Sprintf("IndexScan(%s, %s)", s.Index, eqKeyList(s.Cols, s.Keys))
	if s.Residual != nil {
		d += fmt.Sprintf(" filter=%s", s.Residual.String())
	}
	return d
}

// boundString renders a range probe's bound window for EXPLAIN.
func boundString(col string, lo, hi *sqlparse.Literal, loInc, hiInc, desc bool) string {
	bound := col
	switch {
	case lo != nil && hi != nil:
		bound = fmt.Sprintf("%s..%s", lo.String(), hi.String())
	case lo != nil:
		op := ">"
		if loInc {
			op = ">="
		}
		bound = fmt.Sprintf("%s %s %s", col, op, lo.String())
	case hi != nil:
		op := "<"
		if hiInc {
			op = "<="
		}
		bound = fmt.Sprintf("%s %s %s", col, op, hi.String())
	}
	if desc {
		bound += " desc"
	}
	return bound
}

func (s *IndexRange) Describe() string {
	d := fmt.Sprintf("IndexRange(%s, %s)", s.Index, boundString(s.Column, s.Lo, s.Hi, s.LoInc, s.HiInc, s.Desc))
	if s.Residual != nil {
		d += fmt.Sprintf(" filter=%s", s.Residual.String())
	}
	return d + dopSuffix(s.Dop)
}

func (s *IndexOnlyScan) Describe() string {
	if s.Keys != nil {
		return fmt.Sprintf("IndexOnlyScan(%s, %s)", s.Index, eqKeyList(s.Cols, s.Keys))
	}
	return fmt.Sprintf("IndexOnlyScan(%s, %s)", s.Index, boundString(s.Cols[0], s.Lo, s.Hi, s.LoInc, s.HiInc, s.Desc))
}

func (f *Filter) Describe() string { return fmt.Sprintf("Filter(%s)", f.Pred.String()) }

func (j *HashJoin) Describe() string {
	if len(j.LeftKeys) == 0 {
		if j.Residual != nil {
			return fmt.Sprintf("NestedJoin(on=%s)", j.Residual.String()) + dopSuffix(j.Dop)
		}
		return "CrossJoin" + dopSuffix(j.Dop)
	}
	var keys []string
	for i := range j.LeftKeys {
		keys = append(keys, j.LeftKeys[i].String()+" = "+j.RightKeys[i].String())
	}
	d := fmt.Sprintf("HashJoin(%s)", strings.Join(keys, " AND "))
	if j.Residual != nil {
		d += fmt.Sprintf(" residual=%s", j.Residual.String())
	}
	return d + dopSuffix(j.Dop)
}

func (p *Project) Describe() string {
	return fmt.Sprintf("Project(%s)", strings.Join(p.Names, ", "))
}

func (a *Aggregate) Describe() string {
	if len(a.GroupBy) == 0 {
		return fmt.Sprintf("HashAggregate(%s)", strings.Join(a.Names, ", ")) + dopSuffix(a.Dop)
	}
	var keys []string
	for _, g := range a.GroupBy {
		keys = append(keys, g.String())
	}
	return fmt.Sprintf("HashAggregate(by=%s → %s)", strings.Join(keys, ", "), strings.Join(a.Names, ", ")) + dopSuffix(a.Dop)
}

func orderKeyList(keys []sqlparse.OrderKey) string {
	var out []string
	for _, k := range keys {
		s := k.Expr.String()
		if k.Desc {
			s += " DESC"
		}
		out = append(out, s)
	}
	return strings.Join(out, ", ")
}

func (s *Sort) Describe() string { return fmt.Sprintf("Sort(%s)", orderKeyList(s.Keys)) }
func (t *TopN) Describe() string {
	return fmt.Sprintf("TopN(n=%d, %s)", t.N, orderKeyList(t.Keys))
}
func (g *Gather) Describe() string { return fmt.Sprintf("Gather(dop=%d)", g.Dop) }
func (*Distinct) Describe() string { return "Distinct" }
func (l *Limit) Describe() string  { return fmt.Sprintf("Limit(%d)", l.N) }

// inputs returns the k slots holding a node's inputs, in display order.
func inputs(n Node) (in [2]*Node, k int) {
	switch t := n.(type) {
	case *HashJoin:
		return [2]*Node{&t.Left, &t.Right}, 2
	case *Filter:
		in[0] = &t.Input
	case *Project:
		in[0] = &t.Input
	case *Aggregate:
		in[0] = &t.Input
	case *Sort:
		in[0] = &t.Input
	case *TopN:
		in[0] = &t.Input
	case *Gather:
		in[0] = &t.Input
	case *Distinct:
		in[0] = &t.Input
	case *Limit:
		in[0] = &t.Input
	case *DML:
		in[0] = &t.Input
	default:
		return in, 0
	}
	return in, 1
}

// Children returns a node's inputs in display order.
func Children(n Node) []Node {
	in, k := inputs(n)
	if k == 0 {
		return nil
	}
	out := make([]Node, k)
	for i := range out {
		out[i] = *in[i]
	}
	return out
}

// SelectPlan is a planned statement: the operator tree plus the output
// column names of a SELECT. An UPDATE's or DELETE's tree has a *DML root
// and no output columns (BuildDML).
type SelectPlan struct {
	Root    Node
	Columns []string
}

// Explain renders the plan tree, one operator per line, children indented
// under their parent. Its output feeds Fingerprint and a traced cache
// hit's plan tree, so it must stay free of runtime annotations — EXPLAIN
// ANALYZE goes through ExplainWith instead.
func (p *SelectPlan) Explain() []string {
	return p.ExplainWith(nil)
}

// ExplainWith renders the plan tree like Explain, appending annot(n) to
// each node's line when annot is non-nil and returns a non-empty string.
// This is how EXPLAIN ANALYZE attaches per-operator actuals without
// perturbing the fingerprint-stable Explain output.
func (p *SelectPlan) ExplainWith(annot func(Node) string) []string {
	var lines []string
	var walk func(n Node, prefix string, childPrefix string)
	walk = func(n Node, prefix, childPrefix string) {
		line := prefix + n.Describe()
		if annot != nil {
			if a := annot(n); a != "" {
				line += a
			}
		}
		lines = append(lines, line)
		kids := Children(n)
		for i, k := range kids {
			last := i == len(kids)-1
			connector, cont := "├─ ", "│  "
			if last {
				connector, cont = "└─ ", "   "
			}
			walk(k, childPrefix+connector, childPrefix+cont)
		}
	}
	walk(p.Root, "", "")
	return lines
}

// Fingerprint is the plan's normalized identity: two SQL texts that lower
// to the same plan — aliases resolved, predicates canonicalized by
// Expr.String, pushdowns applied, output columns fixed — produce the same
// fingerprint and therefore the same result against unchanged tables.
// Built from Explain() rather than the AST so every normalization the
// planner performs is inherited for free. It is not on the serving path:
// the result cache is keyed on SQL text, probed before anything parses
// (internal/core). The benchmark harness keys its own cache mirror with it.
func (p *SelectPlan) Fingerprint() string {
	return strings.Join(p.Columns, ",") + "\n" + strings.Join(p.Explain(), "\n")
}

// Tables returns the distinct base tables the plan reads (lower-cased,
// sorted) — the cache's invalidation scope: a mutation of any of them
// must kill the cached result.
func (p *SelectPlan) Tables() []string {
	seen := map[string]bool{}
	var walk func(n Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Scan:
			seen[strings.ToLower(t.Name)] = true
		case *IndexScan:
			seen[strings.ToLower(t.Name)] = true
		case *IndexRange:
			seen[strings.ToLower(t.Name)] = true
		case *IndexOnlyScan:
			seen[strings.ToLower(t.Name)] = true
		}
		for _, k := range Children(n) {
			walk(k)
		}
	}
	walk(p.Root)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
