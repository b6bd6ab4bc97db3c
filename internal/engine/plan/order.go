package plan

import (
	"math"
	"strings"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Greedy bottom-up join ordering (see DESIGN.md §14).
//
// The database keeps no statistics beyond what storage maintains anyway —
// table row counts and index Entries() — so the planner orders N-way
// joins with a greedy heuristic over the equi-join graph instead of
// exhaustive enumeration: WHERE and ON conjuncts are pooled, equality
// conjuncts whose two sides each touch exactly one (distinct) table
// become graph edges, and components are merged smallest-estimated-output
// first, with the smaller side of every merge becoming the hash-join
// build input. Components with no connecting edge are only ever merged as
// a last resort (cross-join demotion). Ties break toward SQL syntax
// order, so queries the heuristic cannot distinguish keep their
// historical left-deep shape (and their EXPLAIN fingerprints).

// joinConjunct is a WHERE/ON conjunct that references zero or ≥2 tables
// and is not usable as a hash key: it attaches to the first join whose
// output covers all its references — ON-sourced ones as the join's
// residual, WHERE-sourced ones as a Filter above it.
type joinConjunct struct {
	expr   sqlparse.Expr
	refs   map[string]bool
	fromOn bool
	placed bool
}

// joinEdge is an equality conjunct `exprA = exprB` with each side bound
// to exactly one table — an edge of the equi-join graph.
type joinEdge struct {
	a, b         string // bindings of the two sides
	aExpr, bExpr sqlparse.Expr
	used         bool
}

// joinComponent is a connected sub-plan under construction.
type joinComponent struct {
	node     Node
	bindings map[string]bool
	segs     []int // segment indices in physical (probe-major) order
	est      float64
	minSyn   int // smallest syntax index inside, for deterministic ties
}

// estimateAccess is the no-ANALYZE cardinality guess for an access path:
// the signals storage maintains anyway (NumRows, index Entries) scaled by
// fixed selectivity fractions — 1/3 per pushed filter, 1/10 for an indexed
// equality — and for a range probe the exact count it was planned with.
// Floored at 1 so empty tables tie (and the tie-break keeps syntax order)
// instead of producing degenerate zeros.
func estimateAccess(n Node) float64 {
	switch t := n.(type) {
	case *Scan:
		rows := float64(t.Table.NumRows())
		if t.Filter != nil {
			rows /= 3
		}
		return math.Max(1, rows)
	case *IndexScan:
		return math.Max(1, float64(indexEntries(t.Table, t.Index))/10)
	case *IndexRange:
		return math.Max(1, float64(t.Rows))
	default:
		return 1
	}
}

// indexEntries returns the named index's entry count (0 if detached
// since planning began — the estimate only needs to be roughly right).
func indexEntries(t *storage.Table, name string) int {
	for _, m := range t.IndexMetas() {
		if strings.EqualFold(m.Name, name) {
			return m.Entries
		}
	}
	return 0
}

// greedyJoin orders the ≥2-table join greedily and returns the root node
// plus the physical layout of its output rows (segments in probe-major
// order, which can differ from syntax order).
func (b *builder) greedyJoin(pushed map[string][]sqlparse.Expr, edges []joinEdge, pending []joinConjunct) (Node, *Layout) {
	comps := make([]*joinComponent, len(b.segs))
	for i, seg := range b.segs {
		node := b.accessPath(i, pushed[seg.Binding])
		comps[i] = &joinComponent{
			node:     node,
			bindings: map[string]bool{seg.Binding: true},
			segs:     []int{i},
			est:      estimateAccess(node),
			minSyn:   i,
		}
	}

	connected := func(x, y *joinComponent) bool {
		for _, e := range edges {
			if e.used {
				continue
			}
			if (x.bindings[e.a] && y.bindings[e.b]) || (x.bindings[e.b] && y.bindings[e.a]) {
				return true
			}
		}
		return false
	}

	for len(comps) > 1 {
		// Pick the cheapest merge: equi-connected pairs produce
		// max(estL, estR) rows under the FK-ish uniform assumption, cross
		// joins produce the product — and are only considered when no
		// connected pair remains at all (cross-join demotion). comps stays
		// ordered by minSyn, so the first minimal pair is the
		// syntax-earliest one.
		bi, bj, bestEst, haveEdge := -1, -1, math.Inf(1), false
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				conn := connected(comps[i], comps[j])
				if haveEdge && !conn {
					continue
				}
				var est float64
				if conn {
					est = math.Max(comps[i].est, comps[j].est)
				} else {
					est = comps[i].est * comps[j].est
				}
				if (conn && !haveEdge) || est < bestEst {
					bi, bj, bestEst, haveEdge = i, j, est, conn
				}
			}
		}

		probe, build := comps[bi], comps[bj]
		// The smaller estimated side becomes the build input (drained into
		// the hash table); ties keep the syntax-later component as build,
		// reproducing the historical left-deep shape.
		if probe.est < build.est {
			probe, build = build, probe
		}

		// Consume every edge crossing the pair as a key pair, oriented
		// probe-side first (LeftKeys evaluate against probe rows).
		var leftKeys, rightKeys []sqlparse.Expr
		for k := range edges {
			e := &edges[k]
			if e.used {
				continue
			}
			switch {
			case probe.bindings[e.a] && build.bindings[e.b]:
				leftKeys, rightKeys = append(leftKeys, e.aExpr), append(rightKeys, e.bExpr)
				e.used = true
			case probe.bindings[e.b] && build.bindings[e.a]:
				leftKeys, rightKeys = append(leftKeys, e.bExpr), append(rightKeys, e.aExpr)
				e.used = true
			}
		}

		merged := &joinComponent{
			bindings: map[string]bool{},
			segs:     append(append([]int{}, probe.segs...), build.segs...),
			est:      bestEst,
			minSyn:   min(probe.minSyn, build.minSyn),
		}
		for bd := range probe.bindings {
			merged.bindings[bd] = true
		}
		for bd := range build.bindings {
			merged.bindings[bd] = true
		}

		// Attach every pending conjunct whose references are now all in
		// scope: ON conjuncts as the join residual, WHERE conjuncts as a
		// Filter above it. Each shrinks the estimate by the fixed 1/3.
		var onRes, whereRes []sqlparse.Expr
		for k := range pending {
			p := &pending[k]
			if p.placed || !subset(p.refs, merged.bindings) {
				continue
			}
			p.placed = true
			if p.fromOn {
				onRes = append(onRes, p.expr)
			} else {
				whereRes = append(whereRes, p.expr)
			}
			merged.est = math.Max(1, merged.est/3)
		}

		outLayout := b.layoutFor(merged.segs)
		var node Node = &HashJoin{
			Left: probe.node, Right: build.node,
			LeftKeys: leftKeys, RightKeys: rightKeys,
			Residual:    conjoin(onRes),
			LeftLayout:  b.layoutFor(probe.segs),
			RightLayout: b.layoutFor(build.segs),
			Layout:      outLayout,
		}
		if pred := conjoin(whereRes); pred != nil {
			node = &Filter{Input: node, Pred: pred, Layout: outLayout}
		}
		merged.node = node

		comps[bi] = merged
		comps = append(comps[:bj], comps[bj+1:]...)
	}

	return comps[0].node, b.layoutFor(comps[0].segs)
}

// layoutFor builds the layout of a row composed of the given segments, in
// order.
func (b *builder) layoutFor(idxs []int) *Layout {
	segs := make([]Segment, len(idxs))
	for i, si := range idxs {
		segs[i] = b.segs[si]
	}
	return NewLayout(segs...)
}
