package plan

import (
	"sort"

	"crowddb/internal/sqlparse"
)

// Needed-columns pass. The executor moves column batches, not rows, and a
// batch carries only the columns somebody above reads: pruneColumns walks
// a finished plan top-down and records on every node that shapes its own
// output — the access paths, HashJoin, and a Sort/TopN over base rows —
// the layout positions it must produce (Out). Everything else either
// emits a fixed positional list (Project, Aggregate, IndexOnlyScan, DML) or
// passes its input's columns through (Filter, Gather, Distinct, Limit, a
// Sort/TopN over grouped output). A table widened to hundreds of columns
// by schema expansion therefore costs a query only the columns it names,
// and COUNT(*) above a join moves no column at all.
//
// An access path's Out includes the columns of its own pushed-down filter
// or residual: the scan reads them anyway to evaluate the predicate.

// pruneColumns annotates the plan under root; nothing is required of the
// root beyond what it computes itself.
func pruneColumns(root Node) { need(root, nil) }

// need records that n's parent reads the layout positions req of n's
// output and recurses with what n in turn reads of its inputs.
func need(n Node, req []int) {
	switch t := n.(type) {
	case *Scan:
		t.Out = WithExprCols(req, t.Layout, t.Filter)
	case *IndexScan:
		t.Out = WithExprCols(req, t.Layout, t.Residual)
	case *IndexRange:
		t.Out = WithExprCols(req, t.Layout, t.Residual)
	case *Filter:
		need(t.Input, WithExprCols(req, t.Layout, t.Pred))
	case *HashJoin:
		t.Out = req
		left := WithExprCols(nil, t.LeftLayout, t.LeftKeys...)
		right := WithExprCols(nil, t.RightLayout, t.RightKeys...)
		for _, c := range WithExprCols(req, t.Layout, t.Residual) {
			if lw := t.LeftLayout.Width; c < lw {
				left = addCol(left, c)
			} else {
				right = addCol(right, c-lw)
			}
		}
		need(t.Left, left)
		need(t.Right, right)
	case *Project:
		need(t.Input, WithExprCols(nil, t.Layout, t.Exprs...))
	case *Aggregate:
		cols := WithExprCols(nil, t.Layout, t.GroupBy...)
		for _, item := range t.Items {
			cols = WithExprCols(cols, t.Layout, item.Expr)
		}
		need(t.Input, cols)
	case *Sort:
		need(t.Input, orderNeeds(t.Layout, t.Keys, &t.Out, req))
	case *TopN:
		need(t.Input, orderNeeds(t.Layout, t.Keys, &t.Out, req))
	case *DML:
		need(t.Input, WithExprCols(nil, t.Layout, t.Exprs...))
	default:
		if in := passesThrough(n); in != nil {
			need(in, req)
		}
	}
}

// orderNeeds is need for a Sort or TopN: over base rows (layout set) the
// node emits req — recorded in *out — and reads its keys' columns besides;
// over a grouped query's output names it passes its input through.
func orderNeeds(layout *Layout, keys []sqlparse.OrderKey, out *[]int, req []int) []int {
	if layout == nil {
		return req
	}
	*out = req
	exprs := make([]sqlparse.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return WithExprCols(req, layout, exprs...)
}

// passesThrough returns the input of a node whose batches carry exactly
// its input's columns, nil for any other node.
func passesThrough(n Node) Node {
	switch t := n.(type) {
	case *Filter:
		return t.Input
	case *Gather:
		return t.Input
	case *Distinct:
		return t.Input
	case *Limit:
		return t.Input
	case *Sort:
		if t.Layout == nil {
			return t.Input
		}
	case *TopN:
		if t.Layout == nil {
			return t.Input
		}
	}
	return nil
}

// OutputCols returns, ascending, the positions in n's output layout of
// the columns its batches carry: column k of a batch is layout position
// OutputCols(n)[k]. Positional nodes number their items 0, 1, ….
func OutputCols(n Node) []int {
	if in := passesThrough(n); in != nil {
		return OutputCols(in)
	}
	switch t := n.(type) {
	case *Scan:
		return t.Out
	case *IndexScan:
		return t.Out
	case *IndexRange:
		return t.Out
	case *HashJoin:
		return t.Out
	case *IndexOnlyScan:
		return positions(len(t.Cols))
	case *Project:
		return positions(len(t.Exprs))
	case *Aggregate:
		return positions(len(t.Items))
	case *DML:
		return positions(len(t.Exprs))
	case *Sort:
		return t.Out
	case *TopN:
		return t.Out
	}
	return nil
}

func positions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// WithExprCols returns a copy of the sorted set cols plus the layout
// positions the expressions reference. References that do not resolve
// were rejected by validation, or belong to a grouped query's output
// names; they name no input column either way.
func WithExprCols(cols []int, layout *Layout, exprs ...sqlparse.Expr) []int {
	out := append(make([]int, 0, len(cols)+2), cols...)
	for _, e := range exprs {
		sqlparse.WalkColumns(e, func(ref *sqlparse.ColumnRef) {
			if idx, err := layout.Resolve(ref.Table, ref.Name); err == nil {
				out = addCol(out, idx)
			}
		})
	}
	return out
}

// addCol inserts c into the sorted set cols.
func addCol(cols []int, c int) []int {
	i := sort.SearchInts(cols, c)
	if i < len(cols) && cols[i] == c {
		return cols
	}
	cols = append(cols, 0)
	copy(cols[i+1:], cols[i:])
	cols[i] = c
	return cols
}
