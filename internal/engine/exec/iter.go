package exec

import (
	"fmt"
	"strconv"
	"strings"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// Iterator is the volcano row-pull contract every operator implements.
//
// Open prepares the operator (blocking operators consume their whole
// input here); Next returns the next row, reporting ok=false at end of
// stream; Close releases resources. Rows returned by Next may alias
// internal buffers and are valid only until the following Next call —
// callers that retain rows must Clone them. Operators that construct
// fresh rows (Project, Aggregate, HashJoin output) hand over ownership.
type Iterator interface {
	Open() error
	Next() (storage.Row, bool, error)
	Close() error
}

// Build lowers a plan node into its iterator tree.
func Build(n plan.Node) (Iterator, error) { return build(n, nil) }

// BuildTraced lowers a plan node like Build, additionally wrapping every
// materialized iterator so tr records per-operator rows-out and wall
// time. Nodes inside marked morsel chains build no iterator here (their
// stacks are made per morsel) and record no stats (see Trace). With
// tr == nil it is exactly Build — the tracing-off path adds zero work.
func BuildTraced(n plan.Node, tr *Trace) (Iterator, error) { return build(n, tr) }

func build(n plan.Node, tr *Trace) (Iterator, error) {
	it, err := buildRaw(n, tr)
	if err != nil || tr == nil {
		return it, err
	}
	return tr.wrap(n, it), nil
}

func buildRaw(n plan.Node, tr *Trace) (Iterator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return scanOf(t, nil, 0, -1), nil
	case *plan.IndexScan:
		it := &indexIter{table: t.Table, index: t.Index, probe: pointProbeOf(t.Keys)}
		return filterOver(it, t.Residual, t.Layout), nil
	case *plan.IndexRange:
		it := &indexIter{table: t.Table, index: t.Index, probe: indexRangeProbe(t)}
		return filterOver(it, t.Residual, t.Layout), nil
	case *plan.IndexOnlyScan:
		return &indexOnlyIter{node: t}, nil
	case *plan.Filter:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return filterOver(in, t.Pred, t.Layout), nil
	case *plan.Gather:
		src, err := sourceOf(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &gatherIter{dop: t.Dop, mkSource: src}, nil
	case *plan.HashJoin:
		left, err := sourceOf(t.Left, tr)
		if err != nil {
			return nil, err
		}
		right, err := sourceOf(t.Right, tr)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{node: t, left: left, right: right}, nil
	case *plan.Project:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &projectIter{input: in, node: t}, nil
	case *plan.Aggregate:
		in, err := sourceOf(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &aggIter{input: in, node: t}, nil
	case *plan.Sort:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &sortIter{input: in, keys: t.Keys, env: keyEnv(t.Layout, t.ByOutput)}, nil
	case *plan.TopN:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &topNIter{input: in, keys: t.Keys, n: t.N, env: keyEnv(t.Layout, t.ByOutput)}, nil
	case *plan.Distinct:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &distinctIter{input: in}, nil
	case *plan.Limit:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &limitIter{input: in, n: t.N}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported plan node %T", n)
	}
}

// rowEnv resolves references against a base (layout-shaped) row. The row
// field is repointed per row, so one env serves a whole scan.
type rowEnv struct {
	layout *plan.Layout
	row    storage.Row
}

func (e *rowEnv) Lookup(table, name string) (storage.Value, error) {
	idx, err := e.layout.Resolve(table, name)
	if err != nil {
		return storage.Null(), err
	}
	return e.row[idx], nil
}

// outputEnv resolves references against named output columns (a grouped
// query's result shape), for HAVING and grouped ORDER BY.
type outputEnv struct {
	names map[string]int
	row   storage.Row
}

// newOutputEnv indexes names; on duplicates the first occurrence wins.
func newOutputEnv(names []string) *outputEnv {
	idx := map[string]int{}
	for i, n := range names {
		lower := strings.ToLower(n)
		if _, dup := idx[lower]; !dup {
			idx[lower] = i
		}
	}
	return &outputEnv{names: idx}
}

func (e *outputEnv) Lookup(table, name string) (storage.Value, error) {
	if table == "" {
		if i, ok := e.names[strings.ToLower(name)]; ok {
			return e.row[i], nil
		}
	}
	return storage.Null(), fmt.Errorf("engine: HAVING/ORDER BY column %q is not in the grouped output", name)
}

// bindEnv is the repointable env shared by sort/topN key evaluation: one
// of layout or byOutput is set, matching the plan node.
type bindEnv interface {
	Env
	bind(row storage.Row)
}

func (e *rowEnv) bind(row storage.Row)    { e.row = row }
func (e *outputEnv) bind(row storage.Row) { e.row = row }

func keyEnv(layout *plan.Layout, byOutput []string) bindEnv {
	if layout != nil {
		return &rowEnv{layout: layout}
	}
	return newOutputEnv(byOutput)
}

// rowKey builds a deduplication key for DISTINCT and GROUP BY. The kind
// tag keeps 1 and '1' distinct; values are length-prefixed so text
// containing separator or kind-tag bytes cannot forge a collision
// between different rows.
func rowKey(row storage.Row) string {
	var sb strings.Builder
	for _, v := range row {
		s := v.String()
		sb.WriteByte(byte(v.Kind()))
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

// Drain runs an iterator to completion, returning all rows. It does NOT
// clone: the caller must ensure the tree's root owns the rows it emits
// (every root the planner produces — Project, Aggregate, or an operator
// above them — does; a hand-built tree rooted at Scan or Filter would
// return rows aliasing the reused batch buffer).
func Drain(it Iterator) ([]storage.Row, error) {
	if err := it.Open(); err != nil {
		_ = it.Close()
		return nil, err
	}
	defer it.Close()
	var out []storage.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}
