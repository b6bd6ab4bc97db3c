package exec

import (
	"fmt"
	"sort"
	"strings"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Iterator is the batch-pull contract every operator implements.
//
// Open prepares the operator (blocking operators consume their whole
// input here); NextBatch returns the next batch of rows; Close releases
// resources. A nil batch ends the stream. As with io.Reader, a call may
// return a batch and an error together: the batch's rows precede the
// error in the row stream, which is how a query that fails on some row
// still surfaces exactly the rows before it. After an error the stream
// is over.
//
// A batch belongs to the operator that returned it (storage.Batch): the
// caller reads it until its next NextBatch or Close call on that
// operator and never writes through it. Operators that narrow rows
// (Filter, Limit, Distinct) return their input's vectors under a
// selection of their own; operators that retain rows across calls (the
// join build, Sort, TopN, Aggregate) copy the cells they keep — as does
// whoever keeps a result beyond the tree that produced it (Drain).
type Iterator interface {
	Open() error
	NextBatch() (*storage.Batch, error)
	Close() error
}

// Build lowers a plan node into its iterator tree.
func Build(n plan.Node) (Iterator, error) { return build(n, nil) }

// BuildTraced lowers a plan node like Build, additionally wrapping every
// operator so tr records per-operator rows-out and wall time: a built
// iterator once, a chain's operators in every worker's stack (see
// Trace). With tr == nil it is exactly Build — the tracing-off path adds
// zero work.
func BuildTraced(n plan.Node, tr *Trace) (Iterator, error) { return build(n, tr) }

// build lowers n into an iterator. A chain (plan.ChainLeaf) is read
// through a one-worker gather over its source, whose stacks the trace
// wraps; anything else is built here and wrapped whole.
func build(n plan.Node, tr *Trace) (Iterator, error) {
	if plan.ChainLeaf(n) != nil {
		return &gatherIter{src: source{chain: lowerChain(n, tr)}}, nil
	}
	it, err := buildRaw(n, tr)
	if err != nil || tr == nil {
		return it, err
	}
	return tr.wrap(n, it), nil
}

func buildRaw(n plan.Node, tr *Trace) (Iterator, error) {
	switch t := n.(type) {
	case *plan.IndexOnlyScan:
		return &indexOnlyIter{node: t}, nil
	case *plan.Filter:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return newFilter(t.Pred, t.Layout, plan.OutputCols(t.Input))(in), nil
	case *plan.Gather:
		src, err := sourceOf(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &gatherIter{src: src}, nil
	case *plan.HashJoin:
		left, err := sourceOf(t.Left, tr)
		if err != nil {
			return nil, err
		}
		right, err := sourceOf(t.Right, tr)
		if err != nil {
			return nil, err
		}
		return newHashJoin(t, left, right), nil
	case *plan.Project:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return newProject(t)(in), nil
	case *plan.DML:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return newDML(t, in), nil
	case *plan.Aggregate:
		in, err := sourceOf(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return newAggregate(t, in), nil
	case *plan.Sort:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &sortIter{input: in, spec: newOrderSpec(t.Keys, t.Layout, t.ByOutput, t.Input, t.Out)}, nil
	case *plan.TopN:
		in, err := build(t.Input, tr)
		if err != nil {
			return nil, err
		}
		return &topNIter{input: in, n: t.N, spec: newOrderSpec(t.Keys, t.Layout, t.ByOutput, t.Input, t.Out)}, nil
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

// colRef locates a bound column reference: column slot of input side, and
// for a base column the kind its schema declares. A reference that did
// not resolve keeps its error, reported when — and only if — the
// reference is evaluated.
type colRef struct {
	slot int
	side uint8
	kind storage.Kind
	err  error
}

// binding maps the column references of an operator's expressions to
// batch columns. It is resolved once, when the operator is built, and
// only read afterwards, so the workers running copies of the operator
// share it.
type binding map[*sqlparse.ColumnRef]colRef

// resolver resolves one reference for a binding.
type resolver func(ref *sqlparse.ColumnRef) colRef

// bindExprs resolves every column reference of exprs.
func bindExprs(res resolver, exprs ...sqlparse.Expr) binding {
	refs := binding{}
	refs.add(res, exprs...)
	return refs
}

// add resolves the column references of exprs into refs.
func (refs binding) add(res resolver, exprs ...sqlparse.Expr) {
	for _, e := range exprs {
		sqlparse.WalkColumns(e, func(ref *sqlparse.ColumnRef) {
			if _, ok := refs[ref]; !ok {
				refs[ref] = res(ref)
			}
		})
	}
}

// slotOf finds layout position idx among a node's output columns.
func slotOf(cols []int, idx int) (int, bool) {
	k := sort.SearchInts(cols, idx)
	return k, k < len(cols) && cols[k] == idx
}

// layoutResolver resolves references against batches carrying the columns
// cols (plan.OutputCols) of layout, as input side 0.
func layoutResolver(layout *plan.Layout, cols []int) resolver {
	return func(ref *sqlparse.ColumnRef) colRef {
		idx, err := layout.Resolve(ref.Table, ref.Name)
		if err != nil {
			return colRef{err: err}
		}
		slot, ok := slotOf(cols, idx)
		if !ok {
			return colRef{err: fmt.Errorf("engine: internal: column %q was pruned from the operator's input", ref.Name)}
		}
		return colRef{slot: slot, kind: layout.Kind(idx)}
	}
}

// outputResolver resolves unqualified references against named output
// columns (a grouped query's result shape), for HAVING and grouped ORDER
// BY; on duplicate names the first occurrence wins.
func outputResolver(names []string) resolver {
	idx := map[string]int{}
	for i, n := range names {
		lower := strings.ToLower(n)
		if _, dup := idx[lower]; !dup {
			idx[lower] = i
		}
	}
	return func(ref *sqlparse.ColumnRef) colRef {
		if ref.Table == "" {
			if i, ok := idx[strings.ToLower(ref.Name)]; ok {
				return colRef{slot: i}
			}
		}
		return colRef{err: fmt.Errorf("engine: HAVING/ORDER BY column %q is not in the grouped output", ref.Name)}
	}
}

// batchEnv evaluates bound expressions at one cell position of each
// input: in[0] is the operator's input batch; a join residual also reads
// the build side as in[1]. The positions are repointed per row, so one
// env serves a whole scan.
type batchEnv struct {
	refs binding
	in   [2]struct {
		cols []storage.Vector
		i    int
	}
}

func (e *batchEnv) Lookup(ref *sqlparse.ColumnRef) (storage.Value, error) {
	r := e.refs[ref]
	if r.err != nil {
		return storage.Null(), r.err
	}
	in := &e.in[r.side]
	return in.cols[r.slot].Value(in.i), nil
}

// boundExprs is a list of expressions bound to an operator's input. A
// bare column reference reads its vector directly (slots[k] ≥ 0); only
// computed expressions go through the evaluator.
type boundExprs struct {
	exprs []sqlparse.Expr
	slots []int
	refs  binding
}

func bindList(res resolver, exprs []sqlparse.Expr) *boundExprs {
	b := &boundExprs{exprs: exprs, slots: make([]int, len(exprs)), refs: bindExprs(res, exprs...)}
	for k, e := range exprs {
		b.slots[k] = -1
		if ref, ok := e.(*sqlparse.ColumnRef); ok {
			if r := b.refs[ref]; r.err == nil {
				b.slots[k] = r.slot
			}
		}
	}
	return b
}

// kind is the declared kind of expression k when it is a bare reference
// to a base column, KindNull otherwise.
func (b *boundExprs) kind(k int) storage.Kind {
	if ref, ok := b.exprs[k].(*sqlparse.ColumnRef); ok && b.slots[k] >= 0 {
		return b.refs[ref].kind
	}
	return storage.KindNull
}

// value evaluates expression k at the env's current position of input 0.
func (b *boundExprs) value(k int, env *batchEnv) (storage.Value, error) {
	if s := b.slots[k]; s >= 0 {
		return env.in[0].cols[s].Value(env.in[0].i), nil
	}
	return EvalValue(b.exprs[k], env)
}

// values appends the value of every expression to dst.
func (b *boundExprs) values(dst []storage.Value, env *batchEnv) ([]storage.Value, error) {
	for k := range b.exprs {
		v, err := b.value(k, env)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Drain runs an iterator to completion and returns its rows as a list of
// owned batches (storage.AppendOwned): the result outlives the iterator,
// which is closed — its pins released — before Drain returns, so nothing
// in the list is a view of storage or of an operator's scratch.
func Drain(it Iterator) ([]storage.Batch, error) {
	if err := it.Open(); err != nil {
		_ = it.Close()
		return nil, err
	}
	defer it.Close()
	var out []storage.Batch
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = storage.AppendOwned(out, b)
	}
}
