package exec

import (
	"math/bits"
	"sort"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// aggState accumulates one aggregate over one group. It is a few words —
// a group's states sit in its worker's slab — and only MIN and MAX, which
// must remember a value, point outside it.
type aggState struct {
	count   int
	sum     float64
	numeric bool
	best    *storage.Value // MIN/MAX: the extreme so far
}

func (st *aggState) observe(agg sqlparse.AggFunc, v storage.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	if agg == sqlparse.AggMin || agg == sqlparse.AggMax {
		st.keepBest(agg, v)
	} else if f, ok := v.AsFloat(); ok {
		st.sum += f
		st.numeric = true
	}
}

// keepBest keeps v if it beats the extreme so far; values it cannot be
// compared with are passed over.
func (st *aggState) keepBest(agg sqlparse.AggFunc, v storage.Value) {
	if st.best == nil {
		first := v // a copy, so that only this branch moves a value to the heap
		st.best = &first
		return
	}
	if c, err := v.Compare(*st.best); err == nil && (c < 0) == (agg == sqlparse.AggMin) && c != 0 {
		*st.best = v
	}
}

// merge folds another partial state into st — the combine step of
// parallel partial aggregation. Every supported aggregate is
// decomposable: count and sum add, min/max compare, avg derives from
// count+sum at finalize.
func (st *aggState) merge(agg sqlparse.AggFunc, o *aggState) {
	st.count += o.count
	st.sum += o.sum
	st.numeric = st.numeric || o.numeric
	if o.best != nil {
		st.keepBest(agg, *o.best)
	}
}

func (st *aggState) finalize(agg sqlparse.AggFunc) storage.Value {
	switch agg {
	case sqlparse.AggCount:
		return storage.Int(int64(st.count))
	case sqlparse.AggSum:
		if st.count == 0 || !st.numeric {
			return storage.Null()
		}
		return storage.Float(st.sum)
	case sqlparse.AggAvg:
		if st.count == 0 || !st.numeric {
			return storage.Null()
		}
		return storage.Float(st.sum / float64(st.count))
	case sqlparse.AggMin, sqlparse.AggMax:
		if st.best != nil {
			return *st.best
		}
	}
	return storage.Null()
}

// aggIter implements HashAggregate: Open consumes the whole input,
// hashing rows into groups and folding aggregate states; NextBatch emits
// one output row per group in first-seen order, with HAVING applied
// against the output columns. Scalar (group-key) items take the group's
// key values. Aggregates without GROUP BY yield exactly one row, even for
// empty input (standard SQL).
//
// The fold reads vectors: a row's group key is encoded from the GROUP BY
// cells into a scratch the worker reuses, so finding the group of a row
// allocates nothing; a new group costs its key string and a stretch of
// its worker's slabs — the boxed GROUP BY values it is identified by and
// its states; nothing else of the row is kept. It is a runMorsels phase
// over the input source: each worker folds a partial (aggGroups), and the
// partials are merged — states via aggState.merge, first-seen sequence
// the lowest of the partials' — so output order and values are the same
// at any dop. One worker leaves one partial and nothing to merge.
type aggIter struct {
	input sourceFn
	node  *plan.Aggregate

	// Bound when the operator is built, read-only afterwards.
	groupBy *boundExprs
	args    *boundExprs // one per item; a nil expression for COUNT(*) and scalar items; shares groupBy's binding
	itemKey []int       // per scalar item: the GROUP BY expression it repeats
	having  binding

	out storage.Batch // every surviving group's row; Sel is the window being emitted
	sel []int32
	pos int
}

func newAggregate(t *plan.Aggregate, input sourceFn) *aggIter {
	res := layoutResolver(t.Layout, plan.OutputCols(t.Input))
	a := &aggIter{
		input: input, node: t,
		groupBy: bindList(res, t.GroupBy),
		itemKey: make([]int, len(t.Items)),
		having:  bindExprs(outputResolver(t.Names), t.Having),
	}
	args := make([]sqlparse.Expr, len(t.Items))
	for k, item := range t.Items {
		a.itemKey[k] = -1
		if item.Agg != sqlparse.AggNone {
			args[k] = item.Expr
			continue
		}
		for gi, g := range t.GroupBy {
			if g.String() == item.Expr.String() {
				a.itemKey[k] = gi
			}
		}
	}
	a.args = bindList(res, args)
	a.groupBy.refs.add(res, args...) // one env evaluates both lists
	return a
}

// slab is an append-only array of fixed-size records that never move:
// records live in chunks of doubling size (16 records, then 32, 64, …),
// so growing costs no copy and at most doubles the memory in use —
// append's amortized regrowth of a large slice would allocate five times
// the final size along the way.
type slab[T any] struct {
	rec    int // elements per record
	n      int // records held
	chunks [32 - 4][]T
}

const slabFirst = 16

// locate maps record g to its chunk and the record's index within it.
func slabLocate(g int) (chunk, i int) {
	chunk = bits.Len(uint(g+slabFirst)) - bits.Len(uint(slabFirst))
	return chunk, g + slabFirst - slabFirst<<chunk
}

// add appends a zero record and returns it.
func (s *slab[T]) add() []T {
	chunk, i := slabLocate(s.n)
	if s.chunks[chunk] == nil {
		s.chunks[chunk] = make([]T, s.rec*slabFirst<<chunk)
	}
	s.n++
	return s.chunks[chunk][i*s.rec : (i+1)*s.rec]
}

func (s *slab[T]) at(g int32) []T {
	chunk, i := slabLocate(int(g))
	return s.chunks[chunk][i*s.rec : (i+1)*s.rec]
}

// aggGroups is a set of groups — one worker's partial, or the merged
// whole — numbered in the order they were added, with the GROUP BY values
// and the states of group g in slabs.
type aggGroups struct {
	index    map[string]int32
	firstSeq []int64 // input sequence of the group's first row
	keyVals  slab[storage.Value]
	states   slab[aggState]
}

func newAggGroups(node *plan.Aggregate) aggGroups {
	return aggGroups{
		index:    map[string]int32{},
		firstSeq: make([]int64, 0, slabFirst),
		keyVals:  slab[storage.Value]{rec: len(node.GroupBy)},
		states:   slab[aggState]{rec: len(node.Items)},
	}
}

// add appends a group and returns its number.
func (gs *aggGroups) add(key string, keyVals []storage.Value, seq int64) int32 {
	g := int32(len(gs.firstSeq))
	gs.index[key] = g
	gs.firstSeq = append(gs.firstSeq, seq)
	copy(gs.keyVals.add(), keyVals)
	gs.states.add()
	return g
}

// aggFolder is one worker's fold state: its partial and the scratch it
// encodes keys into.
type aggFolder struct {
	a    *aggIter
	env  batchEnv
	gs   aggGroups
	key  []byte
	vals []storage.Value
	// The scratch starts out in the folder itself: a worker is one
	// allocation, plus what its groups take.
	keyBuf [64]byte
	valBuf [2]storage.Value
}

// group returns the group of the env's current row, adding it — first
// seen at input sequence seq — if the worker has not met its key before.
func (f *aggFolder) group(seq int64) (int32, error) {
	var err error
	if f.vals, err = f.a.groupBy.values(f.vals[:0], &f.env); err != nil {
		return 0, err
	}
	key := f.key[:0]
	for _, v := range f.vals {
		key = appendRowKey(key, v)
	}
	f.key = key
	if g, ok := f.gs.index[string(key)]; ok {
		return g, nil
	}
	return f.gs.add(string(key), f.vals, seq), nil
}

// fold observes every row of b, the first of which has input sequence
// seq, used to keep group output in first-seen order across parallel
// partials.
func (f *aggFolder) fold(b *storage.Batch, seq int64) error {
	items := f.a.node.Items
	f.env.in[0].cols = b.Cols
	grouped := len(f.a.node.GroupBy) > 0
	if !grouped && len(f.gs.firstSeq) == 0 {
		f.gs.add("", nil, seq)
	}
	// COUNT(*) of the one group needs no look at the rows; neither does a
	// fold that has nothing else to observe.
	perRow := grouped
	for k, item := range items {
		switch {
		case item.Agg == sqlparse.AggNone:
		case item.Expr != nil:
			perRow = true
		case !grouped:
			f.gs.states.at(0)[k].count += len(b.Sel)
		}
	}
	if !perRow {
		return nil
	}
	var g int32
	for n, i := range b.Sel {
		f.env.in[0].i = int(i)
		if grouped {
			var err error
			if g, err = f.group(seq + int64(n)); err != nil {
				return err
			}
		}
		states := f.gs.states.at(g)
		for k, item := range items {
			switch {
			case item.Agg == sqlparse.AggNone:
			case item.Expr != nil:
				v, err := f.a.args.value(k, &f.env)
				if err != nil {
					return err
				}
				states[k].observe(item.Agg, v)
			case grouped: // COUNT(*)
				states[k].count++
			}
		}
	}
	return nil
}

func (a *aggIter) Open() error {
	a.out, a.pos = storage.Batch{Cols: make([]storage.Vector, len(a.node.Items))}, 0
	groups, err := a.fold()
	if err != nil {
		return err
	}
	return a.emit(groups)
}

// fold folds a partial per worker over the input's morsels, then merges
// them into the first. Each worker stamps rows with idx*morselRows+local
// — morsel-ordered sequences — so the merged first-seen order is the
// input order.
func (a *aggIter) fold() (*aggGroups, error) {
	src, err := a.input()
	if err != nil {
		return nil, err
	}
	items := a.node.Items
	partials := make([]*aggGroups, src.workers(a.node.Dop))
	err = runMorsels(src, a.node.Dop, func(w int) func(idx int, it Iterator) error {
		f := &aggFolder{a: a, env: batchEnv{refs: a.groupBy.refs}, gs: newAggGroups(a.node)}
		f.key, f.vals = f.keyBuf[:0], f.valBuf[:0]
		partials[w] = &f.gs
		return func(idx int, it Iterator) error {
			seq := int64(idx) * morselRows
			for {
				b, err := it.NextBatch()
				if err != nil || b == nil {
					return err
				}
				if err := f.fold(b, seq); err != nil {
					return err
				}
				seq += int64(len(b.Sel))
			}
		}
	})
	if err != nil {
		return nil, err
	}

	merged := partials[0]
	for _, part := range partials[1:] {
		for key, pg := range part.index {
			g, ok := merged.index[key]
			if !ok {
				g = merged.add(key, part.keyVals.at(pg), part.firstSeq[pg])
			}
			merged.firstSeq[g] = min(merged.firstSeq[g], part.firstSeq[pg])
			states, more := merged.states.at(g), part.states.at(pg)
			for k := range states {
				states[k].merge(items[k].Agg, &more[k])
			}
		}
	}
	return merged, nil
}

// emit finalizes every group — in first-seen input order — applying
// HAVING against the named output columns, into the output columns.
func (a *aggIter) emit(gs *aggGroups) error {
	s := a.node
	if len(s.GroupBy) == 0 && len(gs.firstSeq) == 0 {
		gs.add("", nil, 0)
	}
	order := make([]int32, len(gs.firstSeq))
	for g := range order {
		order[g] = int32(g)
	}
	sort.Slice(order, func(i, j int) bool { return gs.firstSeq[order[i]] < gs.firstSeq[order[j]] })

	havingEnv := rowEnv{refs: a.having, row: make(storage.Row, len(s.Items))}
	for _, g := range order {
		out, states, keyVals := havingEnv.row, gs.states.at(g), gs.keyVals.at(g)
		for k, item := range s.Items {
			switch {
			case item.Agg != sqlparse.AggNone:
				out[k] = states[k].finalize(item.Agg)
			case a.itemKey[k] >= 0:
				out[k] = keyVals[a.itemKey[k]]
			default:
				out[k] = storage.Null()
			}
		}
		if s.Having != nil {
			t, err := EvalPredicate(s.Having, &havingEnv)
			if err != nil {
				return err
			}
			if t != TriTrue {
				continue
			}
		}
		for k, v := range out {
			a.out.Cols[k].AppendValue(v)
		}
		a.out.N++
	}
	return nil
}

// NextBatch emits the groups' rows morselRows at a time: the output
// columns under a selection of the next window.
func (a *aggIter) NextBatch() (*storage.Batch, error) {
	n := min(a.out.N-a.pos, morselRows)
	if n <= 0 {
		return nil, nil
	}
	if a.pos == 0 {
		a.out.Sel = storage.IdentitySel(n)
	} else {
		a.sel = a.sel[:0]
		for i := a.pos; i < a.pos+n; i++ {
			a.sel = append(a.sel, int32(i))
		}
		a.out.Sel = a.sel
	}
	a.pos += n
	return &a.out, nil
}

func (a *aggIter) Close() error {
	a.out = storage.Batch{}
	return nil
}
