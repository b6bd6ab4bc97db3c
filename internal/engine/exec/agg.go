package exec

import (
	"cmp"
	"math"
	"slices"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// aggIter implements HashAggregate: Open consumes the whole input,
// hashing rows into groups and folding aggregate states; NextBatch emits
// one output row per group in first-seen order, with HAVING applied
// against the output columns. Scalar (group-key) items take the group's
// key values. Aggregates without GROUP BY yield exactly one row, even for
// empty input (standard SQL).
//
// The fold reads vectors, a batch at a time: first the group number of
// every row, then each aggregate item over the batch. A key that is one
// INTEGER, FLOAT or BOOLEAN column (typedKey) is hashed from its payload
// into a keyTable; any other key is encoded from the GROUP BY cells into a
// reused scratch and looked up in a map, which costs a new group its key
// string and boxed GROUP BY values. The states are columns per item
// (aggCol), and the finished columns are the output vectors. The fold is
// a runMorsels phase over the input source: each worker folds a partial
// (aggGroups), and the partials are merged into the one holding the most
// groups — states added or compared, first-seen sequence the lowest — so
// output order and values are the same at any dop. A partial's arrays are
// a hashState off the free list: the merged-away ones go back after the
// merge, the merged one — which the emitted batches are views of — in
// Close.
type aggIter struct {
	input source
	node  *plan.Aggregate

	// Bound when the operator is built, read-only afterwards.
	groupBy *boundExprs
	typed   bool        // the key takes the keyTable
	perRow  bool        // the fold looks at rows: there is a GROUP BY, or an aggregate over an expression
	args    *boundExprs // one per item; a nil expression for COUNT(*) and scalar items; shares groupBy's binding
	itemKey []int       // per scalar item: the GROUP BY expression it repeats
	having  binding

	st    *hashState    // the merged partial's, from Open to Close
	out   storage.Batch // every group's row, by group number
	order []int32       // the groups to emit, in first-seen order
	pos   int
}

func newAggregate(t *plan.Aggregate, input source) *aggIter {
	res := layoutResolver(t.Layout, plan.OutputCols(t.Input))
	a := &aggIter{
		input: input, node: t,
		groupBy: bindList(res, t.GroupBy),
		itemKey: make([]int, len(t.Items)),
		having:  bindExprs(outputResolver(t.Names), t.Having),
	}
	a.typed, _ = typedKey(a.groupBy)
	a.perRow = len(t.GroupBy) > 0
	args := make([]sqlparse.Expr, len(t.Items))
	for k, item := range t.Items {
		a.itemKey[k] = -1
		if item.Agg != sqlparse.AggNone {
			args[k] = item.Expr
			a.perRow = a.perRow || item.Expr != nil
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

// aggCol is the state of one aggregate item over every group: a column
// per accumulator, indexed by group number, of which an item uses only
// the ones its function needs — a scalar item none. The arrays are
// reused (hashState), so which ones are set says nothing: the item's
// function does.
type aggCol struct {
	count []int64         // COUNT: the rows, or the non-NULL values; SUM and AVG: the numeric values
	sum   []float64       // SUM, AVG
	best  []storage.Value // MIN, MAX: the extreme so far, NULL before the first value
	nulls []uint64        // SUM, AVG: the output's NULL bitmap, once emitted
}

// observe folds one value into group g. MIN and MAX keep v if it beats
// the extreme so far; values it cannot be compared with are passed over.
func (c *aggCol) observe(agg sqlparse.AggFunc, g int32, v storage.Value) {
	switch {
	case v.IsNull():
	case agg == sqlparse.AggCount:
		c.count[g]++
	case agg == sqlparse.AggMin || agg == sqlparse.AggMax:
		if best := &c.best[g]; best.IsNull() {
			*best = v
		} else if d, err := v.Compare(*best); err == nil && d != 0 && (d < 0) == (agg == sqlparse.AggMin) {
			*best = v
		}
	default:
		if f, ok := v.AsFloat(); ok {
			c.count[g]++
			c.sum[g] += f
		}
	}
}

// unseen is the first-seen sequence of a group no row has joined.
const unseen = math.MaxInt64

// aggGroups is a set of groups — one worker's partial, or the merged
// whole — numbered in the order they were added, over the arrays of a
// hashState. Group 0 is there from the start: the one group of an
// aggregate without GROUP BY, the NULL-key group of a typed key, nothing
// under a byte key; it is emitted if a row joined it (or there is no
// GROUP BY). A typed key's number n in table is group n+1.
type aggGroups struct {
	*hashState
	items []sqlparse.SelectItem
	width int  // GROUP BY expressions
	bytes bool // the key is encoded: named and keyVals, not table
}

// newAggGroups takes a state off the free list for a partial of a.
func newAggGroups(a *aggIter) *aggGroups {
	gs := &aggGroups{hashState: hashStates.get(), items: a.node.Items, width: len(a.node.GroupBy)}
	gs.bytes = !a.typed && gs.width > 0
	if gs.bytes && gs.named == nil {
		gs.named = map[string]int32{}
	}
	gs.cols = resize(gs.cols, len(gs.items))
	gs.add(unseen)
	return gs
}

// add appends a group first seen at seq and returns its number.
func (gs *aggGroups) add(seq int64) int32 {
	gs.firstSeq = push(gs.firstSeq, seq)
	for k := range gs.cols {
		c := &gs.cols[k]
		switch gs.items[k].Agg {
		case sqlparse.AggNone:
		case sqlparse.AggMin, sqlparse.AggMax:
			c.best = push(c.best, storage.Value{})
		case sqlparse.AggCount:
			c.count = push(c.count, 0)
		default:
			c.count, c.sum = push(c.count, 0), push(c.sum, 0)
		}
	}
	return int32(len(gs.firstSeq) - 1)
}

// keyed returns the group of a typed key, adding it if it is new.
func (gs *aggGroups) keyed(key uint64, seq int64) int32 {
	n, added := gs.table.insert(key)
	if added {
		gs.add(seq)
	}
	return n + 1
}

// encoded returns the group of an encoded key, adding it — with the GROUP
// BY values it was encoded from — if it is new.
func (gs *aggGroups) encoded(key []byte, vals []storage.Value, seq int64) int32 {
	g, ok := gs.named[string(key)]
	if !ok {
		g = gs.add(seq)
		gs.named[string(key)] = g
		gs.keyVals = append(gs.keyVals, vals...)
	}
	return g
}

func (gs *aggGroups) valsOf(g int32) []storage.Value {
	return gs.keyVals[int(g-1)*gs.width : int(g)*gs.width]
}

// absorb merges another partial into gs — the combine step of parallel
// partial aggregation. Every supported aggregate is decomposable: count
// and sum add, min/max compare, avg derives from count and sum at the
// end. A group both have keeps the earlier first-seen sequence and, with
// it, that row's GROUP BY values (the rows of a group may differ in them
// where the key codec does not: -0 and 0, the NaNs).
func (gs *aggGroups) absorb(part *aggGroups) {
	take := func(pg, g int32) {
		if part.firstSeq[pg] < gs.firstSeq[g] {
			gs.firstSeq[g] = part.firstSeq[pg]
			if g > 0 && gs.bytes {
				copy(gs.valsOf(g), part.valsOf(pg))
			}
		}
		for k, item := range gs.items {
			c, pc := &gs.cols[k], &part.cols[k]
			switch item.Agg {
			case sqlparse.AggNone:
			case sqlparse.AggMin, sqlparse.AggMax:
				c.observe(item.Agg, g, pc.best[pg])
			case sqlparse.AggCount:
				c.count[g] += pc.count[pg]
			default:
				c.count[g] += pc.count[pg]
				c.sum[g] += pc.sum[pg]
			}
		}
	}
	take(0, 0)
	if !gs.bytes {
		for n, key := range part.table.keys {
			take(int32(n)+1, gs.keyed(key, unseen))
		}
		return
	}
	for key, pg := range part.named {
		take(pg, gs.encoded([]byte(key), part.valsOf(pg), unseen))
	}
}

// aggFolder is one worker's fold state: its partial, whose state also
// holds the fold's scratch, and its env.
type aggFolder struct {
	a   *aggIter
	env batchEnv
	gs  *aggGroups
}

// assign writes the group of every row of b into gs.groups, adding the
// groups it meets for the first time; the batch's first row has input
// sequence seq.
func (f *aggFolder) assign(b *storage.Batch, seq int64) error {
	a, gs := f.a, f.gs
	if len(a.node.GroupBy) == 0 {
		gs.firstSeq[0] = min(gs.firstSeq[0], seq)
		return nil
	}
	if a.typed {
		vec := &b.Cols[a.groupBy.slots[0]]
		for r, i := range b.Sel {
			if key, ok := cellKey(vec, int(i), false); ok {
				gs.groups[r] = gs.keyed(key, seq+int64(r))
			} else {
				gs.groups[r] = 0
				gs.firstSeq[0] = min(gs.firstSeq[0], seq+int64(r))
			}
		}
		return nil
	}
	for r, i := range b.Sel {
		f.env.in[0].i = int(i)
		var err error
		if gs.vals, err = a.groupBy.values(gs.vals[:0], &f.env); err != nil {
			return err
		}
		gs.key = gs.key[:0]
		for _, v := range gs.vals {
			gs.key = storage.AppendKey(gs.key, v, false)
		}
		gs.groups[r] = gs.encoded(gs.key, gs.vals, seq+int64(r))
	}
	return nil
}

// fold observes every row of b, the first of which has input sequence
// seq, used to keep group output in first-seen order across parallel
// partials.
func (f *aggFolder) fold(b *storage.Batch, seq int64) error {
	a, gs := f.a, f.gs
	f.env.in[0].cols = b.Cols
	if a.perRow {
		if cap(gs.groups) < len(b.Sel) {
			gs.groups = make([]int32, max(morselRows, len(b.Sel)))
		}
		gs.groups = gs.groups[:len(b.Sel)]
	}
	if err := f.assign(b, seq); err != nil {
		return err
	}
	grouped := len(a.node.GroupBy) > 0
	for k, item := range a.node.Items {
		c := &gs.cols[k]
		slot := a.args.slots[k]
		summed := item.Agg == sqlparse.AggSum || item.Agg == sqlparse.AggAvg
		switch {
		case item.Agg == sqlparse.AggNone:
		case item.Expr == nil && !grouped: // COUNT(*) of the one group needs no look at the rows
			c.count[0] += int64(len(b.Sel))
		case item.Expr == nil:
			for _, g := range gs.groups {
				c.count[g]++
			}
		case slot >= 0 && (item.Agg == sqlparse.AggCount || summed && numericKind(a.args.kind(k))):
			// A bare column under COUNT, or a numeric one under SUM or
			// AVG, is folded from the payload.
			vec := &b.Cols[slot]
			for r, i := range b.Sel {
				if vec.IsNull(int(i)) {
					continue
				}
				g := gs.groups[r]
				c.count[g]++
				switch {
				case !summed:
				case vec.Kind == storage.KindInt:
					c.sum[g] += float64(vec.Ints[i])
				default:
					c.sum[g] += vec.Floats[i]
				}
			}
		default:
			for r, i := range b.Sel {
				f.env.in[0].i = int(i)
				v, err := a.args.value(k, &f.env)
				if err != nil {
					return err
				}
				c.observe(item.Agg, gs.groups[r], v)
			}
		}
	}
	return nil
}

func (a *aggIter) Open() error {
	a.pos = 0
	gs, err := a.fold()
	if err != nil {
		return err
	}
	a.st = gs.hashState
	return a.emit(gs)
}

// fold folds a partial per worker over the input's morsels, then merges
// them into the one holding the most groups and releases the others. Each
// worker stamps rows with idx*morselRows+local — morsel-ordered sequences
// — so the merged first-seen order is the input order.
func (a *aggIter) fold() (*aggGroups, error) {
	src := &a.input
	if err := src.open(); err != nil {
		return nil, err
	}
	partials := make([]*aggGroups, src.workers())
	err := runMorsels(src, func(w int) func(idx int, it Iterator) error {
		f := &aggFolder{a: a, env: batchEnv{refs: a.groupBy.refs}, gs: newAggGroups(a)}
		partials[w] = f.gs
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
		for _, part := range partials {
			release(&part.hashState)
		}
		return nil, err
	}
	into := slices.MaxFunc(partials, func(x, y *aggGroups) int { return cmp.Compare(len(x.firstSeq), len(y.firstSeq)) })
	for _, part := range partials {
		if part != into {
			into.absorb(part)
			release(&part.hashState)
		}
	}
	return into, nil
}

// emit turns the state columns into the output vectors — COUNT's counts
// are its column as they stand — and lists the groups to emit: those a
// row joined, in first-seen input order, that pass HAVING, evaluated
// against the named output columns.
func (a *aggIter) emit(gs *aggGroups) error {
	s := a.node
	n := len(gs.firstSeq)
	gs.out, gs.keyCols = resize(gs.out, len(s.Items)), resize(gs.keyCols, len(s.Items))
	a.out = storage.Batch{N: n, Cols: gs.out}
	for k, item := range s.Items {
		c, vec := &gs.cols[k], &gs.out[k]
		switch item.Agg {
		case sqlparse.AggCount:
			*vec = storage.Vector{Kind: storage.KindInt, Ints: c.count}
		case sqlparse.AggMin, sqlparse.AggMax:
			*vec = storage.Vector{Vals: c.best}
		case sqlparse.AggNone:
			a.keyColumn(gs, a.itemKey[k], &gs.keyCols[k])
			*vec = gs.keyCols[k]
		default: // SUM, AVG
			*vec = storage.Vector{Kind: storage.KindFloat, Floats: c.sum, Nulls: c.nulls}
			for g, cnt := range c.count {
				if cnt == 0 {
					vec.MarkNull(g)
				} else if item.Agg == sqlparse.AggAvg {
					c.sum[g] /= float64(cnt)
				}
			}
			c.nulls = vec.Nulls
		}
	}

	a.order = slices.Grow(gs.order[:0], n)
	for g, seq := range gs.firstSeq {
		if seq != unseen || g == 0 && len(s.GroupBy) == 0 {
			a.order = append(a.order, int32(g))
		}
	}
	gs.order = a.order
	slices.SortFunc(a.order, func(x, y int32) int { return cmp.Compare(gs.firstSeq[x], gs.firstSeq[y]) })
	if s.Having == nil {
		return nil
	}
	env := batchEnv{refs: a.having}
	env.in[0].cols = a.out.Cols
	kept := a.order[:0]
	for _, g := range a.order {
		env.in[0].i = int(g)
		t, err := EvalPredicate(s.Having, &env)
		if err != nil {
			return err
		}
		if t == TriTrue {
			kept = append(kept, g)
		}
	}
	a.order = kept
	return nil
}

// keyColumn fills vec — a recycled vector of the state — with every
// group's value of GROUP BY expression gi (NULL for an item that repeats
// none): a typed key's from the keys as the table holds them, in the
// column's kind; a byte key's from the boxed values kept with the group.
func (a *aggIter) keyColumn(gs *aggGroups, gi int, vec *storage.Vector) {
	n := len(gs.firstSeq)
	switch {
	case gi < 0: // no kind: every cell NULL
	case !a.typed:
		vec.AppendValue(storage.Null())
		for g := 1; g < n; g++ {
			vec.AppendValue(gs.valsOf(int32(g))[gi])
		}
	default:
		vec.Kind = a.groupBy.kind(0)
		vec.MarkNull(0)
		switch keys := gs.table.keys; vec.Kind {
		case storage.KindInt:
			vec.Ints = resize(vec.Ints, n)
			vec.Ints[0] = 0
			for i, key := range keys {
				vec.Ints[i+1] = int64(key)
			}
		case storage.KindFloat:
			vec.Floats = resize(vec.Floats, n)
			vec.Floats[0] = 0
			for i, key := range keys {
				vec.Floats[i+1] = math.Float64frombits(key)
			}
		default:
			vec.Bools = resize(vec.Bools, n)
			vec.Bools[0] = false
			for i, key := range keys {
				vec.Bools[i+1] = key != 0
			}
		}
	}
}

// NextBatch emits the groups' rows morselRows at a time: the output
// columns under a selection of the next window of the emit order.
func (a *aggIter) NextBatch() (*storage.Batch, error) {
	n := min(len(a.order)-a.pos, morselRows)
	if n <= 0 {
		return nil, nil
	}
	a.out.Sel = a.order[a.pos : a.pos+n]
	a.pos += n
	return &a.out, nil
}

// Close ends the emitted batches' validity and gives the merged partial
// back to the free list.
func (a *aggIter) Close() error {
	a.out, a.order = storage.Batch{}, nil
	release(&a.st)
	return nil
}
