package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// hashJoinIter is an inner equi-join: Open drains the right (build) input
// into a hash table keyed on the join columns; NextBatch streams the left
// (probe) input, emitting one row per match. Rows with a NULL join key
// never match (NULL = anything is UNKNOWN under three-valued logic), so
// they are dropped on both sides. Residual (non-equi) ON conjuncts filter
// the matches.
//
// With no keys, the single hash bucket degenerates into a cross join,
// filtered by the residual.
//
// Only needed columns move. The build keeps, column-wise and typed, the
// right-side columns the join emits or its residual reads — for a
// COUNT(*) above the join, none — and a hash entry is the position of its
// row in that store. The probe emits batches of its own holding just the
// columns the plan reads above the join (node.Out), gathered per batch
// from the left batch and the store; a match allocates nothing.
//
// A key that is one INTEGER, FLOAT or BOOLEAN column on both sides
// (typedKey) is hashed from its payload into a keyTable; any other key is
// encoded (appendJoinKey) and looked up in a map. Either way a key has a
// number, whose build rows are a chain through one flat slice (chainRows).
//
// Both inputs are sources. The build is a runMorsels phase: workers fill
// private parts, put in input order and indexed once after the barrier,
// so probe output is the same at any dop. The probe is the ordered
// gather over the left source with a probeIter on every stack.
// A side that is a marked chain gets N workers; an unmarked chain (a
// small table, any serial plan) gets one, and a lower join is one
// morsel — either way drained inline, either side independently. Every
// part, and the table, is a hashState off the free list: a worker's part
// goes back once the parts are laid end to end, the built table in Close.
type hashJoinIter struct {
	node  *plan.HashJoin
	right source

	// Bound when the operator is built, read-only afterwards.
	leftKeys, rightKeys *boundExprs
	typed, asFloat      bool     // the key takes the keyTable; INTEGER meets FLOAT in the float form
	residual            binding  // of node.Residual: side 0 the left batch, side 1 the build store
	keep                []int    // the right input's batch columns the build store keeps
	outCols             []colRef // where each emitted column comes from: a slot of the left batch (side 0) or of the build store (side 1)

	// The build — its part is the store, its table or named map the key
	// index, its byKey and next the chains — read-only once Open has
	// returned.
	built *hashState
	probe gatherIter // over the left source, a probeIter on every stack
}

func newHashJoin(t *plan.HashJoin, left, right source) *hashJoinIter {
	leftCols, rightCols := plan.OutputCols(t.Left), plan.OutputCols(t.Right)
	j := &hashJoinIter{
		node: t, right: right, probe: gatherIter{src: left},
		leftKeys:  bindList(layoutResolver(t.LeftLayout, leftCols), t.LeftKeys),
		rightKeys: bindList(layoutResolver(t.RightLayout, rightCols), t.RightKeys),
	}
	j.typed, j.asFloat = typedKey(j.leftKeys, j.rightKeys)
	j.probe.src.top = j.newProbe
	lw := t.LeftLayout.Width
	var kept []int // right-layout positions, ascending, parallel to j.keep
	for _, c := range plan.WithExprCols(t.Out, t.Layout, t.Residual) {
		if c >= lw {
			slot, _ := slotOf(rightCols, c-lw)
			kept, j.keep = append(kept, c-lw), append(j.keep, slot)
		}
	}
	locate := func(c int) colRef {
		if c < lw {
			slot, _ := slotOf(leftCols, c)
			return colRef{slot: slot}
		}
		slot, _ := slotOf(kept, c-lw)
		return colRef{side: 1, slot: slot}
	}
	for _, c := range t.Out {
		j.outCols = append(j.outCols, locate(c))
	}
	j.residual = bindExprs(func(ref *sqlparse.ColumnRef) colRef {
		idx, err := t.Layout.Resolve(ref.Table, ref.Name)
		if err != nil {
			return colRef{err: err}
		}
		return locate(idx)
	}, t.Residual)
	return j
}

// appendJoinKey appends the byte key of a join's key values to dst, with
// the equality semantics of the `=` operator (storage.AppendKey's numeric
// form, in which 1 and 1.0 are one key); a key list is equal iff every
// component is. ok=false when any value is NULL: the row can match
// nothing. Callers keep one scratch buffer instead of allocating per row.
func appendJoinKey(dst []byte, vals []storage.Value) ([]byte, bool) {
	for _, v := range vals {
		if v.IsNull() {
			return dst, false
		}
		dst = storage.AppendKey(dst, v, true)
	}
	return dst, true
}

// keyRows is the build rows of one key: the first of its chain and how
// many there are.
type keyRows struct{ head, n int32 }

// chainRows links rows n-1 … 0, whose key numbers number returns (added
// for a number's first call), into one chain per key through next: from
// byKey[num].head, row r is followed by next[r] until -1. Linking from
// the last row down leaves every chain in ascending row order. byKey and
// next are empty arrays to reuse.
func chainRows(byKey []keyRows, next []int32, n int, number func(r int) (num int32, added bool)) ([]keyRows, []int32) {
	next = resize(next, n)
	for r := n - 1; r >= 0; r-- {
		num, added := number(r)
		if added {
			byKey = push(byKey, keyRows{head: -1})
		}
		k := &byKey[num]
		next[r], k.head, k.n = k.head, int32(r), k.n+1
	}
	return byKey, next
}

// joinPart is a share of the build — one worker's, or after the barrier
// the whole: the kept columns and the keys of the rows kept, in the order
// they were met.
type joinPart struct {
	rows  int
	store []storage.Vector
	keys  []uint64 // typed key: one a row
	bytes []byte   // byte key: the rows' encodings end to end,
	ends  []int    // row r's from ends[r] to ends[r+1]
}

// take appends rows [from, to) of src, which sel lists; typed says which
// of the key forms the parts hold.
func (p *joinPart) take(src *joinPart, from, to int, sel []int32, typed bool) {
	for c := range p.store {
		p.store[c].AppendCells(&src.store[c], sel)
	}
	p.rows += to - from
	if typed {
		p.keys = append(p.keys, src.keys[from:to]...)
		return
	}
	shift := len(p.bytes) - src.ends[from]
	p.bytes = append(p.bytes, src.bytes[src.ends[from]:src.ends[to]]...)
	for _, end := range src.ends[from+1 : to+1] {
		p.ends = append(p.ends, end+shift)
	}
}

// joinRun is the rows [from, to) of worker w's part: one morsel's.
type joinRun struct{ w, from, to int }

func (j *hashJoinIter) Open() error {
	if err := j.build(); err != nil {
		return err
	}
	return j.probe.Open()
}

// newPart takes a state off the free list for a build part.
func (j *hashJoinIter) newPart() *hashState {
	st := hashStates.get()
	st.part.store = resize(st.part.store, len(j.keep))
	st.part.ends = append(st.part.ends, 0)
	return st
}

// build fills the build store and the key index from the right source.
// Each worker appends, to a part of its own, the kept cells and the key of
// every row whose key is not NULL — nothing shared, nothing locked, no
// allocation per input row. After the barrier the parts' morsel runs are
// laid end to end in morsel order, which is the build input's order
// whatever worker read what, and the rows are chained by key in it.
func (j *hashJoinIter) build() error {
	src := &j.right
	if err := src.open(); err != nil {
		return err
	}
	parts := make([]*hashState, src.workers())
	runs := make([]joinRun, src.count)
	err := runMorsels(src, func(w int) func(idx int, it Iterator) error {
		st := j.newPart()
		parts[w] = st
		part := &st.part
		env := batchEnv{refs: j.rightKeys.refs}
		return func(idx int, it Iterator) error {
			from := part.rows
			for {
				b, err := it.NextBatch()
				if err != nil || b == nil {
					runs[idx] = joinRun{w: w, from: from, to: part.rows}
					return err
				}
				env.in[0].cols = b.Cols
				st.sel = st.sel[:0] // the rows kept
				for _, i := range b.Sel {
					ok := false
					if j.typed {
						var key uint64
						if key, ok = cellKey(&b.Cols[j.rightKeys.slots[0]], int(i), j.asFloat); ok {
							part.keys = push(part.keys, key)
						}
					} else {
						env.in[0].i = int(i)
						if st.vals, err = j.rightKeys.values(st.vals[:0], &env); err != nil {
							return err
						}
						var key []byte
						if key, ok = appendJoinKey(part.bytes, st.vals); ok {
							part.bytes, part.ends = key, append(part.ends, len(key))
						}
					}
					if ok { // NULL keys are dropped
						st.sel = append(st.sel, i)
					}
				}
				for c, slot := range j.keep {
					part.store[c].AppendCells(&b.Cols[slot], st.sel)
				}
				part.rows += len(st.sel)
			}
		}
	})
	if err != nil {
		for w := range parts {
			release(&parts[w])
		}
		return err
	}

	all := parts[0] // one worker read the morsels in order
	if len(parts) > 1 {
		all = j.newPart()
		for _, run := range runs {
			all.sel = all.sel[:0]
			for r := run.from; r < run.to; r++ {
				all.sel = append(all.sel, int32(r))
			}
			all.part.take(&parts[run.w].part, run.from, run.to, all.sel, j.typed)
		}
		for w := range parts {
			release(&parts[w])
		}
	}
	if !j.typed && all.named == nil {
		all.named = map[string]int32{}
	}
	all.byKey, all.next = chainRows(all.byKey, all.next, all.part.rows, func(r int) (int32, bool) {
		if j.typed {
			return all.table.insert(all.part.keys[r])
		}
		key := all.part.bytes[all.part.ends[r]:all.part.ends[r+1]]
		num, ok := all.named[string(key)]
		if !ok {
			num = int32(len(all.named))
			all.named[string(key)] = num
		}
		return num, !ok
	})
	j.built = all
	return nil
}

func (j *hashJoinIter) NextBatch() (*storage.Batch, error) { return j.probe.NextBatch() }

// newProbe is what every stack of the left source gets on top: a
// probeIter, probing the shared (once built, read-only) build table and
// store with private envs and scratch.
func (j *hashJoinIter) newProbe(it Iterator) Iterator {
	return &probeIter{
		input: it, j: j,
		keyEnv: batchEnv{refs: j.leftKeys.refs}, resEnv: batchEnv{refs: j.residual},
		out: storage.Batch{Cols: make([]storage.Vector, len(j.outCols))},
	}
}

// probeIter is the probe loop over one worker's share of the left input.
// Per left batch it collects the matching (left cell, build row) pairs —
// up to morselRows of them, resuming where it stopped — and gathers the
// emitted columns from the two sides into vectors it reuses from batch
// to batch. The hot path allocates nothing per input row or per match.
type probeIter struct {
	input Iterator
	j     *hashJoinIter

	keyEnv, resEnv batchEnv
	scratch        []byte
	vals           []storage.Value

	lb    *storage.Batch // the left batch being probed, and the error that follows its rows
	lbErr error
	k     int   // next position of lb.Sel to probe
	cell  int32 // the left cell whose matches are pending:
	row   int32 // the next of them (-1: none left), or, when nothing reads the matches,
	left  int32 // how many are still to count

	li, ri []int32 // the collected pairs
	out    storage.Batch
}

func (p *probeIter) Open() error {
	p.lb, p.row, p.left = nil, -1, 0
	return p.input.Open()
}

// matches finds the build rows of the current left cell's key: nil when
// the key is NULL or no build row has it.
func (p *probeIter) matches() (*keyRows, error) {
	j, built, num := p.j, p.j.built, int32(-1)
	if j.typed {
		if key, ok := cellKey(&p.lb.Cols[j.leftKeys.slots[0]], int(p.cell), j.asFloat); ok {
			num = built.table.find(key)
		}
	} else {
		p.keyEnv.in[0].i = int(p.cell)
		var err error
		if p.vals, err = j.leftKeys.values(p.vals[:0], &p.keyEnv); err != nil {
			return nil, err
		}
		key, ok := appendJoinKey(p.scratch[:0], p.vals)
		p.scratch = key
		if n, found := built.named[string(key)]; ok && found {
			num = n
		}
	}
	if num < 0 {
		return nil, nil
	}
	return &built.byKey[num], nil
}

func (p *probeIter) NextBatch() (*storage.Batch, error) {
	j := p.j
	store := j.built.part.store
	residual := j.node.Residual
	countOnly := residual == nil && len(j.outCols) == 0 // nothing reads the matches
	for {
		if p.lb == nil {
			b, err := p.input.NextBatch()
			if b == nil {
				return nil, err
			}
			p.lb, p.lbErr, p.k = b, err, 0
			p.keyEnv.in[0].cols, p.resEnv.in[0].cols, p.resEnv.in[1].cols = b.Cols, b.Cols, store
		}
		lb := p.lb
		p.li, p.ri = p.li[:0], p.ri[:0]
		n := 0
		var err error
		for n < morselRows && err == nil {
			if p.row < 0 && p.left == 0 {
				if p.k >= len(lb.Sel) {
					break
				}
				p.cell = lb.Sel[p.k]
				p.k++
				var m *keyRows
				if m, err = p.matches(); m == nil {
					continue
				}
				if countOnly {
					p.left = m.n
				} else {
					p.row = m.head
				}
				continue
			}
			if countOnly {
				take := min(int(p.left), morselRows-n)
				n, p.left = n+take, p.left-int32(take)
				continue
			}
			row := p.row
			p.row = j.built.next[row]
			if residual != nil {
				p.resEnv.in[0].i, p.resEnv.in[1].i = int(p.cell), int(row)
				t, rerr := EvalPredicate(residual, &p.resEnv)
				if rerr != nil {
					err = rerr
					break
				}
				if t != TriTrue {
					continue
				}
			}
			p.li, p.ri = append(p.li, p.cell), append(p.ri, row)
			n++
		}
		if err != nil || (p.k >= len(lb.Sel) && p.row < 0 && p.left == 0) {
			// The left batch is done: what followed its rows follows ours.
			if err == nil {
				err = p.lbErr
			}
			p.lb, p.row, p.left = nil, -1, 0
		}
		if n == 0 {
			if err != nil {
				return nil, err
			}
			continue
		}
		for c, oc := range j.outCols {
			vec := &p.out.Cols[c]
			vec.Reset()
			if oc.side == 1 {
				vec.AppendCells(&store[oc.slot], p.ri)
			} else {
				vec.AppendCells(&lb.Cols[oc.slot], p.li)
			}
		}
		p.out.N, p.out.Sel = n, storage.IdentitySel(n)
		return &p.out, err
	}
}

func (p *probeIter) Close() error { return p.input.Close() }

// Close ends the probe first — with N workers that stops and joins them —
// and only then gives the build they read back to the free list.
func (j *hashJoinIter) Close() error {
	err := j.probe.Close()
	release(&j.built)
	return err
}
