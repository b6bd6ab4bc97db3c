package exec

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

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
// Both inputs are sources. The build is a runMorsels phase: workers
// insert sequence-stamped entries into a sharded table, and buckets are
// re-sorted by sequence after the barrier when more than one worker
// filled them, so probe output is the same at any dop. The probe is the
// ordered gather over the left source with a probeIter on every stack.
// A side that is a marked chain gets N workers; a side that is not (a
// small table, a lower join, any serial plan) is one morsel, drained
// inline — either side independently.
type hashJoinIter struct {
	node        *plan.HashJoin
	left, right sourceFn

	// Bound when the operator is built, read-only afterwards.
	leftKeys, rightKeys *boundExprs
	residual            binding  // of node.Residual: side 0 the left batch, side 1 the build store
	keep                []int    // the right input's batch columns the build store keeps
	outCols             []outCol // where each emitted column comes from

	table *joinTable
	store []storage.Vector // the kept build columns, indexed by joinEntry.row
	probe *gatherIter
}

// outCol locates a column of the combined row: a slot of the left batch,
// or (right) a column of the build store.
type outCol struct {
	right bool
	slot  int
}

func newHashJoin(t *plan.HashJoin, left, right sourceFn) *hashJoinIter {
	leftCols, rightCols := plan.OutputCols(t.Left), plan.OutputCols(t.Right)
	j := &hashJoinIter{
		node: t, left: left, right: right,
		leftKeys:  bindList(layoutResolver(t.LeftLayout, leftCols), t.LeftKeys),
		rightKeys: bindList(layoutResolver(t.RightLayout, rightCols), t.RightKeys),
	}
	lw := t.LeftLayout.Width
	var kept []int // right-layout positions, ascending, parallel to j.keep
	for _, c := range plan.WithExprCols(t.Out, t.Layout, t.Residual) {
		if c >= lw {
			slot, _ := slotOf(rightCols, c-lw)
			kept, j.keep = append(kept, c-lw), append(j.keep, slot)
		}
	}
	locate := func(c int) outCol {
		if c < lw {
			slot, _ := slotOf(leftCols, c)
			return outCol{slot: slot}
		}
		slot, _ := slotOf(kept, c-lw)
		return outCol{right: true, slot: slot}
	}
	for _, c := range t.Out {
		j.outCols = append(j.outCols, locate(c))
	}
	j.residual = bindExprs(func(ref *sqlparse.ColumnRef) colRef {
		idx, err := t.Layout.Resolve(ref.Table, ref.Name)
		if err != nil {
			return colRef{err: err}
		}
		oc := locate(idx)
		if oc.right {
			return colRef{side: 1, slot: oc.slot}
		}
		return colRef{slot: oc.slot}
	}, t.Residual)
	return j
}

// appendJoinKey appends an encoding of the key values to dst, with the
// same equality semantics as the `=` operator: numeric values compare
// across int/float, so both hash through their float form (and -0 as 0).
// Every component is fixed-width or length-prefixed, so text containing
// any byte cannot forge a multi-key collision (a key list is equal iff
// every component is). ok=false when any value is NULL. The appended dst
// is returned so callers can keep one scratch buffer per iterator instead
// of allocating per row.
func appendJoinKey(dst []byte, vals []storage.Value) ([]byte, bool) {
	for _, v := range vals {
		switch v.Kind() {
		case storage.KindNull:
			return dst, false
		case storage.KindBool:
			b, _ := v.AsBool()
			if b {
				dst = append(dst, 'b', 1)
			} else {
				dst = append(dst, 'b', 0)
			}
		case storage.KindInt, storage.KindFloat:
			f, _ := v.AsFloat()
			if f == 0 {
				f = 0 // -0 = 0
			}
			dst = appendUint64(append(dst, 'n'), floatKeyBits(f))
		case storage.KindText:
			t, _ := v.AsText()
			dst = appendUint64(append(dst, 't'), uint64(len(t)))
			dst = append(dst, t...)
		}
	}
	return dst, true
}

func appendUint64(dst []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(dst, x) }

// floatKeyBits is f's bit pattern as a hash-key component, every NaN
// being one key.
func floatKeyBits(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// joinTable is the shared build table: a fixed shard array so parallel
// build workers contend on a shard mutex, not one global lock. After the
// build barrier it is read-only and probed without locking.
const joinShards = 64

// joinEntry is one build row: its position in the build store (while the
// build runs, in the store of worker w) and its build-side sequence, for
// deterministic probe output.
type joinEntry struct {
	seq    int64
	w, row int32
}

type joinShard struct {
	mu sync.Mutex
	m  map[string][]joinEntry
}

type joinTable struct{ shards [joinShards]joinShard }

func newJoinTable() *joinTable {
	jt := &joinTable{}
	for i := range jt.shards {
		jt.shards[i] = joinShard{m: map[string][]joinEntry{}}
	}
	return jt
}

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (jt *joinTable) insert(key []byte, e joinEntry) {
	s := &jt.shards[fnv1a(key)%joinShards]
	s.mu.Lock()
	s.m[string(key)] = append(s.m[string(key)], e)
	s.mu.Unlock()
}

// lookup is lock-free: only legal after the build barrier.
func (jt *joinTable) lookup(key []byte) []joinEntry {
	return jt.shards[fnv1a(key)%joinShards].m[string(key)]
}

// settle finishes a build more than one worker filled: every entry is
// re-aimed at the merged store (worker w's rows start at base[w]) and
// every bucket ordered by build sequence. Parallel workers insert in
// claim-completion order; sorting restores the one-worker bucket order,
// so probing emits identical row sequences at any dop.
func (jt *joinTable) settle(base []int32) {
	for i := range jt.shards {
		for _, entries := range jt.shards[i].m {
			for k := range entries {
				entries[k].row += base[entries[k].w]
			}
			sort.Slice(entries, func(a, b int) bool { return entries[a].seq < entries[b].seq })
		}
	}
}

func (j *hashJoinIter) Open() error {
	j.table = newJoinTable()
	if err := j.build(); err != nil {
		return err
	}
	j.probe = &gatherIter{dop: j.node.Dop, mkSource: j.probeSource}
	return j.probe.Open()
}

// build fills the hash table and the build store from the right source.
// Each worker keeps private scratch for key encoding and appends the
// batch's kept cells to its own store, so the fill allocates nothing per
// input row beyond the table entry; the stores are concatenated after the
// barrier.
func (j *hashJoinIter) build() error {
	src, err := j.right()
	if err != nil {
		return err
	}
	workers := src.workers(j.node.Dop)
	stores := make([][]storage.Vector, workers)
	rows := make([]int32, workers)
	err = runMorsels(src, j.node.Dop, func(w int) func(idx int, it Iterator) error {
		store := make([]storage.Vector, len(j.keep))
		stores[w] = store
		env := batchEnv{refs: j.rightKeys.refs}
		var scratch []byte
		var vals []storage.Value
		var kept []int32
		return func(idx int, it Iterator) error {
			seq := int64(idx) * morselRows
			for {
				b, err := it.NextBatch()
				if err != nil || b == nil {
					return err
				}
				env.in[0].cols = b.Cols
				kept = kept[:0]
				for _, i := range b.Sel {
					env.in[0].i = int(i)
					if vals, err = j.rightKeys.values(vals[:0], &env); err != nil {
						return err
					}
					key, ok := appendJoinKey(scratch[:0], vals)
					scratch = key
					if ok { // NULL keys are dropped
						j.table.insert(key, joinEntry{seq: seq, w: int32(w), row: rows[w] + int32(len(kept))})
						kept = append(kept, i)
					}
					seq++
				}
				for c, slot := range j.keep {
					store[c].AppendCells(&b.Cols[slot], kept)
				}
				rows[w] += int32(len(kept))
			}
		}
	})
	if err != nil {
		return err
	}
	j.store = stores[0]
	if workers > 1 {
		base := make([]int32, workers)
		for w := 1; w < workers; w++ {
			base[w] = base[w-1] + rows[w-1]
			all := make([]int32, rows[w])
			for i := range all {
				all[i] = int32(i)
			}
			for c := range j.store {
				j.store[c].AppendCells(&stores[w][c], all)
			}
		}
		j.table.settle(base)
	}
	return nil
}

func (j *hashJoinIter) NextBatch() (*storage.Batch, error) { return j.probe.NextBatch() }

// probeSource stacks a probeIter on every stack of the left source: each
// probes the shared (now read-only) build table and store with private
// envs and scratch.
func (j *hashJoinIter) probeSource() (*source, error) {
	src, err := j.left()
	if err != nil {
		return nil, err
	}
	src.wrap(func(it Iterator) Iterator {
		return &probeIter{
			input: it, j: j,
			keyEnv: batchEnv{refs: j.leftKeys.refs}, resEnv: batchEnv{refs: j.residual},
			out: storage.Batch{Cols: make([]storage.Vector, len(j.outCols))},
		}
	})
	return src, nil
}

// probeIter is the probe loop over one worker's share of the left input.
// Per left batch it collects the matching (left cell, store row) pairs —
// up to morselRows of them, resuming where it stopped — and gathers the
// emitted columns from the two sides into vectors it reuses from batch
// to batch. The hot path allocates nothing per input row or per match.
type probeIter struct {
	input Iterator
	j     *hashJoinIter

	keyEnv, resEnv batchEnv
	scratch        []byte
	vals           []storage.Value

	lb      *storage.Batch // the left batch being probed, and the error that follows its rows
	lbErr   error
	k       int         // next position of lb.Sel to probe
	cell    int32       // the left cell whose matches are pending
	matches []joinEntry // its pending matches, from mi on
	mi      int

	li, ri []int32 // the collected pairs
	out    storage.Batch
}

func (p *probeIter) Open() error {
	p.lb, p.matches, p.mi = nil, nil, 0
	return p.input.Open()
}

func (p *probeIter) NextBatch() (*storage.Batch, error) {
	j := p.j
	residual := j.node.Residual
	for {
		if p.lb == nil {
			b, err := p.input.NextBatch()
			if b == nil {
				return nil, err
			}
			p.lb, p.lbErr, p.k = b, err, 0
			p.keyEnv.in[0].cols, p.resEnv.in[0].cols, p.resEnv.in[1].cols = b.Cols, b.Cols, j.store
		}
		lb := p.lb
		p.li, p.ri = p.li[:0], p.ri[:0]
		n := 0
		var err error
		for n < morselRows && err == nil {
			if p.mi >= len(p.matches) {
				if p.k >= len(lb.Sel) {
					break
				}
				p.cell = lb.Sel[p.k]
				p.k++
				p.keyEnv.in[0].i = int(p.cell)
				if p.vals, err = j.leftKeys.values(p.vals[:0], &p.keyEnv); err != nil {
					break
				}
				key, ok := appendJoinKey(p.scratch[:0], p.vals)
				p.scratch = key
				p.matches, p.mi = nil, 0
				if ok {
					p.matches = j.table.lookup(key)
				}
				continue
			}
			if residual == nil && len(j.outCols) == 0 {
				// Nothing reads the matches: count them.
				take := min(len(p.matches)-p.mi, morselRows-n)
				n, p.mi = n+take, p.mi+take
				continue
			}
			e := p.matches[p.mi]
			p.mi++
			if residual != nil {
				p.resEnv.in[0].i, p.resEnv.in[1].i = int(p.cell), int(e.row)
				t, rerr := EvalPredicate(residual, &p.resEnv)
				if rerr != nil {
					err = rerr
					break
				}
				if t != TriTrue {
					continue
				}
			}
			p.li, p.ri = append(p.li, p.cell), append(p.ri, e.row)
			n++
		}
		if err != nil || (p.k >= len(lb.Sel) && p.mi >= len(p.matches)) {
			// The left batch is done: what followed its rows follows ours.
			if err == nil {
				err = p.lbErr
			}
			p.lb = nil
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
			if oc.right {
				vec.AppendCells(&j.store[oc.slot], p.ri)
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
// and only then drops the build table they read.
func (j *hashJoinIter) Close() error {
	var err error
	if j.probe != nil {
		err = j.probe.Close()
	}
	j.table, j.store = nil, nil
	return err
}
