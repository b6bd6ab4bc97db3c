package exec

import (
	"sort"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// orderSpec is an ORDER BY bound to its operator's input: the key
// expressions, and the input columns the operator hands on. Keys over
// base rows (layout) resolve against the input's layout and the operator
// emits the plan's Out columns; keys over a grouped query's output names
// (byOutput) leave the input's columns as they are.
type orderSpec struct {
	keys  []sqlparse.OrderKey
	exprs *boundExprs
	emit  []int // the input batch column behind each emitted column
}

func newOrderSpec(keys []sqlparse.OrderKey, layout *plan.Layout, byOutput []string, input plan.Node, out []int) *orderSpec {
	inCols := plan.OutputCols(input)
	res, emitted := outputResolver(byOutput), inCols
	if layout != nil {
		res, emitted = layoutResolver(layout, inCols), out
	}
	spec := &orderSpec{keys: keys, emit: make([]int, len(emitted))}
	for c, col := range emitted {
		spec.emit[c], _ = slotOf(inCols, col)
	}
	exprs := make([]sqlparse.Expr, len(keys))
	for k, key := range keys {
		exprs[k] = key.Expr
	}
	spec.exprs = bindList(res, exprs)
	return spec
}

// compareKey orders two values under one ORDER BY key: NULLs sort last
// regardless of direction, DESC flips the comparison.
func compareKey(key sqlparse.OrderKey, a, b storage.Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return 1, nil
	case b.IsNull():
		return -1, nil
	}
	c, err := a.Compare(b)
	if key.Desc {
		c = -c
	}
	return c, err
}

// gatherRows fills out with rows — positions of the retained columns
// cols — as a batch of its own, every row selected.
func gatherRows(out *storage.Batch, cols []storage.Vector, rows []int32) *storage.Batch {
	if out.Cols == nil {
		out.Cols = make([]storage.Vector, len(cols))
	}
	for c := range cols {
		out.Cols[c].Reset()
		out.Cols[c].AppendCells(&cols[c], rows)
	}
	out.N, out.Sel = len(rows), storage.IdentitySel(len(rows))
	return out
}

// sortIter fully sorts its input (blocking). It retains, column-wise and
// typed, the columns it emits and the keys of every input row, sorts a
// permutation of row positions — ties fall through to the next key and
// finally to input order (stable) — and emits the permuted rows
// morselRows at a time.
type sortIter struct {
	input Iterator
	spec  *orderSpec
	cols  []storage.Vector // the emitted columns of every input row
	keys  []storage.Vector // and its keys
	perm  []int32
	pos   int
	out   storage.Batch
}

func (s *sortIter) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	spec := s.spec
	s.cols, s.keys = make([]storage.Vector, len(spec.emit)), make([]storage.Vector, len(spec.keys))
	s.perm, s.pos = nil, 0
	env := batchEnv{refs: spec.exprs.refs}
	for {
		b, err := s.input.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for c, slot := range spec.emit {
			s.cols[c].AppendCells(&b.Cols[slot], b.Sel)
		}
		env.in[0].cols = b.Cols
		for k, slot := range spec.exprs.slots {
			if slot >= 0 {
				s.keys[k].AppendCells(&b.Cols[slot], b.Sel)
				continue
			}
			for _, i := range b.Sel {
				env.in[0].i = int(i)
				v, err := EvalValue(spec.exprs.exprs[k], &env)
				if err != nil {
					return err
				}
				s.keys[k].AppendValue(v)
			}
		}
		for range b.Sel {
			s.perm = append(s.perm, int32(len(s.perm)))
		}
	}
	var cmpErr error
	sort.Slice(s.perm, func(x, y int) bool {
		a, b := int(s.perm[x]), int(s.perm[y])
		for k, key := range spec.keys {
			c, err := compareKey(key, s.keys[k].Value(a), s.keys[k].Value(b))
			if err != nil && cmpErr == nil {
				cmpErr = err
			}
			if c != 0 {
				return c < 0
			}
		}
		return a < b
	})
	return cmpErr
}

func (s *sortIter) NextBatch() (*storage.Batch, error) {
	n := min(len(s.perm)-s.pos, morselRows)
	if n <= 0 {
		return nil, nil
	}
	s.pos += n
	return gatherRows(&s.out, s.cols, s.perm[s.pos-n:s.pos]), nil
}

func (s *sortIter) Close() error {
	s.cols, s.keys, s.perm = nil, nil, nil
	return s.input.Close()
}

// topNIter keeps the n best rows under the sort keys with a bounded
// binary max-heap (worst kept row at the root): ORDER BY + LIMIT without
// sorting — or even retaining — the full input. Including the sequence
// number in the comparison makes the result identical to a stable full
// sort followed by truncation.
//
// A candidate is compared from the vectors: its keys go into one reused
// buffer, and a row the heap rejects — the overwhelmingly common case
// once the heap is warm — costs nothing else. A row that is kept is
// boxed, its emitted columns and keys, into the slot of the row it
// evicts, so the operator's memory is its n slots however many rows pass.
type topNIter struct {
	input Iterator
	spec  *orderSpec
	n     int64

	cand []storage.Value   // the candidate's keys, as far as evaluated
	keys [][]storage.Value // per key: the kept rows' values, by slot
	cols []storage.Vector  // boxed: the kept rows' emitted columns, by slot
	seqs []int64           // the kept rows' input sequences, by slot
	heap []int32           // slots: a max-heap while filling, ascending for output
	pos  int
	out  storage.Batch
}

func (t *topNIter) Open() error {
	if err := t.input.Open(); err != nil {
		return err
	}
	spec := t.spec
	t.keys, t.cols = make([][]storage.Value, len(spec.keys)), make([]storage.Vector, len(spec.emit))
	t.cand, t.seqs, t.heap, t.pos = make([]storage.Value, len(spec.keys)), nil, nil, 0
	if t.n <= 0 {
		return nil
	}
	env := batchEnv{refs: spec.exprs.refs}
	seq := int64(0)
	for {
		b, err := t.input.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		env.in[0].cols = b.Cols
		for _, i := range b.Sel {
			env.in[0].i = int(i)
			if err := t.offer(b, &env, seq); err != nil {
				return err
			}
			seq++
		}
	}
	var cmpErr error
	sort.Slice(t.heap, func(x, y int) bool {
		lt, err := t.less(t.heap[x], t.heap[y])
		if err != nil && cmpErr == nil {
			cmpErr = err
		}
		return lt
	})
	return cmpErr
}

// offer considers the env's current row of b for the heap. Its keys are
// evaluated only as far as the comparison with the worst kept row needs
// them — most rows lose on the first — and in full for a row that stays.
func (t *topNIter) offer(b *storage.Batch, env *batchEnv, seq int64) error {
	keys := t.spec.keys
	slot, full, known := int32(len(t.seqs)), int64(len(t.seqs)) >= t.n, 0
	if full {
		// Replace the worst kept row only when strictly better; an equal
		// row arrived later and loses the stable tie-break.
		slot = t.heap[0]
		for better := false; !better; known++ {
			if known == len(keys) {
				return nil
			}
			v, err := t.spec.exprs.value(known, env)
			if err != nil {
				return err
			}
			t.cand[known] = v
			c, err := compareKey(keys[known], v, t.keys[known][slot])
			if err != nil || c > 0 {
				return err
			}
			better = c < 0
		}
	} else {
		t.seqs, t.heap = append(t.seqs, 0), append(t.heap, slot)
		for k := range t.keys {
			t.keys[k] = append(t.keys[k], storage.Value{})
		}
		for c := range t.cols {
			t.cols[c].Vals = append(t.cols[c].Vals, storage.Value{})
		}
	}
	for ; known < len(keys); known++ {
		v, err := t.spec.exprs.value(known, env)
		if err != nil {
			return err
		}
		t.cand[known] = v
	}
	t.seqs[slot] = seq
	for k, v := range t.cand {
		t.keys[k][slot] = v
	}
	for c, src := range t.spec.emit {
		t.cols[c].Vals[slot] = b.Cols[src].Value(env.in[0].i)
	}
	if full {
		return t.siftDown(0)
	}
	return t.siftUp(len(t.heap) - 1)
}

// less orders two kept rows: by the keys, then by input sequence.
func (t *topNIter) less(a, b int32) (bool, error) {
	for k, key := range t.spec.keys {
		c, err := compareKey(key, t.keys[k][a], t.keys[k][b])
		if err != nil || c != 0 {
			return c < 0, err
		}
	}
	return t.seqs[a] < t.seqs[b], nil
}

func (t *topNIter) siftUp(i int) error {
	for i > 0 {
		parent := (i - 1) / 2
		// Max-heap: the parent must not be less than the child.
		lt, err := t.less(t.heap[parent], t.heap[i])
		if err != nil {
			return err
		}
		if !lt {
			return nil
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
	return nil
}

func (t *topNIter) siftDown(i int) error {
	for {
		largest := i
		for child := 2*i + 1; child <= 2*i+2 && child < len(t.heap); child++ {
			lt, err := t.less(t.heap[largest], t.heap[child])
			if err != nil {
				return err
			}
			if lt {
				largest = child
			}
		}
		if largest == i {
			return nil
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

func (t *topNIter) NextBatch() (*storage.Batch, error) {
	n := min(len(t.heap)-t.pos, morselRows)
	if n <= 0 {
		return nil, nil
	}
	t.pos += n
	return gatherRows(&t.out, t.cols, t.heap[t.pos-n:t.pos]), nil
}

func (t *topNIter) Close() error {
	t.keys, t.cols, t.seqs, t.heap = nil, nil, nil, nil
	return t.input.Close()
}
