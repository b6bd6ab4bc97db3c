package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// cursorIter is the single leaf operator: it hands up the batches of a
// storage cursor — zero-copy views of the pinned snapshot's chunks for a
// scan, the cursor's gathered vectors for an index probe — carrying only
// the columns the plan needs. It is a window over its source's pin: the
// rows, or with an index leaf the positions of the resolved ID list, of
// the morsel morselStack.open aims it at, read through one cursor
// re-aimed from morsel to morsel, so the cursor's scratch is allocated
// once per worker.
type cursorIter struct {
	src    *source
	morsel int
	cur    *storage.Cursor
}

func (s *cursorIter) Open() error {
	if s.cur == nil {
		if _, scan := s.src.chain.leaf.(*plan.Scan); scan {
			s.cur = storage.NewRangeCursorAt(s.src.snap, 0, 0, 0)
		} else {
			s.cur = storage.NewIndexCursorAt(s.src.snap, s.src.ids, 0)
		}
		s.cur.SetCols(s.src.chain.cols)
		s.cur.SetPreds(s.src.chain.preds)
	}
	s.cur.Reset(s.morsel*morselRows, (s.morsel+1)*morselRows)
	return nil
}

func (s *cursorIter) NextBatch() (*storage.Batch, error) {
	if b := s.cur.NextBatch(); b != nil {
		return b, nil
	}
	return nil, s.cur.Err()
}

func (s *cursorIter) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	return nil
}

// filterIter keeps the rows whose predicate is TRUE by narrowing the
// selection; the vectors pass through untouched. It serves Filter nodes
// and the residual (non-vectorizable or post-probe) predicate of every
// scan and index access path.
type filterIter struct {
	input Iterator
	pred  sqlparse.Expr
	env   batchEnv
	sel   []int32
	out   storage.Batch
}

// newFilter binds pred — over batches carrying the columns cols of layout
// — once and returns the constructor of the operator, one instance per
// worker; without a predicate there is no operator (nil).
func newFilter(pred sqlparse.Expr, layout *plan.Layout, cols []int) func(Iterator) Iterator {
	if pred == nil {
		return nil
	}
	refs := bindExprs(layoutResolver(layout, cols), pred)
	return func(it Iterator) Iterator {
		return &filterIter{input: it, pred: pred, env: batchEnv{refs: refs}}
	}
}

func (f *filterIter) Open() error { return f.input.Open() }

// selScratch empties a selection scratch, making sure it can take n rows
// without growing: one allocation when the first full batch arrives
// instead of append's dozen on the way there.
func selScratch(sel []int32, n int) []int32 {
	if cap(sel) < n {
		return make([]int32, 0, n)
	}
	return sel[:0]
}

func (f *filterIter) NextBatch() (*storage.Batch, error) {
	for {
		b, err := f.input.NextBatch()
		if b == nil {
			return nil, err
		}
		sel := selScratch(f.sel, len(b.Sel))
		f.env.in[0].cols = b.Cols
		for _, i := range b.Sel {
			f.env.in[0].i = int(i)
			t, perr := EvalPredicate(f.pred, &f.env)
			if perr != nil {
				err = perr // the rows before i, then this error; a later one of the input's is never reached
				break
			}
			if t == TriTrue {
				sel = append(sel, i)
			}
		}
		f.sel = sel
		if len(sel) == 0 {
			if err != nil {
				return nil, err
			}
			continue
		}
		f.out = *b
		f.out.Sel = sel
		return &f.out, err
	}
}

func (f *filterIter) Close() error { return f.input.Close() }

// projectIter evaluates the select list: a bare column reference forwards
// the input's vector, and only computed expressions are materialized —
// boxed, in vectors of the operator's own indexed like the input's, so the
// input's selection applies to every output column.
type projectIter struct {
	input Iterator
	exprs *boundExprs
	env   batchEnv
	vals  [][]storage.Value // per computed expression: its cells, len ≥ the batch's N; nil until one is computed
	out   storage.Batch
}

// newProject binds the select list once and returns the constructor of
// the operator, one instance per worker.
func newProject(t *plan.Project) func(Iterator) Iterator {
	exprs := bindList(layoutResolver(t.Layout, plan.OutputCols(t.Input)), t.Exprs)
	return func(it Iterator) Iterator {
		return &projectIter{
			input: it, exprs: exprs, env: batchEnv{refs: exprs.refs},
			out: storage.Batch{Cols: make([]storage.Vector, len(t.Exprs))},
		}
	}
}

func (p *projectIter) Open() error { return p.input.Open() }

func (p *projectIter) NextBatch() (*storage.Batch, error) {
	b, err := p.input.NextBatch()
	if b == nil {
		return nil, err
	}
	p.out.N, p.out.Sel = b.N, b.Sel
	computed := false
	for k, slot := range p.exprs.slots {
		if slot >= 0 {
			p.out.Cols[k] = b.Cols[slot]
			continue
		}
		computed = true
		if p.vals == nil {
			p.vals = make([][]storage.Value, len(p.exprs.exprs))
		}
		if cap(p.vals[k]) < b.N {
			p.vals[k] = make([]storage.Value, b.N)
		}
		p.out.Cols[k] = storage.Vector{Vals: p.vals[k][:b.N]}
	}
	if !computed {
		return &p.out, err
	}
	// Row-major, so that an evaluation error leaves every row before it
	// complete.
	p.env.in[0].cols = b.Cols
	for n, i := range b.Sel {
		p.env.in[0].i = int(i)
		for k, slot := range p.exprs.slots {
			if slot >= 0 {
				continue
			}
			v, verr := EvalValue(p.exprs.exprs[k], &p.env)
			if verr != nil {
				p.out.Sel = b.Sel[:n]
				return &p.out, verr
			}
			p.vals[k][i] = v
		}
	}
	return &p.out, err
}

func (p *projectIter) Close() error { return p.input.Close() }

// dmlIter is the root of an UPDATE's or DELETE's plan. For every row its
// input selected it emits the row's physical ID (Batch.IDs) and the value
// of each SET expression over the old row, compacted: a statement that
// changes one row of a 4096-row window carries one cell per target.
type dmlIter struct {
	input Iterator
	exprs *boundExprs
	env   batchEnv
	out   storage.Batch
}

func newDML(t *plan.DML, input Iterator) Iterator {
	exprs := bindList(layoutResolver(t.Layout, plan.OutputCols(t.Input)), t.Exprs)
	return &dmlIter{input: input, exprs: exprs, env: batchEnv{refs: exprs.refs},
		out: storage.Batch{Cols: make([]storage.Vector, len(t.Exprs))}}
}

func (d *dmlIter) Open() error { return d.input.Open() }

func (d *dmlIter) NextBatch() (*storage.Batch, error) {
	b, err := d.input.NextBatch()
	if b == nil {
		return nil, err
	}
	d.out.IDs = d.out.IDs[:0]
	for k := range d.out.Cols {
		d.out.Cols[k].Vals = d.out.Cols[k].Vals[:0]
	}
	d.env.in[0].cols = b.Cols
	for _, i := range b.Sel {
		d.env.in[0].i = int(i)
		for k := range d.out.Cols {
			v, verr := d.exprs.value(k, &d.env)
			if verr != nil {
				return nil, verr // the statement fails whole: the rows before are of no use
			}
			d.out.Cols[k].Vals = append(d.out.Cols[k].Vals, v)
		}
		d.out.IDs = append(d.out.IDs, b.RowID(int(i)))
	}
	d.out.N, d.out.Sel = len(b.Sel), storage.IdentitySel(len(b.Sel))
	return &d.out, err
}

func (d *dmlIter) Close() error { return d.input.Close() }

// limitIter passes through at most n rows: it cuts the selection of the
// batch that crosses the limit and asks its input for nothing more, so a
// scan beneath stops where it stands.
type limitIter struct {
	input Iterator
	n     int64
	seen  int64
	out   storage.Batch
}

func (l *limitIter) Open() error {
	l.seen = 0
	return l.input.Open()
}

func (l *limitIter) NextBatch() (*storage.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.input.NextBatch()
	if b == nil {
		return nil, err
	}
	if rest := l.n - l.seen; int64(len(b.Sel)) >= rest {
		// An error that follows these rows lies beyond the limit.
		l.seen = l.n
		l.out = storage.Batch{N: b.N, Sel: b.Sel[:rest], Cols: b.Cols}
		return &l.out, nil
	}
	l.seen += int64(len(b.Sel))
	return b, err
}

func (l *limitIter) Close() error { return l.input.Close() }

// distinctIter drops duplicate rows: it encodes each row's key from the
// vectors into a reused scratch (storage.AppendKey, kinds kept apart: 1,
// 1.0 and '1' are three rows) and keeps the first occurrence in the
// selection. Only a new key allocates (the string the seen-set retains).
type distinctIter struct {
	input Iterator
	seen  map[string]struct{}
	key   []byte
	sel   []int32
	out   storage.Batch
}

func (d *distinctIter) Open() error {
	d.seen = map[string]struct{}{}
	return d.input.Open()
}

func (d *distinctIter) NextBatch() (*storage.Batch, error) {
	for {
		b, err := d.input.NextBatch()
		if b == nil {
			return nil, err
		}
		sel := selScratch(d.sel, len(b.Sel))
		for _, i := range b.Sel {
			key := d.key[:0]
			for c := range b.Cols {
				key = storage.AppendKey(key, b.Cols[c].Value(int(i)), false)
			}
			d.key = key
			if _, dup := d.seen[string(key)]; !dup {
				d.seen[string(key)] = struct{}{}
				sel = append(sel, i)
			}
		}
		d.sel = sel
		if len(sel) == 0 && err == nil {
			continue
		}
		d.out = storage.Batch{N: b.N, Sel: sel, Cols: b.Cols}
		return &d.out, err
	}
}

func (d *distinctIter) Close() error { return d.input.Close() }
