package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// scanIter streams one row-index window of a table through the storage
// cursor, which walks a pinned snapshot with no locks and boxes only the
// rows the vectorized predicates selected into its reusable batch buffer
// — no per-row allocation. It is the single scan operator: a plain Scan
// is the full window over a snapshot the cursor pins (and releases)
// itself; a morsel is the [lo, hi) window over the pin its source shares
// among all morsels and releases once. Rows returned by Next alias the
// cursor's batch buffer.
type scanIter struct {
	table  *storage.Table
	preds  []storage.Pred
	snap   *storage.Snap // a source's shared pin; nil for the plain scan
	lo, hi int
	cur    *storage.Cursor
}

// scanOf lowers a Scan node over one window (snap == nil: the whole
// table). The vectorizable conjuncts of the pushed-down filter become the
// cursor's bitmaps; the rest is a filterIter on top, so it sees only rows
// that survived the bitmaps.
func scanOf(t *plan.Scan, snap *storage.Snap, lo, hi int) Iterator {
	preds, rest := splitVectorizable(t.Filter, t.Layout)
	return filterOver(&scanIter{table: t.Table, preds: preds, snap: snap, lo: lo, hi: hi}, rest, t.Layout)
}

func (s *scanIter) Open() error {
	if s.snap != nil {
		s.cur = storage.NewRangeCursorAt(s.snap, s.lo, s.hi, 0)
	} else {
		s.cur = s.table.NewCursor(0)
	}
	s.cur.SetPreds(s.preds)
	return nil
}

func (s *scanIter) Next() (storage.Row, bool, error) {
	row, ok := s.cur.Next()
	if !ok {
		return nil, false, s.cur.Err()
	}
	return row, true, nil
}

func (s *scanIter) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	return nil
}

// filterIter drops rows whose predicate is not TRUE. It serves Filter
// nodes and the residual (non-vectorizable or post-probe) predicate of
// every scan and index access path.
type filterIter struct {
	input Iterator
	pred  sqlparse.Expr
	env   rowEnv
}

// filterOver stacks a filterIter for pred, if there is one, on it.
func filterOver(it Iterator, pred sqlparse.Expr, layout *plan.Layout) Iterator {
	if pred == nil {
		return it
	}
	return &filterIter{input: it, pred: pred, env: rowEnv{layout: layout}}
}

func (f *filterIter) Open() error { return f.input.Open() }

func (f *filterIter) Next() (storage.Row, bool, error) {
	for {
		row, ok, err := f.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.env.row = row
		t, err := EvalPredicate(f.pred, &f.env)
		if err != nil {
			return nil, false, err
		}
		if t == TriTrue {
			return row, true, nil
		}
	}
}

func (f *filterIter) Close() error { return f.input.Close() }

// projectIter evaluates the select list into a fresh output row.
type projectIter struct {
	input Iterator
	node  *plan.Project
	env   rowEnv
}

func (p *projectIter) Open() error {
	p.env.layout = p.node.Layout
	return p.input.Open()
}

func (p *projectIter) Next() (storage.Row, bool, error) {
	row, ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.env.row = row
	out := make(storage.Row, len(p.node.Exprs))
	for i, e := range p.node.Exprs {
		v, err := EvalValue(e, &p.env)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *projectIter) Close() error { return p.input.Close() }

// limitIter passes through at most n rows.
type limitIter struct {
	input Iterator
	n     int64
	seen  int64
}

func (l *limitIter) Open() error {
	l.seen = 0
	return l.input.Open()
}

func (l *limitIter) Next() (storage.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

func (l *limitIter) Close() error { return l.input.Close() }

// distinctIter drops duplicate rows. Input rows are projection output
// (fresh), so they can be passed through without cloning.
type distinctIter struct {
	input Iterator
	seen  map[string]bool
}

func (d *distinctIter) Open() error {
	d.seen = map[string]bool{}
	return d.input.Open()
}

func (d *distinctIter) Next() (storage.Row, bool, error) {
	for {
		row, ok, err := d.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key := rowKey(row)
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		return row, true, nil
	}
}

func (d *distinctIter) Close() error { return d.input.Close() }
