package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// Morsel-driven execution (see DESIGN.md, "Executor"). Every operator
// that consumes a whole child reads it through a source: a numbered set
// of morsels, read through per-worker operator stacks. A plan chain the
// Parallelize pass marked — Filter*/Project* over a Scan or IndexRange —
// becomes fixed-size morsels: disjoint row-index ranges for scans,
// disjoint chunks of the resolved row-ID list for index probes, all
// reading one shared snapshot pin, so workers share nothing mutable below
// the exchange (cursors take no locks). Any other child is a one-morsel
// source around its iterator tree. The two consumers (runMorsels, the
// ordered gather) give a source min(dop, count) workers, and with one
// worker they run on the calling goroutine — the serial executor is that
// case, not separate code.

// morselRows is the number of table rows per morsel — one storage chunk,
// so a scan morsel is one batch: big enough that per-morsel work (a
// goroutine handoff, re-aiming the cursor) is noise, small enough that a
// filtered scan load-balances across workers. It is also the most rows
// any operator puts in a batch of its own.
const morselRows = storage.ChunkRows

// source is a partitioned input: count morsels, read through operator
// stacks made one per worker. release drops the shared snapshot pin every
// stack reads through (nil when the stack pins for itself); the consumer
// calls it exactly once, after all workers have stopped.
type source struct {
	count   int
	stack   func() morselStack
	release func()
}

// morselStack is one worker's operator stack over a source: its leaf is
// aimed at a morsel of the source's rows (or row IDs), then the stack is
// opened, drained and closed, and aimed again — so whatever scratch its
// operators and cursor hold is allocated once per worker, not per morsel.
// A built child has no leaf to aim: it is its own single morsel.
type morselStack struct {
	Iterator
	leaf *cursorIter
	rows int
}

// open aims the stack at morsel i and opens it.
func (st morselStack) open(i int) error {
	if st.leaf != nil {
		st.leaf.lo, st.leaf.hi = i*morselRows, min((i+1)*morselRows, st.rows)
	}
	return st.Open()
}

// Release drops the source's snapshot pin, if any. Idempotence is the
// release closure's job (sync.Once).
func (s *source) Release() {
	if s.release != nil {
		s.release()
	}
}

// workers is how many workers a consumer at degree dop gives the source:
// never more than it has morsels, and one — the inline case — for any
// serial plan (dop 0) or one-morsel source.
func (s *source) workers(dop int) int { return max(1, min(dop, s.count)) }

// sourceFn lowers an operator's child into its source. It runs when the
// operator opens, which is when a chain pins its snapshot and resolves
// its partition (row count / row IDs).
type sourceFn func() (*source, error)

// sourceOf prepares the source of child n at build time: a marked chain
// builds no iterators (its stacks are made per worker, when the consumer
// opens); anything else builds its iterator tree now and is served as
// one morsel.
func sourceOf(n plan.Node, tr *Trace) (sourceFn, error) {
	if parallelChain(n) {
		return func() (*source, error) { return chainSource(n) }, nil
	}
	it, err := build(n, tr)
	if err != nil {
		return nil, err
	}
	return func() (*source, error) {
		return &source{count: 1, stack: func() morselStack { return morselStack{Iterator: it} }}, nil
	}, nil
}

// parallelChain reports whether the Parallelize pass marked this subtree
// as a morsel chain (its partitionable leaf carries Dop > 1).
func parallelChain(n plan.Node) bool {
	switch leaf := plan.ChainLeaf(n).(type) {
	case *plan.Scan:
		return leaf.Dop > 1
	case *plan.IndexRange:
		return leaf.Dop > 1
	default:
		return false
	}
}

// wrap puts another operator on top of every stack of src.
func (s *source) wrap(op func(Iterator) Iterator) {
	inner := s.stack
	s.stack = func() morselStack {
		st := inner()
		st.Iterator = op(st.Iterator)
		return st
	}
}

// chainSource lowers a morsel chain into its source, snapshotting the
// partition (row count / resolved IDs) at call time.
func chainSource(n plan.Node) (*source, error) {
	switch t := n.(type) {
	case *plan.Filter:
		src, err := chainSource(t.Input)
		if err != nil {
			return nil, err
		}
		src.wrap(newFilter(t.Pred, t.Layout, plan.OutputCols(t.Input)))
		return src, nil
	case *plan.Project:
		src, err := chainSource(t.Input)
		if err != nil {
			return nil, err
		}
		src.wrap(newProject(t))
		return src, nil
	case *plan.Scan:
		// One snapshot pin shared by every morsel: all workers read the
		// same immutable version, so dop=N output is row-identical to a
		// serial run regardless of concurrent writers.
		snap := t.Table.Pin()
		var once sync.Once
		stack := scanOf(t)
		return &source{
			count:   (snap.NumRows() + morselRows - 1) / morselRows,
			release: func() { once.Do(snap.Release) },
			stack:   func() morselStack { return stack(snap) },
		}, nil
	case *plan.IndexRange:
		snap, ids, err := t.Table.PinIndexProbe(t.Index, indexRangeProbe(t))
		if err != nil {
			return nil, err
		}
		var once sync.Once
		residual := newFilter(t.Residual, t.Layout, t.Out)
		return &source{
			count:   (len(ids) + morselRows - 1) / morselRows,
			release: func() { once.Do(snap.Release) },
			stack: func() morselStack {
				leaf := &cursorIter{cols: t.Out, snap: snap, ids: ids, byID: true}
				return morselStack{Iterator: residual(leaf), leaf: leaf, rows: len(ids)}
			},
		}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported plan node %T in a morsel chain", n)
	}
}

// runMorsels drives a barrier phase (hash-join build, aggregate fold):
// the source's workers claim morsels off an atomic counter, aim their
// stack at each, hand it to the worker's per-morsel function, and close
// it. One worker runs on the calling goroutine. The first error cancels
// remaining claims; runMorsels returns after every worker has stopped
// and the source is released.
func runMorsels(src *source, dop int, mkWorker func(w int) func(idx int, it Iterator) error) error {
	defer src.Release()
	workers := src.workers(dop)
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	work := func(w int) {
		defer wg.Done()
		fn := mkWorker(w)
		st := src.stack()
		for !failed.Load() {
			idx := int(next.Add(1) - 1)
			if idx >= src.count {
				return
			}
			err := st.open(idx)
			if err == nil {
				err = fn(idx, st.Iterator)
			}
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
		}
	}
	wg.Add(workers)
	if workers == 1 {
		work(0)
		return errs[0]
	}
	for w := 0; w < workers; w++ {
		go work(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// gatherIter is the ordered exchange: it streams a source's morsels
// strictly in morsel order. With one worker it pulls the current
// morsel's batches directly on the consumer's goroutine — no goroutine,
// no copy, no buffering, so batches stream and a LIMIT above stops the
// scan where it stands. With N workers each drains whole morsels into
// per-morsel results and the consumer emits those in order — so the
// output row sequence is the one-worker sequence, errors included (a
// morsel's error surfaces exactly after the rows that precede it: every
// earlier morsel's and its own). What crosses goroutines is the batch,
// not its rows: a worker holds on to each batch its stack produced
// (morselResult.hold), which for a scan costs a copy of the selection
// only — the vectors are views of the snapshot every worker has pinned.
// A bounded claim window (2×workers morsels ahead of the consumer)
// backpressures workers so a slow consumer doesn't buffer the whole
// table, and consumed results go back to the workers, so their buffers
// are allocated once per window slot.
type gatherIter struct {
	mkSource sourceFn
	dop      int

	src      *source
	workers  int
	nextEmit int // next morsel to stream (one worker) or emit (N workers)

	st     morselStack // one worker: the stack, and whether it is open on a morsel
	opened bool

	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
	stop atomic.Bool

	results   map[int]*morselResult
	free      []*morselResult
	nextClaim int
	closed    bool

	cur    *morselResult
	curPos int
}

// morselResult is what one morsel produced: its batches, detached from
// the worker's stack, and the error that followed them.
type morselResult struct {
	batches []heldBatch
	err     error
}

// heldBatch is a batch that outlives the NextBatch call that produced it,
// together with the buffers backing it, which the next use of the result
// reuses.
type heldBatch struct {
	storage.Batch
	sel  []int32
	cols []storage.Vector
	ids  []int
}

// hold detaches b from its producer. When every vector is a pinned view
// of a scan window only the selection can be the producer's scratch, and
// only it is copied; otherwise (an index probe's gathered vectors and row
// IDs, a computed projection, a join's output, a tail window's packed
// NULL flags) the selected cells are copied out, compacted, with the row
// each came from.
func (r *morselResult) hold(b *storage.Batch) {
	if len(b.Sel) == 0 {
		return
	}
	if len(r.batches) < cap(r.batches) {
		r.batches = r.batches[:len(r.batches)+1]
	} else {
		r.batches = append(r.batches, heldBatch{})
	}
	h := &r.batches[len(r.batches)-1]
	if cap(h.cols) < len(b.Cols) {
		h.cols = make([]storage.Vector, len(b.Cols))
	}
	h.cols = h.cols[:len(b.Cols)]
	pinned := b.IDs == nil
	for c := range b.Cols {
		pinned = pinned && b.Cols[c].Pinned
	}
	if pinned {
		sel := b.Sel
		if !b.AllSelected() {
			h.sel = append(h.sel[:0], sel...)
			sel = h.sel
		}
		copy(h.cols, b.Cols)
		h.Batch = storage.Batch{N: b.N, Sel: sel, Cols: h.cols, Lo: b.Lo}
		return
	}
	for c := range b.Cols {
		h.cols[c].Reset()
		h.cols[c].AppendCells(&b.Cols[c], b.Sel)
	}
	h.ids = h.ids[:0]
	for _, i := range b.Sel {
		h.ids = append(h.ids, b.RowID(int(i)))
	}
	n := len(b.Sel)
	h.Batch = storage.Batch{N: n, Sel: storage.IdentitySel(n), Cols: h.cols, IDs: h.ids}
}

func (g *gatherIter) Open() error {
	src, err := g.mkSource()
	if err != nil {
		return err
	}
	g.src, g.workers = src, src.workers(g.dop)
	g.nextClaim, g.nextEmit, g.cur, g.curPos = 0, 0, nil, 0
	if g.workers == 1 {
		// Open the first morsel now: a blocking operator beneath does its
		// work in Open, like every other operator's.
		g.st = src.stack()
		return g.advance()
	}
	g.results = map[int]*morselResult{}
	g.cond = sync.NewCond(&g.mu)
	for w := 0; w < g.workers; w++ {
		g.wg.Add(1)
		go g.worker()
	}
	return nil
}

// advance is the one-worker step between morsels: close the streamed
// morsel and open the next. The stack stays closed once the source is
// exhausted.
func (g *gatherIter) advance() error {
	if g.opened {
		g.opened = false
		if err := g.st.Close(); err != nil {
			return err
		}
	}
	if g.nextEmit >= g.src.count {
		return nil
	}
	g.opened = true // set before open: Close closes a half-opened morsel
	g.nextEmit++
	return g.st.open(g.nextEmit - 1)
}

func (g *gatherIter) worker() {
	defer g.wg.Done()
	st := g.src.stack()
	window := 2 * g.workers
	for {
		g.mu.Lock()
		for !g.closed && g.nextClaim < g.src.count && g.nextClaim >= g.nextEmit+window {
			g.cond.Wait()
		}
		if g.closed || g.nextClaim >= g.src.count {
			g.mu.Unlock()
			return
		}
		idx := g.nextClaim
		g.nextClaim++
		var res *morselResult
		if n := len(g.free); n > 0 {
			res, g.free = g.free[n-1], g.free[:n-1]
		} else {
			res = &morselResult{}
		}
		g.mu.Unlock()

		g.runMorsel(st, idx, res)
		g.mu.Lock()
		g.results[idx] = res
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// runMorsel drains morsel idx through the worker's stack into res.
func (g *gatherIter) runMorsel(st morselStack, idx int, res *morselResult) {
	res.batches = res.batches[:0]
	err := st.open(idx)
	for err == nil && !g.stop.Load() {
		var b *storage.Batch
		if b, err = st.NextBatch(); b == nil {
			break
		}
		res.hold(b)
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	res.err = err
}

func (g *gatherIter) NextBatch() (*storage.Batch, error) {
	if g.workers == 1 {
		for g.opened {
			b, err := g.st.NextBatch()
			if b != nil || err != nil {
				return b, err
			}
			if err := g.advance(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	for {
		if g.cur != nil {
			if g.curPos < len(g.cur.batches) {
				g.curPos++
				return &g.cur.batches[g.curPos-1].Batch, nil
			}
			if g.cur.err != nil {
				return nil, g.cur.err // after the rows the morsel produced before failing
			}
			g.mu.Lock()
			g.free = append(g.free, g.cur)
			g.cur = nil
			g.nextEmit++
			g.cond.Broadcast()
			g.mu.Unlock()
		}
		g.mu.Lock()
		if g.nextEmit >= g.src.count {
			g.mu.Unlock()
			return nil, nil
		}
		for g.results[g.nextEmit] == nil && !g.closed {
			g.cond.Wait()
		}
		if g.closed {
			g.mu.Unlock()
			return nil, nil
		}
		g.cur, g.curPos = g.results[g.nextEmit], 0
		delete(g.results, g.nextEmit)
		g.mu.Unlock()
	}
}

// Close stops the source's consumption — the streamed morsel is closed,
// or in-flight morsels are cancelled and every worker has exited, so no
// goroutine outlives the query — and only then releases the shared pin.
func (g *gatherIter) Close() error {
	if g.src == nil {
		return nil // Open never ran, or failed before it had a source
	}
	var err error
	if g.workers == 1 {
		if g.opened {
			g.opened = false
			err = g.st.Close()
		}
	} else {
		g.stop.Store(true)
		g.mu.Lock()
		g.closed = true
		g.cond.Broadcast()
		g.mu.Unlock()
		g.wg.Wait()
	}
	g.src.Release()
	return err
}
