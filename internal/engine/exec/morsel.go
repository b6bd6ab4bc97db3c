package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// Morsel-driven execution (see DESIGN.md, "Executor"). Every operator
// that consumes a whole child reads it through a source: a numbered set
// of morsels, read through per-worker operator stacks. A Filter*/Project*
// chain over a Scan, IndexScan or IndexRange — at any dop — becomes
// fixed-size morsels: disjoint row-index ranges for scans, disjoint chunks
// of the resolved row-ID list for index probes, all reading one snapshot
// pin the source takes when its consumer opens, so workers share nothing
// mutable below the exchange (cursors take no locks). Any other child is
// a one-morsel source around its iterator tree. A chain that no operator
// consumes whole — the root, or under Sort, TopN, Limit, Distinct or DML —
// is read through a one-worker gather. The consumers (runMorsels, the
// ordered gather) give a source as many workers as its leaf's Dop allows
// and it has morsels, and one worker runs on the calling goroutine — the
// serial executor is that case, not separate code.

// morselRows is the number of table rows per morsel — one storage chunk,
// so a scan morsel is one batch: big enough that per-morsel work (a
// goroutine handoff, re-aiming the cursor) is noise, small enough that a
// filtered scan load-balances across workers. It is also the most rows
// any operator puts in a batch of its own.
const morselRows = storage.ChunkRows

// chain is a Filter*/Project* chain over a Scan, IndexScan or IndexRange
// leaf, lowered once when the plan is built: the leaf, the columns and
// vectorized predicates of its cursor, and the operators a worker's stack
// puts on that cursor, bottom up — bound once, made once per worker.
// Traced, every node's operator is followed by its measuring wrapper.
type chain struct {
	leaf  plan.Node // *plan.Scan, *plan.IndexScan or *plan.IndexRange
	dop   int       // the leaf's Dop: the most workers its source gets
	cols  []int
	preds []storage.Pred
	ops   []func(Iterator) Iterator
}

// lowerChain lowers the chain n (plan.ChainLeaf(n) != nil). A scan's
// vectorizable conjuncts become the cursor's bitmaps and the rest a
// filter on top, so it sees only rows that survived them; an index
// leaf's residual is a filter over the probed rows.
func lowerChain(n plan.Node, tr *Trace) *chain {
	var c *chain
	switch t := n.(type) {
	case *plan.Filter:
		c = lowerChain(t.Input, tr)
		c.push(newFilter(t.Pred, t.Layout, plan.OutputCols(t.Input)))
	case *plan.Project:
		c = lowerChain(t.Input, tr)
		c.push(newProject(t))
	case *plan.Scan:
		preds, rest := splitVectorizable(t.Filter, t.Layout)
		c = &chain{leaf: t, dop: t.Dop, cols: t.Out, preds: preds}
		c.push(newFilter(rest, t.Layout, t.Out))
	case *plan.IndexScan:
		c = &chain{leaf: t, cols: t.Out}
		c.push(newFilter(t.Residual, t.Layout, t.Out))
	case *plan.IndexRange:
		c = &chain{leaf: t, dop: t.Dop, cols: t.Out}
		c.push(newFilter(t.Residual, t.Layout, t.Out))
	}
	if tr != nil {
		c.push(tr.measure(n))
	}
	return c
}

// push puts op, unless it is nil, on top of the chain's operators.
func (c *chain) push(op func(Iterator) Iterator) {
	if op != nil {
		c.ops = append(c.ops, op)
	}
}

// source is a partitioned input: count morsels, read through operator
// stacks made one per worker. A chain's source pins its snapshot (and
// resolves an index leaf's probe with it) in open, and release drops the
// pin; the consumer calls release after all workers have stopped. A
// source's stacks point into it, so it is not copied once opened.
type source struct {
	chain *chain                  // nil: it is the source's one morsel
	it    Iterator                // a built child
	top   func(Iterator) Iterator // what the consumer puts on every stack (the join's probe), or nil

	count int
	snap  *storage.Snap // a chain's pin, from open to release
	ids   []int         // and an index leaf's resolved row IDs
}

// sourceOf prepares the source of child n at build time: a chain is
// lowered (its stacks are made per worker, when the consumer opens);
// anything else builds its iterator tree now and is served as one morsel.
func sourceOf(n plan.Node, tr *Trace) (source, error) {
	if plan.ChainLeaf(n) != nil {
		return source{chain: lowerChain(n, tr)}, nil
	}
	it, err := build(n, tr)
	return source{it: it}, err
}

// open partitions the source: a chain pins its snapshot now and counts
// its rows, or the row IDs its probe resolved, in morsels.
func (s *source) open() error {
	if s.chain == nil {
		s.count = 1
		return nil
	}
	var err error
	rows := 0
	switch t := s.chain.leaf.(type) {
	case *plan.Scan:
		s.snap = t.Table.Pin()
		rows = s.snap.NumRows()
	case *plan.IndexScan:
		s.snap, s.ids, err = t.Table.PinIndexProbe(t.Index, pointProbeOf(t.Keys))
		rows = len(s.ids)
	case *plan.IndexRange:
		s.snap, s.ids, err = t.Table.PinIndexProbe(t.Index, indexRangeProbe(t))
		rows = len(s.ids)
	}
	s.count = (rows + morselRows - 1) / morselRows
	return err
}

// release drops the chain's snapshot pin, if it holds one.
func (s *source) release() {
	if s.snap != nil {
		s.snap.Release()
		s.snap = nil
	}
}

// workers is how many workers a consumer gives the source: as many as
// its leaf's Dop, never more than it has morsels, and one — the inline
// case — for a serial chain (Dop 0) or a one-morsel source.
func (s *source) workers() int {
	if s.chain == nil {
		return 1
	}
	return max(1, min(s.chain.dop, s.count))
}

// stack makes one worker's operator stack over the source.
func (s *source) stack() morselStack {
	st := morselStack{Iterator: s.it}
	if s.chain != nil {
		st.leaf = &cursorIter{src: s}
		st.Iterator = st.leaf
		for _, op := range s.chain.ops {
			st.Iterator = op(st.Iterator)
		}
	}
	if s.top != nil {
		st.Iterator = s.top(st.Iterator)
	}
	return st
}

// morselStack is one worker's operator stack over a source: its leaf is
// aimed at a morsel of the source's rows (or row IDs), then the stack is
// opened, drained and closed, and aimed again — so whatever scratch its
// operators and cursor hold is allocated once per worker, not per morsel.
// A built child has no leaf to aim: it is its own single morsel.
type morselStack struct {
	Iterator
	leaf *cursorIter
}

// open aims the stack at morsel i and opens it.
func (st morselStack) open(i int) error {
	if st.leaf != nil {
		st.leaf.morsel = i
	}
	return st.Open()
}

// runMorsels drives a barrier phase (hash-join build, aggregate fold)
// over an opened source: its workers claim morsels off an atomic counter,
// aim their stack at each, hand it to the worker's per-morsel function,
// and close it. One worker runs on the calling goroutine. The first error
// cancels remaining claims; runMorsels returns after every worker has
// stopped and the source is released.
func runMorsels(src *source, mkWorker func(w int) func(idx int, it Iterator) error) error {
	defer src.release()
	workers := src.workers()
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
	src      source
	nextEmit int // next morsel to stream (one worker) or emit (N workers)

	st     morselStack // one worker: the stack, and whether it is open on a morsel
	opened bool

	par *exchange // N workers
}

// exchange is the N-worker state of a gatherIter, made only when the
// source has more than one worker.
type exchange struct {
	mu   sync.Mutex
	cond sync.Cond
	wg   sync.WaitGroup
	stop atomic.Bool

	workers   int
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
	if err := g.src.open(); err != nil {
		return err
	}
	g.nextEmit = 0
	workers := g.src.workers()
	if workers == 1 {
		// Open the first morsel now: a blocking operator beneath does its
		// work in Open, like every other operator's.
		g.st = g.src.stack()
		return g.advance()
	}
	x := &exchange{workers: workers, results: map[int]*morselResult{}}
	x.cond.L = &x.mu
	g.par = x
	x.wg.Add(workers)
	for w := 0; w < workers; w++ {
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
	x := g.par
	defer x.wg.Done()
	st := g.src.stack()
	window := 2 * x.workers
	for {
		x.mu.Lock()
		for !x.closed && x.nextClaim < g.src.count && x.nextClaim >= g.nextEmit+window {
			x.cond.Wait()
		}
		if x.closed || x.nextClaim >= g.src.count {
			x.mu.Unlock()
			return
		}
		idx := x.nextClaim
		x.nextClaim++
		var res *morselResult
		if n := len(x.free); n > 0 {
			res, x.free = x.free[n-1], x.free[:n-1]
		} else {
			res = &morselResult{}
		}
		x.mu.Unlock()

		x.runMorsel(st, idx, res)
		x.mu.Lock()
		x.results[idx] = res
		x.cond.Broadcast()
		x.mu.Unlock()
	}
}

// runMorsel drains morsel idx through the worker's stack into res.
func (x *exchange) runMorsel(st morselStack, idx int, res *morselResult) {
	res.batches = res.batches[:0]
	err := st.open(idx)
	for err == nil && !x.stop.Load() {
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
	x := g.par
	if x == nil {
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
		if x.cur != nil {
			if x.curPos < len(x.cur.batches) {
				x.curPos++
				return &x.cur.batches[x.curPos-1].Batch, nil
			}
			if x.cur.err != nil {
				return nil, x.cur.err // after the rows the morsel produced before failing
			}
			x.mu.Lock()
			x.free = append(x.free, x.cur)
			x.cur = nil
			g.nextEmit++
			x.cond.Broadcast()
			x.mu.Unlock()
		}
		x.mu.Lock()
		if g.nextEmit >= g.src.count {
			x.mu.Unlock()
			return nil, nil
		}
		for x.results[g.nextEmit] == nil && !x.closed {
			x.cond.Wait()
		}
		if x.closed {
			x.mu.Unlock()
			return nil, nil
		}
		x.cur, x.curPos = x.results[g.nextEmit], 0
		delete(x.results, g.nextEmit)
		x.mu.Unlock()
	}
}

// Close stops the source's consumption — the streamed morsel is closed,
// or in-flight morsels are cancelled and every worker has exited, so no
// goroutine outlives the query — and only then releases the shared pin.
// Before Open, or after an Open that failed to pin, there is nothing to
// stop.
func (g *gatherIter) Close() error {
	var err error
	if x := g.par; x != nil {
		x.stop.Store(true)
		x.mu.Lock()
		x.closed = true
		x.cond.Broadcast()
		x.mu.Unlock()
		x.wg.Wait()
		g.par = nil
	} else if g.opened {
		g.opened = false
		err = g.st.Close()
	}
	g.src.release()
	return err
}
