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
// of morsels, each opened as an independent iterator. A plan chain the
// Parallelize pass marked — Filter*/Project* over a Scan or IndexRange —
// becomes fixed-size morsels: disjoint row-index ranges for scans,
// disjoint chunks of the resolved row-ID list for index probes, all
// reading one shared snapshot pin, so workers share nothing mutable below
// the exchange (cursors take no locks). Any other child is a one-morsel
// source around its iterator tree. The two consumers (runMorsels, the
// ordered gather) give a source min(dop, count) workers, and with one
// worker they run on the calling goroutine — the serial executor is that
// case, not separate code.

// morselRows is the number of table rows per morsel: big enough that
// per-morsel setup (cursor allocation, goroutine handoff) is noise,
// small enough that a filtered scan load-balances across workers.
const morselRows = 4096

// source is a partitioned input: count morsels, each opened as an
// independent iterator. owned reports that emitted rows are fresh
// allocations (a Project top) rather than aliases of a cursor batch
// buffer, letting the N-worker exchange skip its copy. release drops the
// shared snapshot pin every morsel reads through (nil when the morsels
// pin for themselves); the consumer calls it exactly once, after all
// workers have stopped.
type source struct {
	count   int
	owned   bool
	open    func(i int) Iterator
	release func()
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
// builds no iterators (its morsel stacks are made per morsel, by the
// worker that claims it); anything else builds its iterator tree now and
// is served as one morsel.
func sourceOf(n plan.Node, tr *Trace) (sourceFn, error) {
	if parallelChain(n) {
		return func() (*source, error) { return chainSource(n) }, nil
	}
	it, err := build(n, tr)
	if err != nil {
		return nil, err
	}
	return func() (*source, error) {
		return &source{count: 1, open: func(int) Iterator { return it }}, nil
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

// stack wraps every morsel iterator of src in another operator.
func (s *source) stack(wrap func(Iterator) Iterator) {
	inner := s.open
	s.open = func(i int) Iterator { return wrap(inner(i)) }
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
		src.stack(func(it Iterator) Iterator { return filterOver(it, t.Pred, t.Layout) })
		return src, nil
	case *plan.Project:
		src, err := chainSource(t.Input)
		if err != nil {
			return nil, err
		}
		src.stack(func(it Iterator) Iterator { return &projectIter{input: it, node: t} })
		src.owned = true
		return src, nil
	case *plan.Scan:
		// One snapshot pin shared by every morsel: all workers read the
		// same immutable version, so dop=N output is row-identical to a
		// serial run regardless of concurrent writers.
		snap := t.Table.Pin()
		rows := snap.NumRows()
		var once sync.Once
		return &source{
			count:   (rows + morselRows - 1) / morselRows,
			release: func() { once.Do(snap.Release) },
			open: func(i int) Iterator {
				lo := i * morselRows
				return scanOf(t, snap, lo, min(lo+morselRows, rows))
			},
		}, nil
	case *plan.IndexRange:
		snap, ids, err := t.Table.PinIndexProbe(t.Index, indexRangeProbe(t))
		if err != nil {
			return nil, err
		}
		var once sync.Once
		return &source{
			count:   (len(ids) + morselRows - 1) / morselRows,
			release: func() { once.Do(snap.Release) },
			open: func(i int) Iterator {
				lo := i * morselRows
				hi := min(lo+morselRows, len(ids))
				return filterOver(&indexIter{snap: snap, ids: ids[lo:hi]}, t.Residual, t.Layout)
			},
		}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported plan node %T in a morsel chain", n)
	}
}

// rowArena copies rows that alias cursor batch buffers into chunked
// backing arrays: one allocation per ~8K values instead of one per row,
// and headers stay valid because a chunk is never grown past its
// capacity.
const arenaChunkVals = 8192

type rowArena struct{ chunk []storage.Value }

func (a *rowArena) add(row storage.Row) storage.Row {
	n := len(row)
	if cap(a.chunk)-len(a.chunk) < n {
		size := arenaChunkVals
		if n > size {
			size = n
		}
		a.chunk = make([]storage.Value, 0, size)
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, row...)
	return a.chunk[start : start+n : start+n]
}

// runMorsels drives a barrier phase (hash-join build, aggregate fold):
// the source's workers claim morsels off an atomic counter, open each
// morsel's iterator, hand it to the worker's per-morsel function, and
// close it. One worker runs on the calling goroutine. The first error
// cancels remaining claims; runMorsels returns after every worker has
// stopped and the source is released.
func runMorsels(src *source, dop int, mkWorker func(w int) func(idx int, it Iterator) error) error {
	defer src.Release()
	workers := src.workers(dop)
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	work := func(w int) {
		fn := mkWorker(w)
		for !failed.Load() {
			idx := int(next.Add(1) - 1)
			if idx >= src.count {
				return
			}
			it := src.open(idx)
			err := it.Open()
			if err == nil {
				err = fn(idx, it)
			}
			if cerr := it.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
		}
	}
	if workers == 1 {
		work(0)
		return errs[0]
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// gatherIter is the ordered exchange: it streams a source's morsels
// strictly in morsel order. With one worker it pulls the current
// morsel's iterator directly on the consumer's goroutine — no goroutine,
// no copy, no buffering, so rows stream and a LIMIT above stops the scan
// where it stands. With N workers each drains whole morsels into
// per-morsel result buffers and the consumer emits those buffers in
// order — so the output row sequence is the one-worker sequence, errors
// included (a morsel's error surfaces exactly after the rows that
// precede it: every earlier morsel's and its own). A bounded claim window
// (2×workers morsels ahead of the consumer) backpressures workers so a
// slow consumer doesn't buffer the whole table.
type gatherIter struct {
	mkSource sourceFn
	dop      int

	src      *source
	workers  int
	nextEmit int // next morsel to stream (one worker) or emit (N workers)

	it Iterator // one worker: the open morsel being streamed

	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
	stop atomic.Bool

	results   map[int]*morselResult
	nextClaim int
	closed    bool

	cur    *morselResult
	curPos int
}

type morselResult struct {
	rows []storage.Row
	err  error
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
// morsel and open the next. g.it is nil once the source is exhausted.
func (g *gatherIter) advance() error {
	if it := g.it; it != nil {
		g.it = nil
		if err := it.Close(); err != nil {
			return err
		}
	}
	if g.nextEmit >= g.src.count {
		return nil
	}
	g.it = g.src.open(g.nextEmit) // set before Open: Close closes a half-opened morsel
	g.nextEmit++
	return g.it.Open()
}

func (g *gatherIter) worker() {
	defer g.wg.Done()
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
		g.mu.Unlock()

		res := g.runMorsel(idx)
		g.mu.Lock()
		g.results[idx] = res
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// runMorsel drains one morsel into an owned buffer. Rows that alias the
// cursor's batch buffer are copied through a chunked arena; rows a
// Project already owns pass straight through.
func (g *gatherIter) runMorsel(idx int) *morselResult {
	res := &morselResult{}
	it := g.src.open(idx)
	if err := it.Open(); err != nil {
		_ = it.Close()
		res.err = err
		return res
	}
	var arena rowArena
	for !g.stop.Load() {
		row, ok, err := it.Next()
		if err != nil {
			res.err = err
			break
		}
		if !ok {
			break
		}
		if g.src.owned {
			res.rows = append(res.rows, row)
		} else {
			res.rows = append(res.rows, arena.add(row))
		}
	}
	if err := it.Close(); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

func (g *gatherIter) Next() (storage.Row, bool, error) {
	if g.workers == 1 {
		for g.it != nil {
			row, ok, err := g.it.Next()
			if ok || err != nil {
				return row, ok, err
			}
			if err := g.advance(); err != nil {
				return nil, false, err
			}
		}
		return nil, false, nil
	}
	for {
		if g.cur != nil {
			if g.curPos < len(g.cur.rows) {
				row := g.cur.rows[g.curPos]
				g.curPos++
				return row, true, nil
			}
			if g.cur.err != nil {
				return nil, false, g.cur.err // after the rows the morsel produced before failing
			}
			g.cur = nil
			g.mu.Lock()
			g.nextEmit++
			g.cond.Broadcast()
			g.mu.Unlock()
		}
		g.mu.Lock()
		if g.nextEmit >= g.src.count {
			g.mu.Unlock()
			return nil, false, nil
		}
		for g.results[g.nextEmit] == nil && !g.closed {
			g.cond.Wait()
		}
		if g.closed {
			g.mu.Unlock()
			return nil, false, nil
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
		if it := g.it; it != nil {
			g.it = nil
			err = it.Close()
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
