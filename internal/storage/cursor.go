package storage

import "fmt"

// Cursor reads a pinned table snapshot batch by batch with zero locks on
// the hot path: it walks the immutable column chunks directly, so long
// scans never contend with writers — not even a bulk crowd FillColumn
// landing mid-scan. It has two forms sharing one contract. The scan form
// (NewCursor, NewRangeCursor[At]) walks a window of physical rows one
// storage window at a time: the vectorized predicates (SetPreds) and the
// tombstones become a selection over the window, and the batch's vectors
// are zero-copy views of the chunks. The index form (NewIndexCursor[At])
// reads the rows an index probe resolved, in probe order, gathering them
// into vectors of its own. Either way only the columns asked for
// (SetCols) are touched, so the cost of a read does not grow with the
// width of the table, and nothing is boxed: NextBatch hands typed vectors
// up, and Next — for callers that want rows — boxes them into a reused
// buffer. The selection bitmaps are storage's only filter: predicates the
// planner could not vectorize are evaluated by the executor.
//
// Consistency: the whole read observes exactly the snapshot pinned at
// creation. Mutations applied after creation — Set, Delete, FillColumn,
// Insert — are invisible; a concurrent Delete cannot skip or duplicate
// rows (physical IDs are stable and the snapshot's tombstone bitmap is
// frozen), and an index cursor's IDs were resolved in the critical section
// that pinned its snapshot, so each names a live row carrying the key the
// index reported.
//
// Decode errors (a torn chunk, possible only through corruption) end the
// read and surface through Err with the table name and row position.
type Cursor struct {
	snap  *Snap
	v     *version
	width int // column count fixed at cursor creation
	owns  bool

	cols  []int // schema columns of every batch; nil until bound = all
	preds []Pred
	bound bool

	// The read position: physical rows [next, limit) in the scan form,
	// positions [next, limit) of ids in the index form.
	byID        bool
	ids         []int
	next, limit int

	// Scan form: one window per batch column, then one per predicate
	// column outside cols; the selection bitmap and its offsets.
	winCols []int
	wins    []window
	predWin []int // per predicate: its window, or -1 for a column newer than the snapshot
	sel     [ChunkRows / 64]uint64
	offs    []int32

	rows  []int // index form: the live row IDs of the current batch
	batch Batch

	// Next's boxing state: the batch being drained and the reused buffer.
	size   int // rows boxed per refill; the index form's batch size
	cur    *Batch
	curPos int
	buf    []Value
	hdrs   []Row
	n, pos int

	err  error
	done bool
}

// DefaultBatchSize is the cursor batch size used when 0 is passed: the
// rows Next boxes per refill and an index cursor gathers per batch.
const DefaultBatchSize = 256

// boxRows caps how many rows Next boxes column-at-a-time in one go: every
// column pass strides over the whole block of the buffer, so the block
// has to stay cache-resident however large the caller's batch is.
const boxRows = 256

// NewCursor creates a cursor over the table's current snapshot.
func (t *Table) NewCursor(batchSize int) *Cursor {
	return t.NewRangeCursor(0, -1, batchSize)
}

// NewRangeCursor creates a cursor over the physical-row window [lo, hi)
// of a snapshot pinned now — the partitioning primitive for
// morsel-parallel scans: disjoint windows of the same snapshot can be
// read by concurrent cursors with no coordination at all. hi < 0 means
// "to the end of the snapshot". Tombstoned rows inside the window are
// skipped. The cursor owns its snapshot pin and releases it when the
// scan is exhausted or Closed.
func (t *Table) NewRangeCursor(lo, hi, batchSize int) *Cursor {
	c := newCursorOn(t.Pin(), lo, hi, batchSize)
	c.owns = true
	return c
}

// NewRangeCursorAt creates a cursor over [lo, hi) of an already-pinned
// snapshot. The caller keeps ownership of snap — morsel workers share
// one pin across all their window cursors and release it once.
func NewRangeCursorAt(snap *Snap, lo, hi, batchSize int) *Cursor {
	return newCursorOn(snap, lo, hi, batchSize)
}

func newCursorOn(snap *Snap, lo, hi, batchSize int) *Cursor {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	c := &Cursor{snap: snap, v: snap.v, width: snap.v.schema.Len(), size: batchSize}
	c.Reset(lo, hi)
	return c
}

// NewIndexCursorAt creates a cursor over a pre-resolved slice of row IDs
// (from PinIndexProbe) against the snapshot they were resolved with. The
// caller keeps ownership of snap. Batches hold at most batchSize rows,
// and no more than there are IDs: a point lookup sizes its vectors for
// the one row it returns.
func NewIndexCursorAt(snap *Snap, ids []int, batchSize int) *Cursor {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Cursor{
		snap: snap, v: snap.v, width: snap.v.schema.Len(), size: max(1, min(batchSize, len(ids))),
		byID: true, ids: ids, limit: len(ids),
	}
}

// Reset re-aims the cursor at the window [lo, hi) of its domain —
// physical rows, or positions of the ID list — keeping its columns,
// predicates and scratch: a morsel worker reads all its morsels through
// one cursor. hi < 0 means "to the end".
func (c *Cursor) Reset(lo, hi int) {
	end := c.v.nrows
	if c.byID {
		end = len(c.ids)
	}
	if hi < 0 || hi > end {
		hi = end
	}
	c.next, c.limit = max(lo, 0), hi
	c.cur, c.n, c.pos, c.done = nil, 0, 0, false
}

// SetCols names the schema columns, ascending, that every batch (and
// every row Next returns) carries; the default is all of them. A needed
// column costs a slice header per window in the scan form and a copy per
// row in the index form; a column not named costs nothing. Call it
// before the first read.
func (c *Cursor) SetCols(cols []int) { c.cols = cols }

// SetPreds installs vectorized predicates, ANDed together, on a scan
// cursor. They are evaluated per chunk window into the selection bitmap
// — no per-row call, and nothing is read of a row they reject. Call it
// before the first read.
func (c *Cursor) SetPreds(preds []Pred) { c.preds = preds }

// bind lays out the per-column state once the columns and predicates are
// known.
func (c *Cursor) bind() {
	c.bound = true
	if c.cols == nil {
		c.cols = make([]int, c.width)
		for i := range c.cols {
			c.cols[i] = i
		}
	}
	c.batch.Cols = make([]Vector, len(c.cols))
	if c.byID {
		return
	}
	c.winCols = c.cols[:len(c.cols):len(c.cols)]
	c.predWin = make([]int, len(c.preds))
	for pi, p := range c.preds {
		c.predWin[pi] = -1
		for k, col := range c.winCols {
			if col == p.Col {
				c.predWin[pi] = k
			}
		}
		if c.predWin[pi] < 0 && p.Col < c.width {
			c.predWin[pi] = len(c.winCols)
			c.winCols = append(c.winCols, p.Col)
		}
	}
	c.wins = make([]window, len(c.winCols))
}

// NextBatch returns the next batch with at least one selected row, or nil
// at the end of the read (check Err afterwards). The batch is the
// cursor's: valid until the following NextBatch, Next or Reset call.
func (c *Cursor) NextBatch() *Batch {
	if !c.bound {
		c.bind()
	}
	for c.err == nil && !c.done {
		var b *Batch
		if c.byID {
			b = c.gatherBatch()
		} else {
			b = c.windowBatch()
		}
		if b != nil && len(b.Sel) > 0 {
			return b
		}
	}
	c.Close()
	return nil
}

// Next returns the next matching row, or ok=false at the end of the scan
// (check Err afterwards). It is the boxing adapter over NextBatch for
// callers that work on rows (tools, probes, tests): the returned Row
// aliases a buffer reused from refill to refill and is valid only until
// the next call.
func (c *Cursor) Next() (Row, bool) {
	for c.pos >= c.n {
		if !c.refill() {
			return nil, false
		}
	}
	row := c.hdrs[c.pos]
	c.pos++
	return row, true
}

// Err returns the first decode error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's snapshot pin (if it owns one). It is
// called automatically when the read ends; callers abandoning a cursor
// early should call it themselves. Idempotent.
func (c *Cursor) Close() {
	if c.owns {
		c.snap.Release()
	}
}

// windowBatch positions the window machinery over the next span of
// physical rows — [c.next, min(limit, next chunk boundary)) — and returns
// its batch, nil once the range is exhausted or on a decode error.
func (c *Cursor) windowBatch() *Batch {
	if c.next >= c.limit {
		c.done = true
		return nil
	}
	v := c.v
	lo := c.next
	hi := lo/ChunkRows*ChunkRows + ChunkRows // next chunk boundary
	if lo >= v.sealed {
		hi = v.nrows // the tail is one window
	}
	if hi > c.limit {
		hi = c.limit
	}
	n := hi - lo
	sel := c.sel[:(n+63)/64]
	fillOnes(sel, n)
	c.clearDead(sel, lo, n)
	for k, col := range c.winCols {
		if err := v.window(&c.wins[k], col, lo, hi); err != nil {
			c.err = fmt.Errorf("storage: table %s: %w", c.snap.t.name, err)
			return nil
		}
	}
	for pi, p := range c.preds {
		w := &window{} // a column newer than the snapshot: all-NULL
		if k := c.predWin[pi]; k >= 0 {
			w = &c.wins[k]
		}
		evalPredWindow(p, w, n, sel)
	}
	c.next = hi

	b := &c.batch
	b.N, b.Lo = n, lo
	if allSelected(sel, n) {
		b.Sel = IdentitySel(n)
	} else {
		// A cursor's one and only window gets offsets for what it selects —
		// a point statement on a table of one window finds one row of it;
		// any other read gets a full window's once.
		if cnt := countBits(sel, 0, n); cap(c.offs) < cnt {
			size := ChunkRows
			if c.offs == nil && hi >= c.limit {
				size = cnt
			}
			c.offs = make([]int32, 0, size)
		}
		c.offs = appendSelected(c.offs[:0], sel)
		b.Sel = c.offs
	}
	if len(b.Sel) > 0 {
		for k := range b.Cols {
			c.wins[k].vector(n, &b.Cols[k])
		}
	}
	return b
}

// clearDead drops the tombstoned rows of the window [lo, lo+n) from sel.
// Full scans and morsels start on a word boundary, where the tombstone
// words apply as they are; only an unaligned range cursor tests per row.
func (c *Cursor) clearDead(sel []uint64, lo, n int) {
	dead := c.v.deadBits()
	if lo&63 == 0 {
		if w0 := lo >> 6; w0 < len(dead) {
			for i, d := range dead[w0:min(len(dead), w0+len(sel))] {
				sel[i] &^= d
			}
		}
		return
	}
	if dead == nil {
		return
	}
	for i := 0; i < n; i++ {
		if c.v.isDead(lo + i) {
			sel[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
}

// gatherBatch copies the needed columns of the next block of row IDs into
// the cursor's own vectors (version.gather), every row selected.
func (c *Cursor) gatherBatch() *Batch {
	v := c.v
	c.rows = c.rows[:0]
	for ; len(c.rows) < c.size && c.next < c.limit; c.next++ {
		if id := c.ids[c.next]; id >= 0 && id < v.nrows && !v.isDead(id) {
			c.rows = append(c.rows, id) // else defensive; a consistent (snapshot, IDs) pair never skips
		}
	}
	if len(c.rows) == 0 {
		c.done = true
		return nil
	}
	b := &c.batch
	b.N, b.Sel, b.IDs = len(c.rows), IdentitySel(len(c.rows)), c.rows
	for k, col := range c.cols {
		v.gather(col, c.rows, &b.Cols[k])
	}
	return b
}

// refill boxes the next block of up to size selected rows, batch after
// batch, into the reused buffer.
func (c *Cursor) refill() bool {
	if !c.bound {
		c.bind()
	}
	w := len(c.cols)
	if c.hdrs == nil {
		c.buf = make([]Value, c.size*w)
		c.hdrs = make([]Row, c.size)
		for k := range c.hdrs {
			c.hdrs[k] = c.buf[k*w : (k+1)*w]
		}
	}
	c.n, c.pos = 0, 0
	for c.n < c.size {
		if c.cur == nil || c.curPos >= len(c.cur.Sel) {
			if c.cur = c.NextBatch(); c.cur == nil {
				break
			}
			c.curPos = 0
		}
		blk := c.cur.Sel[c.curPos:min(len(c.cur.Sel), c.curPos+min(c.size-c.n, boxRows))]
		for k := range c.cur.Cols {
			c.cur.Cols[k].Box(blk, c.buf[c.n*w+k:], w)
		}
		c.n += len(blk)
		c.curPos += len(blk)
	}
	return c.n > 0
}
