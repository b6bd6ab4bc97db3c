package storage

import "fmt"

// Cursor streams a table snapshot in batches with zero locks on the hot
// path: it pins the table's MVCC snapshot at creation and walks the
// immutable column chunks directly, so long scans never contend with
// writers — not even a bulk crowd FillColumn landing mid-scan. Each
// refill evaluates the vectorized predicates (SetPreds) chunk-at-a-time
// into a selection bitmap over the typed chunks, then boxes only the
// selected cells into one reusable batch buffer, column-at-a-time. The
// bitmaps are storage's only filter: predicates the planner could not
// vectorize are evaluated by the executor on the rows a cursor returns.
//
// Consistency: the whole scan observes exactly the snapshot pinned at
// creation. Mutations applied after creation — Set, Delete, FillColumn,
// Insert — are invisible; in particular a concurrent Delete can no
// longer skip or duplicate rows (physical IDs are stable and the
// snapshot's tombstone bitmap is frozen).
//
// Decode errors (a torn chunk, possible only through corruption) surface
// through Next→Err with the table name and row position instead of
// silently ending the scan.
//
// The Row returned by Next aliases the cursor's internal buffer and is
// valid only until the following Next call; callers that retain rows
// (sorts, hash builds) must Clone them.
type Cursor struct {
	snap  *Snap
	v     *version
	width int // column count fixed at cursor creation
	owns  bool

	next  int // next physical row to consider
	limit int // exclusive upper physical row

	preds []Pred

	// Current window state: the selection bitmap of its not-yet-surfaced
	// rows (drained from word selWord on) and one typed view per column.
	winLo   int // first physical row of the window
	selWord int
	sel     []uint64
	wins    []window
	offs    []int32 // selected window offsets of the batch being boxed
	ids     []int   // when non-nil: physical row IDs of the batch (Table.Scan)

	buf  []Value // batch backing array, reused across refills
	hdrs []Row   // row headers into buf, reused across refills
	n    int     // rows in the current batch
	pos  int     // consumed rows of the current batch
	err  error
	done bool
}

// DefaultBatchSize is the cursor batch size used when 0 is passed.
const DefaultBatchSize = 256

// boxRows caps how many rows are boxed column-at-a-time in one go: every
// column pass strides over the whole block of the batch buffer, so the
// block has to stay cache-resident however large the caller's batch is.
const boxRows = 256

// NewCursor creates a batched cursor over the table's current snapshot.
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
	if lo < 0 {
		lo = 0
	}
	v := snap.v
	if hi < 0 || hi > v.nrows {
		hi = v.nrows
	}
	width := v.schema.Len()
	return &Cursor{
		snap:  snap,
		v:     v,
		width: width,
		next:  lo,
		limit: hi,
		offs:  make([]int32, 0, min(batchSize, boxRows)),
		buf:   make([]Value, batchSize*width),
		hdrs:  make([]Row, batchSize),
	}
}

// SetPreds installs vectorized predicates, ANDed together. They are
// evaluated per chunk window into a selection bitmap — no per-row call,
// no row materialization for non-matching rows.
func (c *Cursor) SetPreds(preds []Pred) { c.preds = preds }

// Next returns the next matching row, or ok=false at the end of the scan
// (check Err afterwards). The returned Row is valid until the next call.
func (c *Cursor) Next() (Row, bool) {
	for c.pos >= c.n {
		if c.err != nil || c.done {
			c.Close()
			return nil, false
		}
		c.refill()
	}
	row := c.hdrs[c.pos]
	c.pos++
	return row, true
}

// Err returns the first decode error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's snapshot pin (if it owns one). It is
// called automatically when the scan ends; callers abandoning a cursor
// early should call it themselves. Idempotent.
func (c *Cursor) Close() {
	if c.owns {
		c.snap.Release()
	}
}

// loadWindow positions the window machinery over the next span of
// physical rows: [c.next, min(limit, next chunk boundary)). Reports
// false when the scan range is exhausted.
func (c *Cursor) loadWindow() bool {
	if c.next >= c.limit {
		return false
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
	words := (n + 63) / 64
	if cap(c.sel) < words {
		c.sel = make([]uint64, words)
	}
	c.sel = c.sel[:words]
	fillOnes(c.sel, n)
	c.clearDead(lo, n)
	if c.wins == nil {
		c.wins = make([]window, c.width)
	}
	for col := range c.wins {
		if err := v.window(&c.wins[col], col, lo, hi); err != nil {
			c.err = fmt.Errorf("storage: table %s: %w", c.snap.t.name, err)
			return false
		}
	}
	for _, p := range c.preds {
		w := &window{} // a column newer than the snapshot: all-NULL
		if p.Col < c.width {
			w = &c.wins[p.Col]
		}
		evalPredWindow(p, w, n, c.sel)
	}
	c.winLo, c.selWord = lo, 0
	c.next = hi
	return true
}

// clearDead drops the tombstoned rows of the window [lo, lo+n) from sel.
// Full scans and morsels start on a word boundary, where the tombstone
// words apply as they are; only an unaligned range cursor tests per row.
func (c *Cursor) clearDead(lo, n int) {
	dead := c.v.dead
	if lo&63 == 0 {
		if w0 := lo >> 6; w0 < len(dead) {
			for i, d := range dead[w0:min(len(dead), w0+len(c.sel))] {
				c.sel[i] &^= d
			}
		}
		return
	}
	if dead == nil {
		return
	}
	for i := 0; i < n; i++ {
		if c.v.isDead(lo + i) {
			c.sel[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
}

// refill boxes the next batch of selected rows.
func (c *Cursor) refill() {
	batch := len(c.hdrs)
	c.n, c.pos = 0, 0
	for c.n < batch {
		if c.selWord >= len(c.sel) {
			if !c.loadWindow() {
				c.done = true
				return
			}
			continue
		}
		c.offs = takeSelected(c.sel, &c.selWord, c.offs[:0], min(batch-c.n, boxRows))
		for col := range c.wins {
			c.wins[col].box(c.offs, c.buf[c.n*c.width+col:], c.width)
		}
		for _, o := range c.offs {
			if c.ids != nil {
				c.ids[c.n] = c.winLo + int(o)
			}
			c.hdrs[c.n] = c.buf[c.n*c.width : (c.n+1)*c.width]
			c.n++
		}
	}
}
