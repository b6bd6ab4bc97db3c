package storage

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MVCC columnar layout (see DESIGN.md §15).
//
// A table's data lives in an immutable *version: per-column sealed chunks
// of exactly ChunkRows cells plus an append-only tail — typed vectors,
// see chunk.go — a tombstone bitmap over physical row IDs, and a
// monotonically increasing epoch. Writers (serialized by Table.mu) build
// a new version — copying only what they change — and publish it with
// one atomic pointer store. Readers load the pointer once and then scan
// with zero locks: nothing a published version references is ever
// mutated at an index a reader can see.
//
// Two copy disciplines keep writes cheap:
//
//   - The tail uses the published-length trick: the backing arrays are
//     shared across versions and appends write past every published
//     version's nrows, so an Insert extends the tail in place (amortized
//     by capacity doubling up to ChunkRows). A reader of version v only
//     indexes below v's row count, so it can never observe the write.
//   - SetBatch (Set is its one-cell case) gives each column chunk (or
//     tail) it writes a new patch — the written cells over the shared
//     payload, folded into a fresh chunk once it would pass patchCells
//     (see chunk) — plus that column's chunk-header slice; every other
//     column and chunk is shared with the previous version.
//
// The column headers themselves are kept in pages of pageCols, reached
// through a page directory, and a last page of up to pageCols beside it,
// so that a commit copies the pages it writes (and the directory, if it
// writes a full page) and shares every other page: a fill or an UPDATE of
// one column of a wide table copies one page, not a header per column,
// and AddColumn — which writes the last page — copies that page alone.
// Only Insert, which writes every column's tail, copies them all.
//
// Physical row IDs are stable for the life of a table: Delete sets
// tombstone bits (copy-on-write bitmap) instead of compacting, so open
// snapshots, index entries, and in-flight cursors never see IDs shift.

// ChunkRows is the fixed row capacity of a sealed column chunk. It
// matches the morsel size of the parallel executor, so one morsel reads
// whole chunks.
const ChunkRows = 4096

// pageCols is the number of column headers a page holds: a commit that
// writes one column copies at most this many headers (1 KB).
const pageCols = 32

// colData holds one column's cells: sealed immutable chunks and the
// shared-backing tail, each nil when all-NULL (the unfilled-expansion
// representation). The valid tail prefix of a version is version.nrows -
// version.sealed. It stays two words and a pointer because an Insert
// copies one per column.
type colData struct {
	chunks []*chunk
	tail   *chunk
}

// tombstones is a version's deleted rows: bit i of bits ↔ physical row i,
// n bits set. Versions that do not delete share it; nil means none.
type tombstones struct {
	bits []uint64
	n    int
}

// version is one immutable snapshot of a table's data. It is 88 bytes, in
// the 96-byte size class: an Insert on a table of at most pageCols
// columns allocates the version and its last page and nothing else.
type version struct {
	schema *Schema
	// pages is the directory of the full pages: page p holds the headers
	// of columns [p·pageCols, (p+1)·pageCols). last holds the rest, 1 to
	// pageCols of them (none for a table without columns).
	pages  [][]colData
	last   []colData
	nrows  int // physical rows (live + tombstoned)
	sealed int // rows covered by sealed chunks (multiple of ChunkRows)
	dead   *tombstones
	epoch  uint64
}

// newVersion returns an empty version of schema with private pages.
func newVersion(schema *Schema) *version {
	v := &version{schema: schema}
	v.setPages(make([]colData, schema.Len()))
	return v
}

// setPages makes cells, one header per column, v's private pages.
func (v *version) setPages(cells []colData) {
	full := max(0, len(cells)-1) / pageCols
	v.pages = nil
	if full > 0 {
		v.pages = make([][]colData, full)
	}
	for p := range v.pages {
		v.pages[p] = cells[p*pageCols : (p+1)*pageCols : (p+1)*pageCols]
	}
	v.last = cells[full*pageCols:]
}

// clone returns a shallow working copy for the next commit: every page,
// chunk, tail and the tombstones shared, epoch bumped.
func (v *version) clone() *version {
	return &version{
		schema: v.schema,
		pages:  v.pages,
		last:   v.last,
		nrows:  v.nrows,
		sealed: v.sealed,
		dead:   v.dead,
		epoch:  v.epoch + 1,
	}
}

// col returns column c's header. Through a working copy it may be
// written only after ownAll or through setCol.
func (v *version) col(c int) *colData {
	if p := c / pageCols; p < len(v.pages) {
		return &v.pages[p][c%pageCols]
	}
	return &v.last[c-len(v.pages)*pageCols]
}

// ownAll gives nv, a clone, private copies of all its pages, in one
// allocation: for a commit that writes every column (Insert).
func (nv *version) ownAll() {
	cells := make([]colData, nv.schema.Len())
	for p, page := range nv.pages {
		copy(cells[p*pageCols:], page)
	}
	copy(cells[len(nv.pages)*pageCols:], nv.last)
	nv.setPages(cells)
}

// setCol installs cd as column c's header of nv, a clone of base: the
// first write of a commit to a page copies it, and a full page the
// directory with it; later writes to the page go in place.
func (nv *version) setCol(base *version, c int, cd colData) {
	p := c / pageCols
	if p == len(nv.pages) {
		if &nv.last[0] == &base.last[0] {
			nv.last = append(nv.last[:0:0], nv.last...)
		}
		nv.last[c%pageCols] = cd
		return
	}
	if &nv.pages[0] == &base.pages[0] {
		nv.pages = append([][]colData(nil), nv.pages...)
	}
	if page := nv.pages[p]; &page[0] == &base.pages[p][0] {
		nv.pages[p] = append(page[:0:0], page...)
	}
	nv.pages[p][c%pageCols] = cd
}

// addCol appends cd as the header of a new last column to nv, a clone
// whose schema already has it: the last page is copied one header longer
// or, when full, joins the directory and a last page of one begins.
func (nv *version) addCol(cd colData) {
	if len(nv.last) == pageCols {
		nv.pages = append(nv.pages[:len(nv.pages):len(nv.pages)], nv.last)
		nv.last = nil
	}
	nv.last = append(append(make([]colData, 0, len(nv.last)+1), nv.last...), cd)
}

func (v *version) ndead() int {
	if v.dead == nil {
		return 0
	}
	return v.dead.n
}

// deadBits returns the tombstone bitmap, nil when no row is deleted.
func (v *version) deadBits() []uint64 {
	if v.dead == nil {
		return nil
	}
	return v.dead.bits
}

func (v *version) live() int { return v.nrows - v.ndead() }

func (v *version) isDead(row int) bool {
	// Rows inserted after the last Delete lie beyond the bitmap: alive.
	if v.dead == nil {
		return false
	}
	w := row >> 6
	return w < len(v.dead.bits) && v.dead.bits[w]&(1<<(uint(row)&63)) != 0
}

// cell locates (row, col): the chunk holding it (nil = all-NULL) and the
// offset within. No bounds checks beyond the chunk lookup; callers
// validate row < v.nrows.
func (v *version) cell(row, col int) (*chunk, int) {
	cd := v.col(col)
	if row >= v.sealed {
		return cd.tail, row - v.sealed
	}
	return cd.chunks[row/ChunkRows], row % ChunkRows
}

// read locates (row, col) as it reads: in the patch that replaced it or
// in its chunk's payload (nil = an all-NULL chunk).
func (v *version) read(row, col int) (*chunk, int) {
	c, i := v.cell(row, col)
	if c == nil {
		return nil, 0
	}
	return c.locate(i)
}

// value boxes (row, col).
func (v *version) value(row, col int) Value {
	c, i := v.cell(row, col)
	if c == nil {
		return Null()
	}
	return c.at(i)
}

// window points w at the cells backing physical rows [lo, hi) of col,
// which must not cross a chunk boundary. A short chunk (torn by
// corruption) is reported as an error with the offending row position —
// cursors surface it through Err instead of silently ending the scan.
func (v *version) window(w *window, col, lo, hi int) error {
	w.c, w.off = v.cell(lo, col)
	if w.c != nil && w.c.len() < w.off+hi-lo {
		have := w.c.len()
		if lo >= v.sealed {
			return fmt.Errorf("torn tail at row %d: column %q has %d of %d tail values",
				v.sealed+have, v.schema.Column(col).Name, have, hi-v.sealed)
		}
		base := lo - w.off
		return fmt.Errorf("torn chunk %d at row %d: column %q has %d of %d values",
			lo/ChunkRows, base+have, v.schema.Column(col).Name, have, hi-base)
	}
	w.setNulls(hi - lo)
	return nil
}

// --- tombstone bitmap helpers ---

func setDead(dead []uint64, row int) { dead[row>>6] |= 1 << (uint(row) & 63) }

// withDead returns v's tombstones plus the rows of killed, which are live
// in v, as a new set whose bitmap covers v's rows.
func (v *version) withDead(killed []int) *tombstones {
	ts := &tombstones{bits: make([]uint64, (v.nrows+63)/64), n: v.ndead() + len(killed)}
	copy(ts.bits, v.deadBits())
	for _, i := range killed {
		setDead(ts.bits, i)
	}
	return ts
}

// --- snapshot pinning ---

// Snap is a pinned read snapshot of a table: the version it references
// is immutable, so every read through it is lock-free and repeatable.
// The pin itself is bookkeeping — memory reclamation is the garbage
// collector's job once no snapshot references a chunk — but the epoch
// registry it feeds (LiveSnapshotEpochs) makes reader lifetimes
// observable, and tests assert on it.
//
// Release is idempotent; cursors release their snapshot automatically
// when the scan is exhausted or closed.
type Snap struct {
	t        *Table
	v        *version
	released bool
}

// Pin captures the table's current snapshot. The caller must Release it.
func (t *Table) Pin() *Snap {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	v := t.snap.Load()
	if t.pins == nil {
		t.pins = map[uint64]int{}
	}
	t.pins[v.epoch]++
	mSnapshotPins.Inc()
	return &Snap{t: t, v: v}
}

// Release unpins the snapshot. Safe to call more than once.
func (s *Snap) Release() {
	if s == nil || s.released {
		return
	}
	s.released = true
	t := s.t
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	if n := t.pins[s.v.epoch]; n <= 1 {
		delete(t.pins, s.v.epoch)
	} else {
		t.pins[s.v.epoch] = n - 1
	}
	mSnapshotPins.Dec()
}

// NumRows returns the snapshot's physical row count (tombstoned rows
// included) — the partitioning domain for morsel-parallel scans.
func (s *Snap) NumRows() int { return s.v.nrows }

// Schema returns the snapshot's schema.
func (s *Snap) Schema() *Schema { return s.v.schema }

// NumLive returns the snapshot's live row count.
func (s *Snap) NumLive() int { return s.v.live() }

// LiveRowIDs returns the physical IDs of the snapshot's live rows,
// ascending — cell k of a one-column read of the snapshot belongs to row
// LiveRowIDs()[k].
func (s *Snap) LiveRowIDs() []int {
	ids := make([]int, 0, s.NumLive())
	for i := 0; i < s.v.nrows; i++ {
		if !s.v.isDead(i) {
			ids = append(ids, i)
		}
	}
	return ids
}

// Epoch returns the snapshot's version epoch.
func (s *Snap) Epoch() uint64 { return s.v.epoch }

// LiveSnapshotEpochs returns the distinct epochs currently pinned by
// open snapshots, ascending — exposed for observability (/schema).
func (t *Table) LiveSnapshotEpochs() []uint64 {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	out := make([]uint64, 0, len(t.pins))
	for e := range t.pins {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChunkCount returns the number of column chunks of the current version:
// sealed chunks plus one partial tail chunk when rows are unsealed.
func (t *Table) ChunkCount() int {
	v := t.snap.Load()
	n := v.sealed / ChunkRows
	if v.nrows > v.sealed {
		n++
	}
	return n
}

// Tombstones returns the number of tombstoned (deleted) physical rows in
// the current version.
func (t *Table) Tombstones() int { return t.snap.Load().ndead() }

// --- vectorized predicates ---

// PredOp enumerates the vectorizable comparison operators. The semantics
// mirror the engine's EvalPredicate exactly: a NULL column value makes
// every comparison UNKNOWN (excluded), equality uses Value.Equal, and
// ordering uses Value.Compare — which the planner only vectorizes for
// class-compatible literals, so Compare cannot fail here.
type PredOp uint8

const (
	PredEq PredOp = iota
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	PredIsNull
	PredNotNull
)

// Pred is one vectorizable predicate: column Col compared against Val.
// Cursors evaluate Preds chunk-at-a-time into a selection bitmap,
// replacing per-row filter closures on the scan hot path.
type Pred struct {
	Col int
	Op  PredOp
	Val Value
}

// valueClass groups kinds by comparability: Value.Equal and Value.Compare
// relate INTEGER and FLOAT to each other and every other kind only to
// itself.
func valueClass(k Kind) Kind {
	if k == KindInt {
		return KindFloat
	}
	return k
}

// evalPredWindow clears sel bits (bit i ↔ row i of the window) for the
// rows of w that fail p: one dispatch per window on (column kind, op,
// literal class) into loops over the typed payload. predMatch on boxed
// values is the reference these kernels are tested against. The kernels
// read the payload under a patch, so the rows the patch replaces are
// tested again afterwards: their selection bits gathered into one word,
// the same kernel run over the patch's own cells, the word scattered back.
func evalPredWindow(p Pred, w *window, n int, sel []uint64) {
	c := w.c
	plo, phi := c.patched(w.off, n)
	if phi == plo {
		evalPredPayload(p, w, n, sel)
		return
	}
	offs := c.p.offs[plo:phi]
	var was [1]uint64 // bit j ↔ the row of patch entry plo+j is selected
	for j, off := range offs {
		if hasBit(sel, int(off)-w.off) {
			was[0] |= 1 << uint(j)
		}
	}
	evalPredPayload(p, w, n, sel)
	pw := window{c: &c.p.cells, off: plo}
	var nulls [1]uint64
	if c.p.cells.nulls != nil {
		nulls[0] = c.p.cells.nulls[0] >> uint(plo)
		pw.nulls = nulls[:]
	}
	evalPredPayload(p, &pw, len(offs), was[:])
	for j, off := range offs {
		i := int(off) - w.off
		if was[0]&(1<<uint(j)) != 0 {
			sel[i>>6] |= 1 << (uint(i) & 63)
		} else {
			sel[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
}

// evalPredPayload is evalPredWindow over the window's payload alone.
func evalPredPayload(p Pred, w *window, n int, sel []uint64) {
	switch {
	case p.Op == PredIsNull:
		if w.c != nil {
			keepNulls(sel, w.nulls)
		}
		return
	case w.c == nil:
		clear(sel) // all-NULL: IS NOT NULL fails, every comparison is UNKNOWN
		return
	}
	dropNulls(sel, w.nulls) // a NULL cell satisfies nothing below
	if p.Op == PredNotNull {
		return
	}
	c := w.c
	if valueClass(c.kind) != valueClass(p.Val.kind) {
		// Values of different classes (a NULL literal included) are never
		// equal and never ordered: != holds for every non-NULL cell, the
		// other comparisons for none.
		if p.Op != PredNe {
			clear(sel)
		}
		return
	}
	switch c.kind {
	case KindInt:
		f, _ := p.Val.AsFloat()
		cmpNumeric(p.Op, c.ints[w.off:w.off+n], f, sel)
	case KindFloat:
		f, _ := p.Val.AsFloat()
		cmpNumeric(p.Op, c.floats[w.off:w.off+n], f, sel)
	case KindBool:
		cmpSelected(p.Op, c.bools[w.off:w.off+n], p.Val.b, compareBool, sel)
	case KindText:
		cmpSelected(p.Op, c.strs[w.off:w.off+n], p.Val.s, strings.Compare, sel)
	}
}

// keepNulls clears the sel bits of non-NULL rows; nil nulls = no NULL.
func keepNulls(sel, nulls []uint64) {
	if nulls == nil {
		clear(sel)
		return
	}
	for i := range sel {
		sel[i] &= nulls[i]
	}
}

// dropNulls clears the sel bits of NULL rows.
func dropNulls(sel, nulls []uint64) {
	if nulls == nil {
		return
	}
	for i := range sel {
		sel[i] &^= nulls[i]
	}
}

// cmpNumeric is the hot sweep: a numeric column against a numeric
// literal, the overwhelmingly common pushed-down predicate. Both sides
// compare as float64, as Value.Equal and Value.Compare do (so an INTEGER
// column against a float literal is exact to 2^53 either way). Each
// selection word is built from a plain loop over its 64 cells and ANDed
// in, so bits cleared by NULLs, tombstones or earlier predicates stay
// cleared. <= and >= are written as negations because Compare reports an
// unordered pair (NaN) as equal.
func cmpNumeric[T int64 | float64](op PredOp, vals []T, f float64, sel []uint64) {
	for wi := range sel {
		if sel[wi] == 0 {
			continue
		}
		lo := wi << 6
		hi := lo + 64
		if hi > len(vals) {
			hi = len(vals)
		}
		var w uint64
		switch op {
		case PredEq:
			for i, x := range vals[lo:hi] {
				if float64(x) == f {
					w |= 1 << uint(i)
				}
			}
		case PredNe:
			for i, x := range vals[lo:hi] {
				if float64(x) != f {
					w |= 1 << uint(i)
				}
			}
		case PredLt:
			for i, x := range vals[lo:hi] {
				if float64(x) < f {
					w |= 1 << uint(i)
				}
			}
		case PredLe:
			for i, x := range vals[lo:hi] {
				if !(float64(x) > f) {
					w |= 1 << uint(i)
				}
			}
		case PredGt:
			for i, x := range vals[lo:hi] {
				if float64(x) > f {
					w |= 1 << uint(i)
				}
			}
		case PredGe:
			for i, x := range vals[lo:hi] {
				if !(float64(x) < f) {
					w |= 1 << uint(i)
				}
			}
		}
		sel[wi] &= w
	}
}

// cmpSelected evaluates a BOOLEAN or TEXT comparison on the still-selected
// rows only: a string compare costs more than skipping a cleared bit.
func cmpSelected[T any](op PredOp, vals []T, lit T, compare func(a, b T) int, sel []uint64) {
	for wi, w := range sel {
		for w != 0 {
			b := w & -w
			w &^= b
			c := compare(vals[wi<<6+bits.TrailingZeros64(b)], lit)
			var keep bool
			switch op {
			case PredEq:
				keep = c == 0
			case PredNe:
				keep = c != 0
			case PredLt:
				keep = c < 0
			case PredLe:
				keep = c <= 0
			case PredGt:
				keep = c > 0
			case PredGe:
				keep = c >= 0
			}
			if !keep {
				sel[wi] &^= b
			}
		}
	}
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

// predMatch is the boxed reference semantics of a Pred.
func predMatch(p Pred, v Value) bool {
	switch p.Op {
	case PredIsNull:
		return v.IsNull()
	case PredNotNull:
		return !v.IsNull()
	}
	if v.IsNull() {
		return false // comparison with NULL is UNKNOWN → excluded
	}
	switch p.Op {
	case PredEq:
		return v.Equal(p.Val)
	case PredNe:
		return !v.Equal(p.Val)
	default:
		c, err := v.Compare(p.Val)
		if err != nil {
			return false // planner guarantees class compatibility; defensive
		}
		switch p.Op {
		case PredLt:
			return c < 0
		case PredLe:
			return c <= 0
		case PredGt:
			return c > 0
		case PredGe:
			return c >= 0
		}
	}
	return false
}

func fillOnes(sel []uint64, n int) {
	for wi := range sel {
		lo := wi << 6
		switch {
		case lo+64 <= n:
			sel[wi] = ^uint64(0)
		case lo >= n:
			sel[wi] = 0
		default:
			sel[wi] = (1 << uint(n-lo)) - 1
		}
	}
}
