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
//   - SetBatch (Set is its one-cell case) copies each column chunk (or
//     tail) it writes — ChunkRows cells — once, plus that column's
//     chunk-header slice; every other column and chunk is shared with the
//     previous version.
//
// Physical row IDs are stable for the life of a table: Delete sets
// tombstone bits (copy-on-write bitmap) instead of compacting, so open
// snapshots, index entries, and in-flight cursors never see IDs shift.

// ChunkRows is the fixed row capacity of a sealed column chunk. It
// matches the morsel size of the parallel executor, so one morsel reads
// whole chunks.
const ChunkRows = 4096

// colData holds one column's cells: sealed immutable chunks and the
// shared-backing tail, each nil when all-NULL (the unfilled-expansion
// representation). The valid tail prefix of a version is version.nrows -
// version.sealed. It stays two words and a pointer because version.clone
// copies one per column on every Insert.
type colData struct {
	chunks []*chunk
	tail   *chunk
}

// version is one immutable snapshot of a table's data.
type version struct {
	schema *Schema
	cols   []colData
	nrows  int // physical rows (live + tombstoned)
	sealed int // rows covered by sealed chunks (multiple of ChunkRows)
	dead   []uint64
	ndead  int
	epoch  uint64
}

func newVersion(schema *Schema) *version {
	return &version{schema: schema, cols: make([]colData, schema.Len())}
}

// clone returns a shallow working copy for the next commit: shared
// chunks/tail/dead, fresh cols header slice, epoch bumped.
func (v *version) clone() *version {
	nv := &version{
		schema: v.schema,
		cols:   make([]colData, len(v.cols)),
		nrows:  v.nrows,
		sealed: v.sealed,
		dead:   v.dead,
		ndead:  v.ndead,
		epoch:  v.epoch + 1,
	}
	copy(nv.cols, v.cols)
	return nv
}

func (v *version) live() int { return v.nrows - v.ndead }

func (v *version) isDead(row int) bool {
	// Rows inserted after the last Delete lie beyond the bitmap: alive.
	w := row >> 6
	return w < len(v.dead) && v.dead[w]&(1<<(uint(row)&63)) != 0
}

// cell locates (row, col): the chunk holding it (nil = all-NULL) and the
// offset within. No bounds checks beyond the chunk lookup; callers
// validate row < v.nrows.
func (v *version) cell(row, col int) (*chunk, int) {
	cd := &v.cols[col]
	if row >= v.sealed {
		return cd.tail, row - v.sealed
	}
	return cd.chunks[row/ChunkRows], row % ChunkRows
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

// materializeRow boxes physical row `row` into dst (len >= width) — the
// point-read path; scans box column-at-a-time instead (window.box).
func (v *version) materializeRow(row int, dst []Value, width int) {
	ci, i := row/ChunkRows, row%ChunkRows
	for c := 0; c < width; c++ {
		ch := v.cols[c].tail
		if row < v.sealed {
			ch = v.cols[c].chunks[ci]
		}
		if ch == nil {
			dst[c] = Value{}
		} else {
			dst[c] = ch.at(i)
		}
	}
}

// --- tombstone bitmap helpers ---

func setDead(dead []uint64, row int) { dead[row>>6] |= 1 << (uint(row) & 63) }

// cloneDead copies the bitmap, growing it to cover nrows.
func cloneDead(dead []uint64, nrows int) []uint64 {
	words := (nrows + 63) / 64
	out := make([]uint64, words)
	copy(out, dead)
	return out
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

// pinLocked pins the current snapshot; the caller holds t.idxMu (read or
// write), coupling the pinned version to the index state read in the
// same critical section.
func (t *Table) pinLocked() *Snap { return t.Pin() }

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
func (t *Table) Tombstones() int { return t.snap.Load().ndead }

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
// values is the reference these kernels are tested against.
func evalPredWindow(p Pred, w *window, n int, sel []uint64) {
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
