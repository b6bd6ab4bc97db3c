package storage

import "slices"

// chunk is one column's typed vector of up to ChunkRows cells (see
// DESIGN.md §15). The column's declared Kind — every stored value is
// already Coerced to it — selects the one payload slice in use:
// INTEGER and FLOAT cost 8 bytes a cell, BOOLEAN 1, TEXT a 16-byte
// string header plus its bytes. A NULL cell holds the payload's zero
// value and is marked in the chunk's null set, which is nil while the
// chunk holds no NULL. A nil *chunk is all-NULL: the unfilled-expansion
// representation, and the only one a KindNull column ever has.
//
// The null set has two encodings because of the tail's published-length
// trick. A sealed chunk is immutable, so its nulls are a packed bitmap
// (nulls). The tail is appended to in place while pinned readers scan the
// rows below their own length: a bitmap would have an Insert OR a bit
// into a word such a reader is loading, so the tail marks NULLs with one
// byte per row (flags) — distinct rows, distinct memory locations — and
// sealTail packs them. BOOLEAN payloads stay []bool for the same reason.
//
// A published chunk's slice headers never change. A tail's payload and
// flags are allocated at full capacity (len == cap) and the owning
// version's row count is the valid prefix; anything that needs a longer
// payload or a null set the tail lacks builds a new chunk struct.
//
// A write into cells a chunk already holds — SetBatch, Set — does not
// copy the payload: it publishes a copy of the chunk struct carrying a
// patch, the written cells by offset, which replace the payload's. A
// patch is immutable and holds at most patchCells cells; the write that
// would pass that folds payload, patch and write into a fresh chunk. The
// payload under a patch is shared with the chunk the write replaced, so a
// patched tail still takes Inserts in place. Every read goes through a
// patch-aware funnel: at (and locate) for a cell, window for a scan —
// predicates run over the payload and re-test the patched rows; a
// projected patched window is folded into the window's scratch — and the
// snapshot writer, the compactor and sealTail see and write folded
// chunks, so no patch outlives its table's memory.
type chunk struct {
	kind   Kind
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	nulls  []uint64 // sealed chunks: bit i set ↔ cell i is NULL
	flags  []bool   // tails: flags[i] ↔ cell i is NULL
	p      *patch   // cells written since the payload was copied; nil when none
}

// patchCells bounds a patch: past it a write folds, so the fold's copy of
// a whole chunk is paid once per patchCells cells written — ≤ 512 bytes a
// cell for an INTEGER or FLOAT chunk — and a scan re-tests at most
// patchCells rows a window. It is a constant, not a knob.
const patchCells = ChunkRows / 64

// patch is the overlay a chunk's written cells live in: cell j of cells
// replaces cell offs[j] of the payload.
type patch struct {
	offs []uint16 // ascending, distinct
	// cells holds len(offs) cells, a NULL one with the zero payload and
	// its bit set in nulls — nil while none is NULL, and a published
	// patch's in the first word.
	cells chunk
}

// newChunk allocates a chunk of n zero cells with no null set.
func newChunk(kind Kind, n int) *chunk {
	c := &chunk{kind: kind}
	switch kind {
	case KindInt:
		c.ints = make([]int64, n)
	case KindFloat:
		c.floats = make([]float64, n)
	case KindBool:
		c.bools = make([]bool, n)
	case KindText:
		c.strs = make([]string, n)
	}
	return c
}

// len returns the payload length: exactly ChunkRows for a sealed chunk,
// the capacity for a tail.
func (c *chunk) len() int {
	switch c.kind {
	case KindInt:
		return len(c.ints)
	case KindFloat:
		return len(c.floats)
	case KindBool:
		return len(c.bools)
	case KindText:
		return len(c.strs)
	}
	return 0
}

func hasBit(words []uint64, i int) bool { return words[i>>6]&(1<<(uint(i)&63)) != 0 }

// isNull reports whether cell i of the payload is NULL, the patch aside.
func (c *chunk) isNull(i int) bool {
	if c.nulls != nil {
		return hasBit(c.nulls, i)
	}
	return c.flags != nil && c.flags[i]
}

// locate returns where cell i of c is read: in c's patch when it replaces
// the cell, in c's payload otherwise.
func (c *chunk) locate(i int) (*chunk, int) {
	if c.p != nil {
		if j, ok := slices.BinarySearch(c.p.offs, uint16(i)); ok {
			return &c.p.cells, j
		}
	}
	return c, i
}

// patched returns the span [lo, hi) of c's patch entries that replace
// cells in [off, off+n); lo == hi when none does.
func (c *chunk) patched(off, n int) (lo, hi int) {
	if c == nil || c.p == nil {
		return 0, 0
	}
	lo, _ = slices.BinarySearch(c.p.offs, uint16(off))
	hi, _ = slices.BinarySearch(c.p.offs, uint16(off+n))
	return lo, hi
}

// at boxes cell i, patch applied — the point-read path (Get, index keys,
// the compactor).
func (c *chunk) at(i int) Value {
	c, i = c.locate(i)
	if c.isNull(i) {
		return Value{}
	}
	switch c.kind {
	case KindInt:
		return Value{kind: KindInt, i: c.ints[i]}
	case KindFloat:
		return Value{kind: KindFloat, f: c.floats[i]}
	case KindBool:
		return Value{kind: KindBool, b: c.bools[i]}
	case KindText:
		return Value{kind: KindText, s: c.strs[i]}
	}
	return Value{}
}

// put stores val's payload (the zero payload for NULL) in cell i; the
// caller maintains the null set.
func (c *chunk) put(i int, val Value) {
	switch c.kind {
	case KindInt:
		c.ints[i] = val.i
	case KindFloat:
		c.floats[i] = val.f
	case KindBool:
		c.bools[i] = val.b
	case KindText:
		c.strs[i] = val.s
	}
}

// copyPayload copies the first n cells of src's payload into c.
func (c *chunk) copyPayload(src *chunk, n int) {
	switch c.kind {
	case KindInt:
		copy(c.ints, src.ints[:n])
	case KindFloat:
		copy(c.floats, src.floats[:n])
	case KindBool:
		copy(c.bools, src.bools[:n])
	case KindText:
		copy(c.strs, src.strs[:n])
	}
}

// growTail returns a new tail struct of the given capacity holding the
// first n cells of old (nil = n NULLs), with a flags array when any of
// them is NULL or withFlags asks for it. When old already has the
// capacity the payload and patch are shared, not copied — the case of a
// first NULL arriving in a tail that had no flags; otherwise old is
// folded into the new payload.
func growTail(kind Kind, old *chunk, n, capacity int, withFlags bool) *chunk {
	if old == nil || old.len() < capacity {
		t := fold(kind, old, n, capacity)
		if withFlags && t.flags == nil {
			t.flags = make([]bool, capacity)
		}
		return t
	}
	t := *old
	if withFlags && t.flags == nil {
		t.flags = make([]bool, t.len())
	}
	return &t
}

// fold returns a chunk of capacity cells whose first n are the cells of c
// (nil = all-NULL) as read, patch applied, in a payload of its own, with
// flags marking the NULLs — none when no cell is NULL.
func fold(kind Kind, c *chunk, n, capacity int) *chunk {
	f := newChunk(kind, capacity)
	if c == nil {
		if n > 0 {
			f.flags = make([]bool, capacity)
			for i := range f.flags[:n] {
				f.flags[i] = true
			}
		}
		return f
	}
	f.copyPayload(c, n)
	if c.nulls != nil || c.flags != nil || c.p != nil && c.p.cells.nulls != nil {
		f.flags = make([]bool, capacity)
		for i := range f.flags[:n] {
			f.flags[i] = c.isNull(i)
		}
	}
	if c.p != nil {
		for j, off := range c.p.offs {
			f.set(int(off), c.p.cells.at(j))
		}
	}
	return f
}

// set stores val in cell i, payload and null set: the write into a chunk
// no reader has seen yet.
func (c *chunk) set(i int, val Value) {
	c.put(i, val)
	if c.flags != nil {
		c.flags[i] = val.IsNull()
	}
}

// appendTail extends a column's tail (published length n) with val and
// returns the tail to publish: the same struct, written in place past
// every published length, when capacity and null set allow — safe
// because no published version indexes past its own length — and a
// reallocated one (doubling, capped at ChunkRows) otherwise. An all-NULL
// tail stays nil.
func appendTail(kind Kind, tail *chunk, n int, val Value) *chunk {
	null := val.IsNull()
	if tail == nil && null {
		return nil
	}
	full := tail == nil || tail.len() == n
	if full || (null && tail.flags == nil) {
		capacity := n + 1 // room is there; only the flags are missing
		if full {
			capacity = 2 * n
			if capacity < 64 {
				capacity = 64
			}
			if capacity > ChunkRows {
				capacity = ChunkRows
			}
			if capacity < n+1 {
				capacity = n + 1
			}
		}
		tail = growTail(kind, tail, n, capacity, null)
	}
	if null {
		tail.flags[n] = true
	} else {
		tail.put(n, val)
	}
	return tail
}

// sealTail turns a full tail into an immutable sealed chunk: the payload
// array is shared as is (a patched tail is folded first), the byte flags
// are packed into a bitmap (nil when no cell is NULL), and an all-NULL
// chunk collapses to nil.
func sealTail(t *chunk) *chunk {
	if t == nil {
		return nil
	}
	if t.p != nil {
		t = fold(t.kind, t, t.len(), t.len()) // the payload is shared with older tails
	}
	s := *t
	s.flags = nil
	if t.flags != nil {
		n := t.len()
		nulls := make([]uint64, (n+63)/64)
		switch packFlags(nulls, t.flags[:n]) {
		case n:
			return nil
		case 0:
		default:
			s.nulls = nulls
		}
	}
	return &s
}

// packFlags ORs flags into the bitmap dst (bit i ↔ flags[i]) and returns
// how many were set.
func packFlags(dst []uint64, flags []bool) int {
	set := 0
	for i, f := range flags {
		if f {
			dst[i>>6] |= 1 << (uint(i) & 63)
			set++
		}
	}
	return set
}

// withCells returns old (nil = all-NULL), whose first n cells are valid
// and whose first cell is physical row base, with cell rows[j]-base
// replaced by vals[j] for every position j in run (ascending rows) —
// SetBatch's write into one chunk or tail. A write that keeps the patch
// within patchCells publishes old's payload again under a merged patch;
// any other folds old and the write into a fresh chunk — of old's
// capacity, so a tail keeps taking Inserts in place — sealed again when it
// replaces a sealed chunk.
func withCells(kind Kind, old *chunk, n, base int, rows []int, vals []Value, run []int, sealed bool) *chunk {
	if old != nil && len(run) <= patchCells {
		if p := old.p.with(kind, base, rows, vals, run); len(p.offs) <= patchCells {
			c := *old
			c.p = p
			return &c
		}
	}
	anyNull, allNull := false, true
	for _, j := range run {
		null := vals[j].IsNull()
		anyNull, allNull = anyNull || null, allNull && null
	}
	if old == nil && allNull {
		return nil
	}
	capacity := n
	if old != nil {
		capacity = old.len()
	}
	c := fold(kind, old, n, capacity)
	if anyNull && c.flags == nil {
		c.flags = make([]bool, capacity)
	}
	for _, j := range run {
		c.set(rows[j]-base, vals[j])
	}
	if sealed {
		return sealTail(c)
	}
	return c
}

// with returns a new patch holding p's cells (nil = none) merged with the
// write of vals[j] to offset rows[j]-base for every j in run, the write
// winning where both hold an offset.
func (p *patch) with(kind Kind, base int, rows []int, vals []Value, run []int) *patch {
	var offs []uint16
	var cells *chunk
	if p != nil {
		offs, cells = p.offs, &p.cells
	}
	m := len(offs) + len(run)
	np := &patch{offs: make([]uint16, 0, m), cells: *newChunk(kind, m)}
	add := func(off int, val Value) {
		k := len(np.offs)
		np.offs = append(np.offs, uint16(off))
		np.cells.put(k, val)
		if val.IsNull() {
			if np.cells.nulls == nil {
				np.cells.nulls = make([]uint64, (m+63)/64)
			}
			np.cells.nulls[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	a := 0
	for _, j := range run {
		off := rows[j] - base
		for ; a < len(offs) && int(offs[a]) <= off; a++ {
			if int(offs[a]) < off {
				add(int(offs[a]), cells.at(a))
			}
		}
		add(off, vals[j])
	}
	for ; a < len(offs); a++ {
		add(int(offs[a]), cells.at(a))
	}
	return np
}

// colBuilder re-chunks a whole column of rows values appended in physical
// order — the compaction path. Nothing it holds is
// published yet, so it writes its tail in place, allocated once at its
// final size.
type colBuilder struct {
	kind Kind
	rows int // total rows the column will hold
	cd   colData
	done int // rows appended so far
}

func (b *colBuilder) append(val Value) {
	n := b.done % ChunkRows
	t := b.cd.tail
	switch null := val.IsNull(); {
	case t == nil && null: // still all-NULL
	case t == nil:
		t = growTail(b.kind, nil, n, min(b.rows-(b.done-n), ChunkRows), false)
		b.cd.tail = t
		t.put(n, val)
	case null:
		if t.flags == nil {
			t.flags = make([]bool, t.len())
		}
		t.flags[n] = true
	default:
		t.put(n, val)
	}
	b.done++
	if n+1 == ChunkRows {
		b.cd.chunks = append(b.cd.chunks, sealTail(t))
		b.cd.tail = nil
	}
}

// layOut turns a fill vector — one typed cell per live row of v, in row
// order, NULL cells zero — into the column's data over v's physical rows,
// in the same representation colBuilder would give: a chunk with no NULL
// has no null set, an all-NULL chunk is nil, tombstoned rows are NULL.
// Without tombstones the chunks are capacity-limited views of the vector's
// own payload and null words; otherwise the cells are first spread over
// their physical positions.
func (v *version) layOut(vec *Vector) colData {
	cd := colData{chunks: make([]*chunk, v.sealed/ChunkRows)}
	if vec.Kind == KindNull {
		return cd
	}
	flat := vec.payload()
	words := (v.nrows + 63) / 64
	if v.ndead() > 0 {
		flat = *newChunk(vec.Kind, v.nrows)
		flat.nulls = make([]uint64, words)
		li := 0
		for i := 0; i < v.nrows; i++ {
			if !v.isDead(i) {
				// Boxed on the stack, and only on this path: a fill over tombstones.
				if val := vec.Value(li); !val.IsNull() {
					flat.put(i, val)
					li++
					continue
				}
				li++
			}
			flat.nulls[i>>6] |= 1 << (uint(i) & 63)
		}
	} else if n := len(flat.nulls); n != 0 && n < words {
		flat.nulls = append(flat.nulls, make([]uint64, words-n)...) // a vector's bitmap may stop after its last NULL
	}
	for lo := 0; lo < v.nrows; lo += ChunkRows {
		hi := min(lo+ChunkRows, v.nrows)
		nulls := countBits(flat.nulls, lo, hi)
		if nulls == hi-lo {
			continue // nil: all-NULL
		}
		c := &chunk{kind: flat.kind}
		switch flat.kind {
		case KindInt:
			c.ints = flat.ints[lo:hi:hi]
		case KindFloat:
			c.floats = flat.floats[lo:hi:hi]
		case KindBool:
			c.bools = flat.bools[lo:hi:hi]
		case KindText:
			c.strs = flat.strs[lo:hi:hi]
		}
		if lo >= v.sealed {
			if nulls > 0 {
				c.flags = make([]bool, hi-lo)
				for i := range c.flags {
					c.flags[i] = hasBit(flat.nulls, lo+i)
				}
			}
			cd.tail = c
			break
		}
		if nulls > 0 {
			c.nulls = flat.nulls[lo>>6 : hi>>6 : hi>>6] // ChunkRows is a whole number of words
		}
		cd.chunks[lo/ChunkRows] = c
	}
	return cd
}

// payload views a typed vector's cells and null words as a chunk.
func (v *Vector) payload() chunk {
	return chunk{kind: v.Kind, ints: v.Ints, floats: v.Floats, bools: v.Bools, strs: v.Strs, nulls: v.Nulls}
}

// cellBytes is a column kind's resident bytes per cell, text payload
// excluded — the unit of the compaction bytes-freed accounting.
func cellBytes(kind Kind) int64 {
	switch kind {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindText:
		return 16
	}
	return 0
}

// window is the cursor's view of one column over the physical rows of
// one storage window: cells c[off], c[off+1], … with a null bitmap
// re-based so that bit i ↔ row off+i. A nil c is an all-NULL window; nil
// nulls means the window holds no NULL.
type window struct {
	c     *chunk
	off   int
	nulls []uint64
	// scratch backs nulls when the chunk's own bitmap cannot be sliced:
	// tail flags are packed into it, a window that does not start on a
	// word boundary gets a shifted copy, and a patched window the patch's
	// NULLs.
	scratch []uint64
	// folded holds a patched window's cells, patch applied, once vector
	// asks for them; nil until a window of the cursor is patched.
	folded *chunk
}

// setNulls derives the window's null bitmap for n rows starting at off.
func (w *window) setNulls(n int) {
	c := w.c
	w.nulls = nil
	plo, phi := c.patched(w.off, n)
	if c == nil {
		return
	}
	patchNulls := phi > plo && c.p.cells.nulls != nil
	if c.nulls == nil && c.flags == nil && !patchNulls {
		return
	}
	if c.nulls != nil && w.off&63 == 0 && phi == plo {
		w.nulls = c.nulls[w.off>>6:]
		return
	}
	words := (n + 63) / 64
	if cap(w.scratch) < words {
		w.scratch = make([]uint64, words)
	}
	w.nulls = w.scratch[:words]
	clear(w.nulls)
	switch {
	case c.flags != nil:
		packFlags(w.nulls, c.flags[w.off:w.off+n])
	case c.nulls != nil && w.off&63 == 0: // aligned, but patched
		copy(w.nulls, c.nulls[w.off>>6:])
	case c.nulls != nil:
		for i := 0; i < n; i++ {
			if c.isNull(w.off + i) {
				w.nulls[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	for j := plo; j < phi; j++ {
		i := int(c.p.offs[j]) - w.off
		if c.p.cells.isNull(j) {
			w.nulls[i>>6] |= 1 << (uint(i) & 63)
		} else {
			w.nulls[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
}

// vector points dst at the window's n cells: a zero-copy view, Pinned
// unless the null bitmap had to be built in the window's scratch or the
// window is patched — then the cells are folded into the window's own
// buffer, reused from window to window.
func (w *window) vector(n int, dst *Vector) {
	c := w.c
	*dst = Vector{Nulls: w.nulls, Pinned: len(w.nulls) == 0 || c.nulls != nil && w.off&63 == 0}
	if c == nil {
		return
	}
	off := w.off
	if plo, phi := c.patched(off, n); phi > plo {
		c, off = w.fold(n, plo, phi), 0
		dst.Pinned = false
	}
	dst.Kind = c.kind
	switch c.kind {
	case KindInt:
		dst.Ints = c.ints[off : off+n : off+n]
	case KindFloat:
		dst.Floats = c.floats[off : off+n : off+n]
	case KindBool:
		dst.Bools = c.bools[off : off+n : off+n]
	case KindText:
		dst.Strs = c.strs[off : off+n : off+n]
	}
}

// fold copies the window's n payload cells into w.folded and lays the
// patch entries [plo, phi), those that fall in the window, over them.
func (w *window) fold(n, plo, phi int) *chunk {
	if w.folded == nil {
		w.folded = &chunk{}
	}
	c, f := w.c, w.folded
	offs, cells := c.p.offs[plo:phi], &c.p.cells
	f.kind = c.kind
	switch c.kind {
	case KindInt:
		f.ints = foldCells(f.ints, c.ints[w.off:w.off+n], offs, cells.ints[plo:], w.off)
	case KindFloat:
		f.floats = foldCells(f.floats, c.floats[w.off:w.off+n], offs, cells.floats[plo:], w.off)
	case KindBool:
		f.bools = foldCells(f.bools, c.bools[w.off:w.off+n], offs, cells.bools[plo:], w.off)
	case KindText:
		f.strs = foldCells(f.strs, c.strs[w.off:w.off+n], offs, cells.strs[plo:], w.off)
	}
	return f
}

// foldCells copies payload into dst (reallocated only to grow) and writes
// patched[j] over cell offs[j]-base of it.
func foldCells[T any](dst, payload []T, offs []uint16, patched []T, base int) []T {
	dst = resize(dst, len(payload))
	copy(dst, payload)
	for j, off := range offs {
		dst[int(off)-base] = patched[j]
	}
	return dst
}

// gather copies column col of the given physical rows into dst, typed —
// the index cursor's path, where the rows are scattered over chunks. dst
// is the cursor's own vector, reused from batch to batch.
func (v *version) gather(col int, rows []int, dst *Vector) {
	n := len(rows)
	dst.Kind = v.schema.Column(col).Kind
	dst.Nulls = dst.Nulls[:0]
	switch dst.Kind {
	case KindInt:
		dst.Ints = resize(dst.Ints, n)
		for k, row := range rows {
			if c, i := v.read(row, col); c != nil && !c.isNull(i) {
				dst.Ints[k] = c.ints[i]
			} else {
				dst.Ints[k] = 0
				dst.MarkNull(k)
			}
		}
	case KindFloat:
		dst.Floats = resize(dst.Floats, n)
		for k, row := range rows {
			if c, i := v.read(row, col); c != nil && !c.isNull(i) {
				dst.Floats[k] = c.floats[i]
			} else {
				dst.Floats[k] = 0
				dst.MarkNull(k)
			}
		}
	case KindBool:
		dst.Bools = resize(dst.Bools, n)
		for k, row := range rows {
			if c, i := v.read(row, col); c != nil && !c.isNull(i) {
				dst.Bools[k] = c.bools[i]
			} else {
				dst.Bools[k] = false
				dst.MarkNull(k)
			}
		}
	case KindText:
		dst.Strs = resize(dst.Strs, n)
		for k, row := range rows {
			if c, i := v.read(row, col); c != nil && !c.isNull(i) {
				dst.Strs[k] = c.strs[i]
			} else {
				dst.Strs[k] = ""
				dst.MarkNull(k)
			}
		}
	}
}

// resize returns s with length n, reallocating only when it must grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
