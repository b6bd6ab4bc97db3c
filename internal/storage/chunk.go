package storage

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
type chunk struct {
	kind   Kind
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	nulls  []uint64 // sealed chunks: bit i set ↔ cell i is NULL
	flags  []bool   // tails: flags[i] ↔ cell i is NULL
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

func (c *chunk) isNull(i int) bool {
	if c.nulls != nil {
		return hasBit(c.nulls, i)
	}
	return c.flags != nil && c.flags[i]
}

// at boxes cell i — the point-read path (Get, index keys, CaptureState).
func (c *chunk) at(i int) Value {
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
// first n cells of old (nil = n NULLs), with a flags array when old has
// one, old is nil with n > 0, or withFlags asks for it. When old already
// has the capacity the payload is shared, not copied — the case of a
// first NULL arriving in a tail that had no flags.
func growTail(kind Kind, old *chunk, n, capacity int, withFlags bool) *chunk {
	var t *chunk
	if old != nil && old.len() >= capacity {
		cp := *old
		t = &cp
		capacity = old.len()
	} else {
		t = newChunk(kind, capacity)
		if old != nil {
			t.copyPayload(old, n)
		}
	}
	needFlags := withFlags || (old == nil && n > 0) || (old != nil && old.flags != nil)
	if needFlags && len(t.flags) < capacity {
		flags := make([]bool, capacity)
		if old == nil {
			for i := range flags[:n] {
				flags[i] = true
			}
		} else if old.flags != nil {
			copy(flags, old.flags[:n])
		}
		t.flags = flags
	}
	return t
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
// array is shared as is, the byte flags are packed into a bitmap (nil
// when no cell is NULL), and an all-NULL chunk collapses to nil.
func sealTail(t *chunk) *chunk {
	if t == nil {
		return nil
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

// withCells returns a copy of the first n cells of old (nil = all-NULL),
// the chunk starting at physical row base, with cell rows[j]-base replaced
// by vals[j] for every position j in run — SetBatch's one copy of a chunk,
// sealed again when it replaces a sealed chunk.
func withCells(kind Kind, old *chunk, n, base int, rows []int, vals []Value, run []int, sealed bool) *chunk {
	anyNull, allNull := false, true
	for _, j := range run {
		null := vals[j].IsNull()
		anyNull, allNull = anyNull || null, allNull && null
	}
	if old == nil && allNull {
		return nil
	}
	c := newChunk(kind, n)
	if old != nil {
		c.copyPayload(old, n)
	}
	if anyNull || old == nil || old.nulls != nil || old.flags != nil {
		c.flags = make([]bool, n)
		for i := range c.flags {
			c.flags[i] = old == nil || old.isNull(i)
		}
	}
	for _, j := range run {
		i := rows[j] - base
		c.put(i, vals[j])
		if c.flags != nil {
			c.flags[i] = vals[j].IsNull()
		}
	}
	if sealed {
		return sealTail(c)
	}
	return c
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
	// tail flags are packed into it, and a window that does not start on a
	// word boundary gets a shifted copy.
	scratch []uint64
}

// setNulls derives the window's null bitmap for n rows starting at off.
func (w *window) setNulls(n int) {
	c := w.c
	w.nulls = nil
	if c == nil || (c.nulls == nil && c.flags == nil) {
		return
	}
	if c.nulls != nil && w.off&63 == 0 {
		w.nulls = c.nulls[w.off>>6:]
		return
	}
	words := (n + 63) / 64
	if cap(w.scratch) < words {
		w.scratch = make([]uint64, words)
	}
	w.nulls = w.scratch[:words]
	clear(w.nulls)
	if c.flags != nil {
		packFlags(w.nulls, c.flags[w.off:w.off+n])
		return
	}
	for i := 0; i < n; i++ {
		if c.isNull(w.off + i) {
			w.nulls[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// vector points dst at the window's n cells: a zero-copy view, Pinned
// unless the null bitmap had to be built in the window's scratch.
func (w *window) vector(n int, dst *Vector) {
	c := w.c
	*dst = Vector{Nulls: w.nulls, Pinned: len(w.nulls) == 0 || c.nulls != nil && w.off&63 == 0}
	if c == nil {
		return
	}
	dst.Kind = c.kind
	switch c.kind {
	case KindInt:
		dst.Ints = c.ints[w.off : w.off+n : w.off+n]
	case KindFloat:
		dst.Floats = c.floats[w.off : w.off+n : w.off+n]
	case KindBool:
		dst.Bools = c.bools[w.off : w.off+n : w.off+n]
	case KindText:
		dst.Strs = c.strs[w.off : w.off+n : w.off+n]
	}
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
			if c, i := v.cell(row, col); c != nil && !c.isNull(i) {
				dst.Ints[k] = c.ints[i]
			} else {
				dst.Ints[k] = 0
				dst.MarkNull(k)
			}
		}
	case KindFloat:
		dst.Floats = resize(dst.Floats, n)
		for k, row := range rows {
			if c, i := v.cell(row, col); c != nil && !c.isNull(i) {
				dst.Floats[k] = c.floats[i]
			} else {
				dst.Floats[k] = 0
				dst.MarkNull(k)
			}
		}
	case KindBool:
		dst.Bools = resize(dst.Bools, n)
		for k, row := range rows {
			if c, i := v.cell(row, col); c != nil && !c.isNull(i) {
				dst.Bools[k] = c.bools[i]
			} else {
				dst.Bools[k] = false
				dst.MarkNull(k)
			}
		}
	case KindText:
		dst.Strs = resize(dst.Strs, n)
		for k, row := range rows {
			if c, i := v.cell(row, col); c != nil && !c.isNull(i) {
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
