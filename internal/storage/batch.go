package storage

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Batch is the unit the read path hands upward: a set of column vectors
// sharing one index space [0, N) and a selection vector naming the cells
// that are rows of the batch, in emission order. Cursors produce one batch
// per storage window (at most ChunkRows cells); the executor's operators
// pass batches on, narrowing Sel or replacing vectors, and rows are boxed
// into Values by whoever finally needs rows (AppendRows, RowsOf) — the
// embedded API's callers; the server encodes from the vectors.
//
// Ownership: a batch and everything it references belong to its producer.
// A consumer may read it until it asks the producer for the next batch
// and must never write through Sel or a vector. Vectors marked Pinned are
// views of immutable snapshot storage and stay valid for as long as the
// snapshot pin is held; all other vectors (and every Sel) are the
// producer's scratch, overwritten by its next batch. What outlives the
// producer — a materialized result, a cache entry — is an owned batch
// (AppendOwned): a copy of the selected cells that references no producer
// and no pin, immutable from the moment it is shared.
//
// A batch that comes from a cursor, directly or through a Filter or a
// Gather above it, also says which physical row each cell is: cell i is
// row IDs[i] when IDs is set (the index form's gathered rows), row Lo+i
// otherwise (the scan form's window). That is how UPDATE and DELETE learn
// the rows their WHERE found; other operators leave both zero.
type Batch struct {
	N    int      // cells per vector
	Sel  []int32  // selected cells, each in [0, N)
	Cols []Vector // the columns the reader asked for, in the order asked
	Lo   int      // physical row of cell 0 when IDs is nil
	IDs  []int    // physical row of every cell, or nil
}

// RowID returns the physical row ID of cell i (see Batch).
func (b *Batch) RowID(i int) int {
	if b.IDs != nil {
		return b.IDs[i]
	}
	return b.Lo + i
}

// Vector is one column of a batch. Cells are stored typed — the payload
// slice matching Kind, with NULL cells marked in Nulls (bit i ↔ cell i;
// nil or short means "no NULL there") and holding the zero payload —
// unless Vals is non-nil: then the cells are boxed Values of possibly
// mixed kinds (computed expressions, aggregate results) and Kind, the
// typed payloads and Nulls are unused. Kind == KindNull without Vals is
// an all-NULL column: an unfilled expansion costs nothing to read.
type Vector struct {
	Kind Kind
	// Pinned marks a zero-copy view of snapshot storage (see Batch).
	Pinned bool
	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string
	Nulls  []uint64
	Vals   []Value

	nullCells int // cells held while Kind is KindNull: there is no payload to measure
}

// identity backs IdentitySel.
var identity = func() (s [ChunkRows]int32) {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// IdentitySel returns the selection 0, 1, …, n-1 (n ≤ ChunkRows) — every
// cell selected — as a view of one shared read-only array.
func IdentitySel(n int) []int32 { return identity[:n:n] }

// AllSelected reports whether the batch's selection is IdentitySel(N)
// itself: every cell a row, in order, and nothing of Sel to copy for
// whoever keeps the batch.
func (b *Batch) AllSelected() bool {
	return len(b.Sel) == b.N && (b.N == 0 || &b.Sel[0] == &identity[0])
}

// Len returns the number of cells held. It is meaningful for vectors
// built with AppendCells/AppendValue; a cursor's views are measured by
// their batch's N.
func (v *Vector) Len() int {
	if v.Vals != nil {
		return len(v.Vals)
	}
	switch v.Kind {
	case KindInt:
		return len(v.Ints)
	case KindFloat:
		return len(v.Floats)
	case KindBool:
		return len(v.Bools)
	case KindText:
		return len(v.Strs)
	}
	return v.nullCells
}

// IsNull reports whether cell i of a typed vector is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.Kind == KindNull {
		return true
	}
	w := i >> 6
	return w < len(v.Nulls) && v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// Value boxes cell i.
func (v *Vector) Value(i int) Value {
	if v.Vals != nil {
		return v.Vals[i]
	}
	if v.IsNull(i) {
		return Value{}
	}
	switch v.Kind {
	case KindInt:
		return Value{kind: KindInt, i: v.Ints[i]}
	case KindFloat:
		return Value{kind: KindFloat, f: v.Floats[i]}
	case KindBool:
		return Value{kind: KindBool, b: v.Bools[i]}
	case KindText:
		return Value{kind: KindText, s: v.Strs[i]}
	}
	return Value{}
}

// Box writes the cells at sel into dst[0], dst[stride], dst[2*stride], …
// — the one place typed cells become Values: one kind switch per column
// per call. A non-NULL typed cell stores just the kind and its payload
// field (two words instead of five, and no pointer write for the numeric
// kinds) and a NULL resets the whole slot, so every slot of dst must be
// zero or last written by Box from a vector of the same Kind: a fresh
// buffer, or one column of a buffer reused for the same columns.
func (v *Vector) Box(sel []int32, dst []Value, stride int) {
	if v.Vals != nil {
		for k, i := range sel {
			dst[k*stride] = v.Vals[i]
		}
		return
	}
	switch v.Kind {
	case KindInt:
		for k, i := range sel {
			d := &dst[k*stride]
			d.kind, d.i = KindInt, v.Ints[i]
		}
	case KindFloat:
		for k, i := range sel {
			d := &dst[k*stride]
			d.kind, d.f = KindFloat, v.Floats[i]
		}
	case KindBool:
		for k, i := range sel {
			d := &dst[k*stride]
			d.kind, d.b = KindBool, v.Bools[i]
		}
	case KindText:
		for k, i := range sel {
			d := &dst[k*stride]
			d.kind, d.s = KindText, v.Strs[i]
		}
	default:
		for k := range sel {
			dst[k*stride] = Value{}
		}
		return
	}
	if len(v.Nulls) != 0 {
		for k, i := range sel {
			if v.IsNull(int(i)) {
				dst[k*stride] = Value{}
			}
		}
	}
}

// Reset empties a vector an operator owns, keeping its capacity and its
// representation (typed kind or boxed). A view of storage is dropped
// instead: its capacity is not the operator's to append into.
func (v *Vector) Reset() {
	if v.Pinned {
		*v = Vector{}
		return
	}
	v.Ints, v.Floats, v.Bools, v.Strs = v.Ints[:0], v.Floats[:0], v.Bools[:0], v.Strs[:0]
	v.Nulls, v.Vals, v.nullCells = v.Nulls[:0], v.Vals[:0], 0
}

// AppendValue appends one cell. The vector stays typed while every
// non-NULL value appended is of one kind — an aggregate's output column,
// a computed sort key — and turns boxed at the first that is not.
func (v *Vector) AppendValue(val Value) {
	switch {
	case v.Vals != nil:
		v.Vals = append(v.Vals, val)
		return
	case val.kind == KindNull:
		v.appendNulls(v.Len(), 1)
		return
	case v.Kind == KindNull:
		base := v.nullCells
		v.Kind, v.nullCells = val.kind, 0
		v.appendNulls(0, base)
	case v.Kind != val.kind:
		v.toBoxed()
		v.Vals = append(v.Vals, val)
		return
	}
	switch v.Kind {
	case KindInt:
		v.Ints = append(v.Ints, val.i)
	case KindFloat:
		v.Floats = append(v.Floats, val.f)
	case KindBool:
		v.Bools = append(v.Bools, val.b)
	case KindText:
		v.Strs = append(v.Strs, val.s)
	}
}

// AppendCells appends the cells of src at sel — how an operator copies
// what it retains (a join's build rows, a sort's input, a batch crossing
// goroutines) out of a producer's batch. The copy stays typed while src
// is; NULL-only cells appended before the first typed ones are back-filled
// when the kind becomes known.
func (v *Vector) AppendCells(src *Vector, sel []int32) {
	if src.Vals != nil || v.Vals != nil || (v.Kind != KindNull && src.Kind != KindNull && v.Kind != src.Kind) {
		v.toBoxed()
		for _, i := range sel {
			v.Vals = append(v.Vals, src.Value(int(i)))
		}
		return
	}
	base := v.Len()
	if src.Kind == KindNull {
		v.appendNulls(base, len(sel))
		return
	}
	if v.Kind == KindNull {
		v.Kind, v.nullCells = src.Kind, 0
		v.appendNulls(0, base)
	}
	// Grown once for the whole selection: an empty vector ends up with
	// exactly the cells it was given, not append's next power of two.
	switch src.Kind {
	case KindInt:
		v.Ints = slices.Grow(v.Ints, len(sel))
		for _, i := range sel {
			v.Ints = append(v.Ints, src.Ints[i])
		}
	case KindFloat:
		v.Floats = slices.Grow(v.Floats, len(sel))
		for _, i := range sel {
			v.Floats = append(v.Floats, src.Floats[i])
		}
	case KindBool:
		v.Bools = slices.Grow(v.Bools, len(sel))
		for _, i := range sel {
			v.Bools = append(v.Bools, src.Bools[i])
		}
	case KindText:
		v.Strs = slices.Grow(v.Strs, len(sel))
		for _, i := range sel {
			v.Strs = append(v.Strs, src.Strs[i])
		}
	}
	if len(src.Nulls) != 0 {
		for k, i := range sel {
			if src.IsNull(int(i)) {
				v.MarkNull(base + k)
			}
		}
	}
}

// appendNulls appends n NULL cells at position base (== v.Len()).
func (v *Vector) appendNulls(base, n int) {
	switch v.Kind {
	case KindNull:
		v.nullCells += n
		return
	case KindInt:
		v.Ints = append(v.Ints, make([]int64, n)...)
	case KindFloat:
		v.Floats = append(v.Floats, make([]float64, n)...)
	case KindBool:
		v.Bools = append(v.Bools, make([]bool, n)...)
	case KindText:
		v.Strs = append(v.Strs, make([]string, n)...)
	}
	for i := base; i < base+n; i++ {
		v.MarkNull(i)
	}
}

// MarkNull marks cell i of a typed vector NULL; its payload stays what it
// was (zero, by the vector's contract).
func (v *Vector) MarkNull(i int) {
	for len(v.Nulls) <= i>>6 {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

// toBoxed turns a typed vector into a boxed one holding the same cells.
func (v *Vector) toBoxed() {
	if v.Vals != nil {
		return
	}
	n := v.Len()
	vals := make([]Value, n, max(n, 8))
	for i := range vals {
		vals[i] = v.Value(i)
	}
	*v = Vector{Vals: vals}
}

// AppendRows boxes the batch's rows and appends them to dst: one backing
// array for the whole batch, one Row header per row. The rows are fresh
// memory the caller owns.
func (b *Batch) AppendRows(dst []Row) []Row {
	n, w := len(b.Sel), len(b.Cols)
	buf := make([]Value, n*w)
	for c := range b.Cols {
		b.Cols[c].Box(b.Sel, buf[c:], w)
	}
	for k := 0; k < n; k++ {
		dst = append(dst, buf[k*w:(k+1)*w:(k+1)*w])
	}
	return dst
}

// AppendOwned appends the rows of src to dst, a list of owned batches: the
// selected cells are copied once, typed (a boxed vector's too, while its
// cells are of one kind), into vectors that belong to the list, packed
// ChunkRows rows to a batch under the dense selection. An owned batch has
// no Pinned vector and needs no pin, so it may outlive the producer of
// src — and once shared it is never written again.
func AppendOwned(dst []Batch, src *Batch) []Batch {
	for sel := src.Sel; len(sel) > 0; {
		if len(dst) == 0 || dst[len(dst)-1].N == ChunkRows {
			dst = append(dst, Batch{Cols: make([]Vector, len(src.Cols))})
		}
		b := &dst[len(dst)-1]
		take := sel[:min(len(sel), ChunkRows-b.N)]
		for c := range b.Cols {
			if from := &src.Cols[c]; from.Vals == nil {
				b.Cols[c].AppendCells(from, take)
			} else {
				for _, i := range take {
					b.Cols[c].AppendValue(from.Vals[i])
				}
			}
		}
		b.N += len(take)
		b.Sel = IdentitySel(b.N)
		sel = sel[len(take):]
	}
	return dst
}

// BatchesOf turns rows of one width into owned batches: AppendOwned for a
// result that exists only boxed (EXPLAIN's lines, the result cache's
// row-typed adapter).
func BatchesOf(rows []Row) []Batch {
	var out []Batch
	for len(rows) > 0 {
		n := min(len(rows), ChunkRows)
		b := Batch{N: n, Sel: IdentitySel(n), Cols: make([]Vector, len(rows[0]))}
		for _, r := range rows[:n] {
			for c := range b.Cols {
				b.Cols[c].AppendValue(r[c])
			}
		}
		out, rows = append(out, b), rows[n:]
	}
	return out
}

// RowCount returns the number of rows a batch list holds.
func RowCount(batches []Batch) int {
	n := 0
	for i := range batches {
		n += len(batches[i].Sel)
	}
	return n
}

// RowsOf boxes every row of a batch list (nil when there is none).
func RowsOf(batches []Batch) []Row {
	n := RowCount(batches)
	if n == 0 {
		return nil
	}
	rows := make([]Row, 0, n)
	for i := range batches {
		rows = batches[i].AppendRows(rows)
	}
	return rows
}

// Bytes is what an owned batch keeps alive: its header, a header per
// vector and every payload array at its capacity, text included.
func (b *Batch) Bytes() int64 {
	size := int64(unsafe.Sizeof(*b)) + int64(len(b.Cols))*int64(unsafe.Sizeof(Vector{}))
	for c := range b.Cols {
		v := &b.Cols[c]
		size += 8*int64(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls)) + int64(cap(v.Bools)) +
			int64(cap(v.Strs))*int64(unsafe.Sizeof("")) + int64(cap(v.Vals))*int64(unsafe.Sizeof(Value{}))
		for _, s := range v.Strs {
			size += int64(len(s))
		}
		for i := range v.Vals {
			size += int64(len(v.Vals[i].s))
		}
	}
	return size
}

// CopyFloor is a lower bound of what AppendOwned's copy of b's rows adds
// to the Bytes of the batches it lands in, known before anything is
// copied: the selected cells times the width of one, for every typed
// vector. A boxed vector may be copied typed, a cell of any kind, so it
// counts nothing; nor do headers, NULL words, text and growth.
func (b *Batch) CopyFloor() int64 {
	width := 0
	for c := range b.Cols {
		if v := &b.Cols[c]; v.Vals == nil {
			switch v.Kind {
			case KindInt, KindFloat:
				width += 8
			case KindBool:
				width++
			case KindText:
				width += int(unsafe.Sizeof(""))
			}
		}
	}
	return int64(len(b.Sel)) * int64(width)
}

// appendSelected appends the offsets of the set bits of sel to offs.
func appendSelected(offs []int32, sel []uint64) []int32 {
	for wi, w := range sel {
		for ; w != 0; w &= w - 1 {
			offs = append(offs, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return offs
}

// allSelected reports whether sel selects every one of its n rows.
func allSelected(sel []uint64, n int) bool {
	full := n >> 6
	for _, w := range sel[:full] {
		if w != ^uint64(0) {
			return false
		}
	}
	return n&63 == 0 || sel[full] == 1<<uint(n&63)-1
}
