package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The typed column payload: a run of one column's cells as bytes — the
// body of a fill_column or set record (opcodec.go), the coordinates of a
// space record, and one column chunk of a snapshot (snapshot.go).
// Integers are little-endian:
//
//	[0]    kind: the column Kind (KindNull = every cell NULL, no cells)
//	[1]    1 when a null bitmap follows the cells, else 0
//	[2:6]  n, the cell count (uint32)
//	cells  INTEGER/FLOAT  n × 8 bytes (two's complement / IEEE-754 bits)
//	       BOOLEAN        ⌈n/8⌉ bytes, bit i of the section ↔ cell i
//	       TEXT           n × uint32 byte lengths, then the bytes
//	nulls  ⌈n/8⌉ bytes, bit i ↔ cell i is NULL
//
// An encoding is canonical — a payload decodes to one vector and that
// vector encodes to the same bytes — so the decoder rejects what the
// encoder never writes: pad bits, a null bitmap without a NULL, a payload
// under a NULL cell, trailing bytes. Every length is checked against the
// bytes present before anything is allocated for it.

const colHeader = 6

// colCellsSize returns the size of the fixed-width part of the cells
// section of n cells: all of it, or for TEXT the length table.
func colCellsSize(kind Kind, n int) int {
	switch kind {
	case KindInt, KindFloat:
		return 8 * n
	case KindBool:
		return (n + 7) / 8
	case KindText:
		return 4 * n
	}
	return 0
}

// EncodeColumn encodes the first n cells of a typed vector (not a boxed
// one) into a payload of its own. NULL cells must hold the zero payload,
// as conformFill leaves them.
func EncodeColumn(vec *Vector, n int) []byte {
	return AppendColumn(make([]byte, 0, columnSize(vec, n)), vec, n)
}

// columnSize is the length of the payload AppendColumn writes.
func columnSize(vec *Vector, n int) int {
	size := colHeader + colCellsSize(vec.Kind, n)
	if vec.Kind == KindText {
		for _, s := range vec.Strs[:n] {
			size += len(s)
		}
	}
	if vec.Kind != KindNull && countBits(vec.Nulls, 0, n) > 0 {
		size += (n + 7) / 8
	}
	return size
}

// AppendColumn appends the payload of the first n cells of a typed vector
// to b — EncodeColumn over a buffer the caller reuses, which is how a
// checkpoint writes a table's chunks without an allocation per chunk.
func AppendColumn(b []byte, vec *Vector, n int) []byte {
	kind := vec.Kind
	hasNulls := kind != KindNull && countBits(vec.Nulls, 0, n) > 0
	var flag byte
	if hasNulls {
		flag = 1
	}
	b = append(b, byte(kind), flag)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	switch kind {
	case KindInt:
		for _, x := range vec.Ints[:n] {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
	case KindFloat:
		for _, x := range vec.Floats[:n] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	case KindBool:
		at := len(b)
		b = append(b, make([]byte, (n+7)/8)...)
		cells := b[at:]
		for i, x := range vec.Bools[:n] {
			if x {
				cells[i>>3] |= 1 << (uint(i) & 7)
			}
		}
	case KindText:
		for _, s := range vec.Strs[:n] {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		}
		for _, s := range vec.Strs[:n] {
			b = append(b, s...)
		}
	}
	if hasNulls {
		for i := 0; i < (n+7)/8; i++ {
			var w uint64
			if i>>3 < len(vec.Nulls) {
				w = vec.Nulls[i>>3]
			}
			b = append(b, byte(w>>(uint(i&7)*8)))
		}
	}
	return b
}

// DecodeColumn decodes a payload written by EncodeColumn into a vector
// of fresh memory. Errors name the byte offset they were found at.
func DecodeColumn(b []byte) (*Vector, error) {
	bad := func(off int, format string, args ...any) (*Vector, error) {
		return nil, fmt.Errorf("storage: column payload: offset %d: %s", off, fmt.Sprintf(format, args...))
	}
	if len(b) < colHeader {
		return bad(len(b), "header cut short (%d of %d bytes)", len(b), colHeader)
	}
	kind := Kind(b[0])
	if kind > KindText {
		return bad(0, "unknown kind %d", b[0])
	}
	if b[1] > 1 || (kind == KindNull && b[1] != 0) {
		return bad(1, "null-bitmap flag %d on a %s column", b[1], kind)
	}
	hasNulls := b[1] == 1
	// n is below 2^32 and a cell at most 8 bytes wide: none of the sizes
	// below overflows an int.
	n := int(binary.LittleEndian.Uint32(b[2:]))
	want := colHeader + colCellsSize(kind, n)
	bitmapAt, textAt := want, want
	if kind == KindText {
		if len(b) < want {
			return bad(len(b), "%d cells need a %d-byte length table", n, 4*n)
		}
		for i := 0; i < n; i++ {
			want += int(binary.LittleEndian.Uint32(b[colHeader+4*i:]))
		}
		bitmapAt = want
	}
	if hasNulls {
		want += (n + 7) / 8
	}
	if len(b) != want {
		return bad(min(len(b), want), "%d %s cells take %d bytes, payload has %d", n, kind, want, len(b))
	}

	vec := &Vector{Kind: kind}
	cells := b[colHeader:]
	switch kind {
	case KindNull:
		vec.nullCells = n
	case KindInt:
		vec.Ints = make([]int64, n)
		for i := range vec.Ints {
			vec.Ints[i] = int64(binary.LittleEndian.Uint64(cells[8*i:]))
		}
	case KindFloat:
		vec.Floats = make([]float64, n)
		for i := range vec.Floats {
			vec.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*i:]))
		}
	case KindBool:
		if n&7 != 0 && cells[n>>3]>>(uint(n)&7) != 0 {
			return bad(colHeader+n>>3, "pad bits set after cell %d", n-1)
		}
		vec.Bools = make([]bool, n)
		for i := range vec.Bools {
			vec.Bools[i] = cells[i>>3]&(1<<(uint(i)&7)) != 0
		}
	case KindText:
		vec.Strs = make([]string, n)
		text := string(b[textAt:bitmapAt]) // one copy; the cells are views of it
		for i := range vec.Strs {
			l := int(binary.LittleEndian.Uint32(cells[4*i:]))
			vec.Strs[i], text = text[:l], text[l:]
		}
	}
	if !hasNulls {
		return vec, nil
	}
	bitmap := b[bitmapAt:]
	if n&7 != 0 && bitmap[n>>3]>>(uint(n)&7) != 0 {
		return bad(bitmapAt+n>>3, "pad bits set after null bit %d", n-1)
	}
	vec.Nulls = make([]uint64, (n+63)/64)
	for i, x := range bitmap {
		vec.Nulls[i>>3] |= uint64(x) << (uint(i&7) * 8)
	}
	if countBits(vec.Nulls, 0, n) == 0 {
		return bad(bitmapAt, "null bitmap without a NULL")
	}
	for i := 0; i < n; i++ {
		if vec.IsNull(i) && !vec.zeroCell(i) {
			return bad(bitmapAt+i>>3, "cell %d is NULL and holds a value", i)
		}
	}
	return vec, nil
}

// zeroCell reports whether cell i of a typed vector holds the zero
// payload (by bits: −0.0 is not zero).
func (v *Vector) zeroCell(i int) bool {
	switch v.Kind {
	case KindInt:
		return v.Ints[i] == 0
	case KindFloat:
		return math.Float64bits(v.Floats[i]) == 0
	case KindBool:
		return !v.Bools[i]
	case KindText:
		return v.Strs[i] == ""
	}
	return true
}

// countBits counts the set bits lo ≤ i < hi of a bitmap whose missing
// words are zero.
func countBits(words []uint64, lo, hi int) int {
	n := 0
	for w := lo >> 6; w<<6 < hi && w < len(words); w++ {
		x := words[w]
		if base := w << 6; base < lo {
			x &^= 1<<uint(lo-base) - 1
		}
		if end := w<<6 + 64; end > hi {
			x &= 1<<uint(hi-w<<6) - 1
		}
		n += bits.OnesCount64(x)
	}
	return n
}
