package exec

import (
	"math/bits"

	"crowddb/internal/storage"
)

// keyTable numbers distinct uint64 keys 0, 1, 2, … in insertion order: the
// hash structure behind GROUP BY and the equi-join when the key is one
// INTEGER, FLOAT or BOOLEAN column, whose 8-byte payload is the key —
// nothing is encoded, no string kept, no Go map involved. Open addressing
// with linear probing over a power-of-two slot array at most half full; a
// slot holds a key's number plus one, and the keys sit in a dense array by
// number. Both arrays grow by doubling, so the table's allocations are
// logarithmic in its keys. Not safe for concurrent insert; once filled it
// is read-only and any number of goroutines may find in it.
type keyTable struct {
	slots []int32  // number+1 of the key hashed here, 0 while empty
	keys  []uint64 // by number
	shift uint     // 64 - log2(len(slots))
}

// home is key's preferred slot: the top bits of a Fibonacci hash, which
// spreads the runs of consecutive integers that ids are.
func (t *keyTable) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> t.shift) }

// find returns key's number, -1 if it was never inserted.
func (t *keyTable) find(key uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	for h, mask := t.home(key), len(t.slots)-1; ; h = (h + 1) & mask {
		if n := t.slots[h] - 1; n < 0 || t.keys[n] == key {
			return n
		}
	}
}

// insert returns key's number, and whether this call gave it one.
func (t *keyTable) insert(key uint64) (int32, bool) {
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	for h, mask := t.home(key), len(t.slots)-1; ; h = (h + 1) & mask {
		n := t.slots[h] - 1
		if n < 0 {
			t.keys = push(t.keys, key)
			t.slots[h] = int32(len(t.keys))
			return int32(len(t.keys) - 1), true
		}
		if t.keys[n] == key {
			return n, false
		}
	}
}

// grow doubles the slot array and puts every key back in.
func (t *keyTable) grow() {
	size := max(16, 2*len(t.slots))
	t.slots, t.shift = make([]int32, size), uint(64-bits.Len(uint(size-1)))
	for n, key := range t.keys {
		h := t.home(key)
		for t.slots[h] != 0 {
			h = (h + 1) & (size - 1)
		}
		t.slots[h] = int32(n + 1)
	}
}

// push appends v, doubling a full slice: append's own growth of a large
// slice allocates five times its final size along the way.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), max(16, 2*len(s)))
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// typedKey reports whether a key — GROUP BY's expressions, or the two
// sides of an equi-join's — takes the keyTable: one bare column a side, of
// declared kind INTEGER, FLOAT or BOOLEAN, the sides comparable as `=`
// compares them. asFloat is set for INTEGER against FLOAT, which meet in
// the float form. Every other shape — TEXT, several columns, a computed
// expression — keeps the byte codec (storage.AppendKey) and a Go map. The
// choice is made once, when the operator is built, from declared kinds.
func typedKey(sides ...*boundExprs) (typed, asFloat bool) {
	var kinds [2]storage.Kind
	for s, side := range sides {
		if len(side.exprs) != 1 || side.slots[0] < 0 {
			return false, false
		}
		kinds[s] = side.kind(0)
	}
	a, b := kinds[0], kinds[len(sides)-1]
	return a == storage.KindBool && b == a || numericKind(a) && numericKind(b), a != b
}

func numericKind(k storage.Kind) bool { return k == storage.KindInt || k == storage.KindFloat }

// cellKey reads cell i of a typed key column as its keyTable key: the
// INTEGER payload, or with asFloat its float form; a FLOAT's bits with -0
// as 0 and every NaN as one; 0 or 1 for a BOOLEAN. ok is false for NULL.
// A base column's vector has its declared kind or, unfilled, none (every
// cell NULL) — never boxed values — so the kind switch is total.
func cellKey(v *storage.Vector, i int, asFloat bool) (key uint64, ok bool) {
	if v.IsNull(i) {
		return 0, false
	}
	switch v.Kind {
	case storage.KindInt:
		if asFloat {
			return storage.FloatKeyBits(float64(v.Ints[i])), true
		}
		return uint64(v.Ints[i]), true
	case storage.KindFloat:
		return storage.FloatKeyBits(v.Floats[i]), true
	}
	if v.Bools[i] {
		return 1, true
	}
	return 0, true
}
