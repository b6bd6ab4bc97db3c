// Package index implements the secondary-index structures of the storage
// layer: a hash index for equality point lookups and an ordered
// (sorted-run) index for range predicates and index-ordered iteration.
// Both support composite keys; the ordered index additionally supports
// per-column DESC directions and key-carrying range probes (the
// index-only-scan hook).
//
// Indexes hold no locks of their own. Every structure in this package is
// mutated and probed exclusively under the owning table's index lock,
// through the storage.ColumnIndex maintenance hooks: the table calls
// Add/Remove/Replace/Rebuild in the same critical section that publishes
// the MVCC snapshot the change belongs to, and Lookup/Range while
// resolving an index cursor. That keeps the index exactly as fresh as
// the snapshot it is paired with, without a second lock hierarchy.
//
// NULL values are never indexed: under three-valued logic an equality or
// range predicate is never TRUE for a NULL operand, so a NULL entry
// could never be returned anyway. A composite key with any NULL
// component is skipped whole. A freshly expanded column (all NULLs until
// the crowd fills it) therefore indexes as empty and grows as judgments
// land.
package index

import "crowddb/internal/storage"

// Kind names an index implementation.
type Kind string

const (
	KindHash    Kind = "hash"
	KindOrdered Kind = "ordered"
)

// New constructs a single-column index of the given kind over column.
func New(kind Kind, name, column string) (storage.ColumnIndex, error) {
	return NewComposite(kind, name, []string{column}, []bool{false})
}

// NewComposite constructs an index over the key columns cols with
// per-column directions dirs (true = DESC; ignored by hash indexes,
// which have no order to direct).
func NewComposite(kind Kind, name string, cols []string, dirs []bool) (storage.ColumnIndex, error) {
	if len(dirs) != len(cols) {
		d := make([]bool, len(cols))
		copy(d, dirs)
		dirs = d
	}
	switch kind {
	case KindHash:
		return NewHash(name, cols), nil
	case KindOrdered:
		return NewOrdered(name, cols, dirs), nil
	default:
		return nil, &UnknownKindError{Kind: string(kind)}
	}
}

// UnknownKindError reports an unrecognized index kind in CREATE INDEX.
type UnknownKindError struct{ Kind string }

func (e *UnknownKindError) Error() string {
	return "index: unknown index kind " + e.Kind + " (want HASH or ORDERED)"
}

// encodeKey builds the hash key of a composite key tuple — components
// compare as storage.Value.Equal does, Int(2) and Float(2.0) colliding by
// design (storage.AppendKey's numeric form); ok=false when any component
// is NULL (never indexed, never probed).
func encodeKey(key []storage.Value) (string, bool) {
	dst := make([]byte, 0, 16*len(key))
	for _, v := range key {
		if v.IsNull() {
			return "", false
		}
		dst = storage.AppendKey(dst, v, true)
	}
	return string(dst), true
}

// classRank orders value classes for the ordered index, so entries of a
// mixed-kind probe land in an empty region instead of a wrong one.
// Columns are homogeneous (values are coerced on write), so within one
// index only probes can introduce a foreign class.
func classRank(v storage.Value) int {
	switch v.Kind() {
	case storage.KindBool:
		return 0
	case storage.KindText:
		return 2
	default:
		return 1 // numeric
	}
}

// compare orders two non-NULL values the way storage.Value.Compare does,
// extended with a deterministic cross-class order (bool < numeric < text)
// instead of an error — the ordered index must be able to place any
// probe.
func compare(a, b storage.Value) int {
	ra, rb := classRank(a), classRank(b)
	if ra != rb {
		return ra - rb
	}
	switch ra {
	case 0:
		ab, _ := a.AsBool()
		bb, _ := b.AsBool()
		switch {
		case ab == bb:
			return 0
		case ab:
			return 1
		default:
			return -1
		}
	case 2:
		as, _ := a.AsText()
		bs, _ := b.AsText()
		switch {
		case as < bs:
			return -1
		case as > bs:
			return 1
		default:
			return 0
		}
	default:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
}

// keyHasNull reports whether any component of key is NULL.
func keyHasNull(key []storage.Value) bool {
	for _, v := range key {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// cloneKey copies a key tuple so the index never aliases caller memory.
func cloneKey(key []storage.Value) []storage.Value {
	out := make([]storage.Value, len(key))
	copy(out, key)
	return out
}

// rowKey assembles row i's key tuple from the Rebuild column slices;
// ok=false when any component is NULL.
func rowKey(cols [][]storage.Value, i int) ([]storage.Value, bool) {
	key := make([]storage.Value, len(cols))
	for k, c := range cols {
		if c[i].IsNull() {
			return nil, false
		}
		key[k] = c[i]
	}
	return key, true
}

// skipped reports whether row i is tombstoned in the skip bitmap.
func skipped(skip []uint64, i int) bool {
	w := i >> 6
	return w < len(skip) && skip[w]&(1<<(uint(i)&63)) != 0
}
