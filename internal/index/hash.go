package index

import (
	"sort"

	"crowddb/internal/storage"
)

// Hash is an equality index: canonical encoded key → row IDs. Point
// lookups are O(1) regardless of table size or key width; it cannot
// answer range probes.
type Hash struct {
	name string
	cols []string
	m    map[string][]int
	n    int // total entries; kept incrementally — Entries() sits on the planner's hot path
}

// NewHash creates an empty hash index keyed on cols.
func NewHash(name string, cols []string) *Hash {
	return &Hash{name: name, cols: cols, m: make(map[string][]int)}
}

// Name returns the index name.
func (h *Hash) Name() string { return h.name }

// Columns returns the key columns.
func (h *Hash) Columns() []string { return h.cols }

// Dirs returns all-false: a hash index has no order to direct.
func (h *Hash) Dirs() []bool { return make([]bool, len(h.cols)) }

// Ordered reports whether the index supports range probes.
func (h *Hash) Ordered() bool { return false }

// Entries returns the number of indexed (fully non-NULL) rows.
func (h *Hash) Entries() int { return h.n }

// Add indexes key for rowID. Keys with a NULL component are skipped.
func (h *Hash) Add(rowID int, key []storage.Value) {
	k, ok := encodeKey(key)
	if !ok {
		return
	}
	h.m[k] = append(h.m[k], rowID)
	h.n++
}

// Remove drops rowID's entry under key.
func (h *Hash) Remove(rowID int, key []storage.Value) {
	k, ok := encodeKey(key)
	if !ok {
		return
	}
	ids := h.m[k]
	for i, id := range ids {
		if id == rowID {
			ids = append(ids[:i], ids[i+1:]...)
			h.n--
			break
		}
	}
	if len(ids) == 0 {
		delete(h.m, k)
	} else {
		h.m[k] = ids
	}
}

// Replace swaps rowID's entry from oldKey to newKey.
func (h *Hash) Replace(rowID int, oldKey, newKey []storage.Value) {
	h.Remove(rowID, oldKey)
	h.Add(rowID, newKey)
}

// RemoveRows drops the entries of rows (the Delete and SetBatch hook): a
// hash index finds an entry by its key, so each row costs one bucket
// lookup.
func (h *Hash) RemoveRows(rows []int, keyOf func(int) ([]storage.Value, bool)) {
	for _, row := range rows {
		if key, ok := keyOf(row); ok {
			h.Remove(row, key)
		}
	}
}

// Rebuild reindexes from scratch: cols[k][i] is row i's value for key
// column k; rows set in skip are tombstoned and excluded.
func (h *Hash) Rebuild(cols [][]storage.Value, skip []uint64) {
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	h.m = make(map[string][]int, nrows)
	h.n = 0
	for i := 0; i < nrows; i++ {
		if skipped(skip, i) {
			continue
		}
		key, ok := rowKey(cols, i)
		if !ok {
			continue
		}
		h.Add(i, key)
	}
}

// Lookup returns the row IDs whose key equals key (storage.Value.Equal
// semantics per component), in ascending row order.
func (h *Hash) Lookup(key []storage.Value) []int {
	if len(key) != len(h.cols) {
		return nil
	}
	k, ok := encodeKey(key)
	if !ok {
		return nil
	}
	ids := h.m[k]
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	copy(out, ids)
	sort.Ints(out)
	return out
}

// Range is unsupported on a hash index; the planner never asks.
func (h *Hash) Range(lo, hi *storage.Value, loInc, hiInc bool) []int { return nil }
