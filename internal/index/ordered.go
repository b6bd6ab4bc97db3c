package index

import (
	"sort"

	"crowddb/internal/storage"
)

// entry is one indexed (key, row) pair.
type entry struct {
	key []storage.Value
	row int
}

// deltaMax bounds the ordered index's insert buffer. Inserts are O(delta)
// memmoves until the buffer fills, then one linear merge folds it into
// the base run — the classic sorted-run compromise between skiplist
// pointer soup and O(table) per-insert memmoves.
const deltaMax = 1024

// Ordered is a two-run ordered index: a large sorted base plus a small
// sorted delta buffer that absorbs inserts and is merged into the base
// when full. Both runs are sorted by (key, rowID) under the index's
// per-column directions, so equal keys come back in table order —
// exactly the tie-break a stable ORDER BY produces, which is what lets
// the planner drop a Sort in favor of index order.
type Ordered struct {
	name  string
	cols  []string
	dirs  []bool // true = DESC, parallel to cols
	base  []entry
	delta []entry
}

// NewOrdered creates an empty ordered index keyed on cols with
// directions dirs (true = DESC).
func NewOrdered(name string, cols []string, dirs []bool) *Ordered {
	return &Ordered{name: name, cols: cols, dirs: dirs}
}

// Name returns the index name.
func (o *Ordered) Name() string { return o.name }

// Columns returns the key columns.
func (o *Ordered) Columns() []string { return o.cols }

// Dirs returns each key column's direction (true = DESC).
func (o *Ordered) Dirs() []bool { return o.dirs }

// Ordered reports whether the index supports range probes.
func (o *Ordered) Ordered() bool { return true }

// Entries returns the number of indexed (fully non-NULL) rows.
func (o *Ordered) Entries() int { return len(o.base) + len(o.delta) }

// compareKeys orders two key tuples under the index's directions.
func (o *Ordered) compareKeys(a, b []storage.Value) int {
	for k := range a {
		c := compare(a[k], b[k])
		if o.dirs[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// less orders entries by (key, rowID).
func (o *Ordered) less(a, b entry) bool {
	if c := o.compareKeys(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.row < b.row
}

// insertPos is the first position in run not less than e.
func (o *Ordered) insertPos(run []entry, e entry) int {
	return sort.Search(len(run), func(i int) bool { return !o.less(run[i], e) })
}

// Add indexes key for rowID. Keys with a NULL component are skipped.
func (o *Ordered) Add(rowID int, key []storage.Value) {
	if keyHasNull(key) {
		return
	}
	e := entry{key: cloneKey(key), row: rowID}
	i := o.insertPos(o.delta, e)
	o.delta = append(o.delta, entry{})
	copy(o.delta[i+1:], o.delta[i:])
	o.delta[i] = e
	if len(o.delta) >= deltaMax {
		o.mergeDelta()
	}
}

// mergeDelta folds the delta buffer into the base run: a linear merge
// from the back, in place — every probe runs under the owning table's
// index lock, so no reader holds the run being rewritten. A base without
// the room grows by a quarter, so that an index taking steady inserts
// reallocates once in dozens of merges instead of at every one.
func (o *Ordered) mergeDelta() {
	n, m := len(o.base), len(o.delta)
	if cap(o.base) < n+m {
		grown := make([]entry, n, max(n+m, n+n/4))
		copy(grown, o.base)
		o.base = grown
	}
	base := o.base[:n+m]
	for i, j, k := n-1, m-1, n+m-1; j >= 0; k-- {
		if i >= 0 && o.less(o.delta[j], base[i]) {
			base[k] = base[i]
			i--
		} else {
			base[k] = o.delta[j]
			j--
		}
	}
	clear(o.delta) // the keys now belong to base
	o.base, o.delta = base, o.delta[:0]
}

// Remove drops the entry (key, rowID) from whichever run holds it,
// point-wise; no rebuild, no ID shifting.
func (o *Ordered) Remove(rowID int, key []storage.Value) {
	if keyHasNull(key) {
		return
	}
	e := entry{key: key, row: rowID}
	for _, run := range []*[]entry{&o.base, &o.delta} {
		r := *run
		i := o.insertPos(r, e)
		if i < len(r) && r[i].row == rowID && o.compareKeys(r[i].key, key) == 0 {
			*run = append(r[:i], r[i+1:]...)
			return
		}
	}
}

// Replace swaps rowID's entry from oldKey to newKey.
func (o *Ordered) Replace(rowID int, oldKey, newKey []storage.Value) {
	o.Remove(rowID, oldKey)
	o.Add(rowID, newKey)
}

// RemoveRows drops the entries of rows (distinct, ascending) — the
// Delete and SetBatch hook. One row is removed point-wise: a binary search
// and one memmove of the run behind it. More are filtered out of both runs
// by row ID in a single pass, O(entries + rows), which no longer costs a
// memmove per row and needs no key.
func (o *Ordered) RemoveRows(rows []int, keyOf func(int) ([]storage.Value, bool)) {
	if len(rows) == 1 {
		if key, ok := keyOf(rows[0]); ok {
			o.Remove(rows[0], key)
		}
		return
	}
	// A bitmap over the words the rows span: a range delete's rows are
	// neighbours, whatever their distance from row 0.
	first := rows[0] >> 6
	gone := make([]uint64, rows[len(rows)-1]>>6-first+1)
	for _, row := range rows {
		gone[row>>6-first] |= 1 << (uint(row) & 63)
	}
	o.base, o.delta = dropRows(o.base, first, gone), dropRows(o.delta, first, gone)
}

// dropRows filters out of run, in place, the entries of the rows set in
// gone, whose word 0 covers rows 64·first and up.
func dropRows(run []entry, first int, gone []uint64) []entry {
	kept := 0
	for i := range run {
		if w := run[i].row>>6 - first; w >= 0 && w < len(gone) && gone[w]&(1<<(uint(run[i].row)&63)) != 0 {
			continue
		}
		if kept != i {
			run[kept] = run[i]
		}
		kept++
	}
	clear(run[kept:])
	return run[:kept]
}

// Rebuild reindexes from scratch: cols[k][i] is row i's value for key
// column k; rows set in skip are tombstoned and excluded. One sort —
// the bulk-load path CREATE INDEX and FillColumn use.
func (o *Ordered) Rebuild(cols [][]storage.Value, skip []uint64) {
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	base := make([]entry, 0, nrows)
	for i := 0; i < nrows; i++ {
		if skipped(skip, i) {
			continue
		}
		key, ok := rowKey(cols, i)
		if !ok {
			continue
		}
		base = append(base, entry{key: key, row: i})
	}
	sort.Slice(base, func(i, j int) bool { return o.less(base[i], base[j]) })
	o.base, o.delta = base, nil
}

// cmp0 compares an entry's leading key column against a probe bound in
// RUN order: for a DESC leading column the run is descending in value,
// so the comparison flips and the caller swaps which bound it searches
// with.
func (o *Ordered) cmp0(v storage.Value, bound storage.Value) int {
	c := compare(v, bound)
	if o.dirs[0] {
		return -c
	}
	return c
}

// bounds returns the half-open [from, to) window of run covered by the
// probe, in run order. runLo/runHi are already direction-adjusted.
func (o *Ordered) bounds(run []entry, runLo, runHi *storage.Value, loInc, hiInc bool) (int, int) {
	from, to := 0, len(run)
	if runLo != nil {
		from = sort.Search(len(run), func(i int) bool {
			c := o.cmp0(run[i].key[0], *runLo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	if runHi != nil {
		to = sort.Search(len(run), func(i int) bool {
			c := o.cmp0(run[i].key[0], *runHi)
			if hiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	if to < from {
		to = from
	}
	return from, to
}

// runWindows computes both runs' probe windows. The Lo/Hi bounds are in
// VALUE space (lo ≤ value ≤ hi); when the leading column is DESC the
// value window maps to run positions in reverse, so the bounds swap.
func (o *Ordered) runWindows(lo, hi *storage.Value, loInc, hiInc bool) (bf, bt, df, dt int) {
	runLo, runHi, rli, rhi := lo, hi, loInc, hiInc
	if o.dirs[0] {
		runLo, runHi, rli, rhi = hi, lo, hiInc, loInc
	}
	bf, bt = o.bounds(o.base, runLo, runHi, rli, rhi)
	df, dt = o.bounds(o.delta, runLo, runHi, rli, rhi)
	return
}

// CountRange returns len(Range(lo, hi, loInc, hiInc)) from the binary
// searches Range starts with — the planner's exact, allocation-free
// cardinality of a range probe (storage.RangeCounter).
func (o *Ordered) CountRange(lo, hi *storage.Value, loInc, hiInc bool) int {
	bf, bt, df, dt := o.runWindows(lo, hi, loInc, hiInc)
	return bt - bf + dt - df
}

// Range returns the row IDs whose leading key column falls in the probe
// window, in index order (per-column directions, ties by row ID). Nil
// bounds are open.
func (o *Ordered) Range(lo, hi *storage.Value, loInc, hiInc bool) []int {
	bf, bt, df, dt := o.runWindows(lo, hi, loInc, hiInc)
	a, b := o.base[bf:bt], o.delta[df:dt]
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if o.less(a[i], b[j]) {
			out = append(out, a[i].row)
			i++
		} else {
			out = append(out, b[j].row)
			j++
		}
	}
	for ; i < len(a); i++ {
		out = append(out, a[i].row)
	}
	for ; j < len(b); j++ {
		out = append(out, b[j].row)
	}
	return out
}

// RangeWithKeys is Range carrying each row's full key tuple — the
// index-only-scan hook (storage.KeyRanger): a covered projection is
// served from these keys without touching table data. The returned key
// slices alias index storage and must not be mutated.
func (o *Ordered) RangeWithKeys(lo, hi *storage.Value, loInc, hiInc bool) ([]int, [][]storage.Value) {
	bf, bt, df, dt := o.runWindows(lo, hi, loInc, hiInc)
	a, b := o.base[bf:bt], o.delta[df:dt]
	ids := make([]int, 0, len(a)+len(b))
	keys := make([][]storage.Value, 0, len(a)+len(b))
	i, j := 0, 0
	take := func(e entry) {
		ids = append(ids, e.row)
		keys = append(keys, e.key)
	}
	for i < len(a) && j < len(b) {
		if o.less(a[i], b[j]) {
			take(a[i])
			i++
		} else {
			take(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		take(a[i])
	}
	for ; j < len(b); j++ {
		take(b[j])
	}
	return ids, keys
}

// Lookup returns the row IDs whose full key equals key, ascending by
// row ID.
func (o *Ordered) Lookup(key []storage.Value) []int {
	if len(key) != len(o.cols) || keyHasNull(key) {
		return nil
	}
	var out []int
	probe := entry{key: key, row: -1}
	for _, run := range []*[]entry{&o.base, &o.delta} {
		r := *run
		for i := o.insertPos(r, probe); i < len(r) && o.compareKeys(r[i].key, key) == 0; i++ {
			out = append(out, r[i].row)
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Ints(out)
	return out
}
