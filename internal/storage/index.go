package storage

import (
	"fmt"
	"slices"
	"sort"
)

// ColumnIndex is the maintenance-and-probe contract a secondary index
// (internal/index) implements over one or more columns of a table.
//
// Every method is invoked under the owning table's idxMu — mutators
// under the write lock, in the same critical section that publishes the
// snapshot the update belongs to; probes under the read lock — so
// implementations need no locking of their own and a probe result is
// always consistent with the snapshot pinned alongside it. Row IDs are
// stable physical IDs: Delete and SetBatch drop the entries of all their
// rows in one call (RemoveRows), never shifting anything.
//
// Keys are value tuples parallel to Columns(); a key with any NULL
// component is not indexed (Add/Remove/Replace skip it, Rebuild skips
// the row).
type ColumnIndex interface {
	// Name is the index's unique (per table, case-insensitive) name.
	Name() string
	// Columns lists the key columns in key order.
	Columns() []string
	// Dirs reports each key column's direction (true = DESC), parallel
	// to Columns. Hash indexes return all-false.
	Dirs() []bool
	// Ordered reports whether Range probes are supported (and whether
	// Range returns IDs in key order, the planner's sort-elision hook).
	Ordered() bool
	// Entries is the number of indexed (fully non-NULL) rows, for
	// introspection and cardinality estimation.
	Entries() int

	// Add indexes row rowID under key.
	Add(rowID int, key []Value)
	// Remove drops rowID's entry under key.
	Remove(rowID int, key []Value)
	// Replace swaps rowID's entry from oldKey to newKey.
	Replace(rowID int, oldKey, newKey []Value)
	// RemoveRows drops the entries of the given rows — distinct,
	// ascending — in one pass. keyOf returns a row's key as it was indexed
	// (ok=false: the row had a NULL in it and no entry); an index that
	// finds entries by row need not call it.
	RemoveRows(rows []int, keyOf func(rowID int) (key []Value, ok bool))
	// Rebuild reindexes from scratch: cols[k][i] is row i's value for
	// key column k; rows whose bit is set in skip (may be nil) are
	// tombstoned and excluded.
	Rebuild(cols [][]Value, skip []uint64)

	// Lookup returns the row IDs whose key equals key (Value.Equal
	// semantics per component), ascending by row ID. A prefix of the key
	// columns is not enough — len(key) must equal len(Columns()).
	Lookup(key []Value) []int
	// Range returns the row IDs whose FIRST key column falls in the
	// bound window (nil = open side), in index order — first column
	// ascending or descending per Dirs()[0]. Hash indexes return nil.
	Range(lo, hi *Value, loInc, hiInc bool) []int
}

// KeyRanger is the optional index-only-scan hook: ordered indexes
// return, alongside the row IDs, each row's full key tuple — so a query
// whose projection is covered by the key never touches the table.
type KeyRanger interface {
	RangeWithKeys(lo, hi *Value, loInc, hiInc bool) (ids []int, keys [][]Value)
}

// RangeCounter is the plan-time cardinality hook of ordered indexes:
// CountRange is len(Range(lo, hi, loInc, hiInc)) in O(log n) and without
// allocating, so the planner can count a range before deciding to probe
// it.
type RangeCounter interface {
	CountRange(lo, hi *Value, loInc, hiInc bool) int
}

// IndexMeta describes one attached index for planning and introspection.
// Column is the first key column (the only one, for single-column
// indexes) — kept alongside Columns for wire compatibility.
type IndexMeta struct {
	Name    string   `json:"name"`
	Column  string   `json:"column"`
	Columns []string `json:"columns,omitempty"`
	Dirs    []bool   `json:"dirs,omitempty"`
	Ordered bool     `json:"ordered"`
	Entries int      `json:"entries"`
}

// Kind renders the index implementation name for humans and JSON.
func (m IndexMeta) Kind() string {
	if m.Ordered {
		return "ordered"
	}
	return "hash"
}

func metaOf(idx ColumnIndex) IndexMeta {
	cols := idx.Columns()
	return IndexMeta{
		Name: idx.Name(), Column: cols[0], Columns: cols, Dirs: idx.Dirs(),
		Ordered: idx.Ordered(), Entries: idx.Entries(),
	}
}

// AttachIndex registers idx with the table and bulk-builds it from the
// current snapshot. The index name must be unique on the table and every
// key column must exist in the schema (a registered-but-not-yet-expanded
// column is rejected by the layer above with a typed error; here it is
// simply unknown).
func (t *Table) AttachIndex(idx ColumnIndex) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	name := normName(idx.Name())
	if name == "" {
		return fmt.Errorf("storage: empty index name")
	}
	if _, dup := t.indexes[name]; dup {
		return fmt.Errorf("storage: table %s already has an index named %q", t.name, idx.Name())
	}
	v := t.snap.Load()
	for _, col := range idx.Columns() {
		if _, ok := v.schema.Lookup(col); !ok {
			return fmt.Errorf("storage: table %s has no column %q to index", t.name, col)
		}
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.rebuildIndex(idx, v)
	if t.indexes == nil {
		t.indexes = map[string]ColumnIndex{}
	}
	t.indexes[name] = idx
	return nil
}

// DetachIndex removes the named index (case-insensitive) from the table.
// The index's in-memory structure is simply dropped — rows are untouched
// and subsequent plans fall back to scans.
func (t *Table) DetachIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := normName(name)
	if _, ok := t.indexes[key]; !ok {
		return fmt.Errorf("storage: table %s has no index %q", t.name, name)
	}
	t.idxMu.Lock()
	delete(t.indexes, key)
	t.idxMu.Unlock()
	return nil
}

// indexKeyOf extracts row's key tuple for idx from version v. ok is
// false — the row is not indexed — when a key column is missing from the
// schema or any component is NULL.
func indexKeyOf(idx ColumnIndex, v *version, row int) ([]Value, bool) {
	cols := idx.Columns()
	key := make([]Value, len(cols))
	for k, name := range cols {
		ci, ok := v.schema.Lookup(name)
		if !ok {
			return nil, false
		}
		val := v.value(row, ci)
		if val.IsNull() {
			return nil, false
		}
		key[k] = val
	}
	return key, true
}

// columnValues materializes the full physical column col of version v.
func columnValues(v *version, col int) []Value {
	vals := make([]Value, v.nrows)
	for i := 0; i < v.nrows; i++ {
		vals[i] = v.value(i, col)
	}
	return vals
}

// rebuildIndex bulk-loads idx from version v. Caller holds t.idxMu
// (write) or has exclusive access to idx.
func (t *Table) rebuildIndex(idx ColumnIndex, v *version) {
	names := idx.Columns()
	cols := make([][]Value, len(names))
	for k, name := range names {
		ci, ok := v.schema.Lookup(name)
		if !ok {
			return // vanished column: leave the index empty rather than lie
		}
		cols[k] = columnValues(v, ci)
	}
	idx.Rebuild(cols, v.deadBits())
}

// indexesOn returns the indexes having any of the named columns anywhere
// in their key. Caller holds t.idxMu or t.mu.
func (t *Table) indexesOn(cols ...string) []ColumnIndex {
	var out []ColumnIndex
	for _, idx := range t.indexes {
		if slices.ContainsFunc(idx.Columns(), func(key string) bool {
			return slices.ContainsFunc(cols, func(col string) bool { return foldEqual(col, key) })
		}) {
			out = append(out, idx)
		}
	}
	return out
}

// IndexMetas returns the attached indexes' metadata, sorted by name.
func (t *Table) IndexMetas() []IndexMeta {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]IndexMeta, 0, len(t.indexes))
	for _, idx := range t.indexes {
		out = append(out, metaOf(idx))
	}
	sort.Slice(out, func(i, j int) bool { return normName(out[i].Name) < normName(out[j].Name) })
	return out
}

// IndexOn returns the metadata of an index usable for probes on the
// named column: for equality (wantOrdered=false) a single-column index
// of any kind, preferring hash; for ranges/order (wantOrdered=true) an
// ordered index whose FIRST key column matches (range bounds apply to
// the leading column). Ties break by name for plan stability.
func (t *Table) IndexOn(column string, wantOrdered bool) (IndexMeta, bool) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	var best ColumnIndex
	for _, idx := range t.indexes {
		cols := idx.Columns()
		if !foldEqual(cols[0], column) {
			continue
		}
		if wantOrdered {
			if !idx.Ordered() {
				continue
			}
			if best == nil || normName(idx.Name()) < normName(best.Name()) {
				best = idx
			}
			continue
		}
		if len(cols) != 1 {
			continue // equality on one column can't use a composite key
		}
		switch {
		case best == nil:
			best = idx
		case best.Ordered() && !idx.Ordered():
			best = idx
		case best.Ordered() == idx.Ordered() && normName(idx.Name()) < normName(best.Name()):
			best = idx
		}
	}
	if best == nil {
		return IndexMeta{}, false
	}
	return metaOf(best), true
}

// IndexProbe selects index entries for a cursor: Key for a (possibly
// composite) equality lookup, Point for the legacy single-column form,
// otherwise the (possibly half-open) Lo/Hi range on the first key
// column. Reverse flips the result to the opposite of index order — the
// planner's hook for serving ORDER BY ... DESC from an ASC index (and
// vice versa) without a Sort.
type IndexProbe struct {
	Key     []Value
	Point   *Value
	Lo, Hi  *Value
	LoInc   bool
	HiInc   bool
	Reverse bool
}

// resolve runs the probe against idx. Caller holds t.idxMu (read).
//
// Reverse must match a stable DESC sort exactly: key groups in reverse
// order, table (row-ID) order preserved WITHIN each group of equal keys.
// A whole-slice reverse would flip tie order too, making a DESC
// index-order elision observably differ from the Sort it replaced. Range
// probes reverse group-wise via the index's keys; point probes are a
// single key group, where reversing would only scramble ties, so Reverse
// is a no-op.
func (p IndexProbe) resolve(idx ColumnIndex) []int {
	switch {
	case p.Key != nil:
		return idx.Lookup(p.Key)
	case p.Point != nil:
		return idx.Lookup([]Value{*p.Point})
	}
	if p.Reverse {
		if kr, ok := idx.(KeyRanger); ok {
			ids, keys := kr.RangeWithKeys(p.Lo, p.Hi, p.LoInc, p.HiInc)
			ids, _ = reverseKeyGroups(ids, keys)
			return ids
		}
		// No key access: whole-slice reverse (tie order flips; ordered
		// indexes all implement KeyRanger, so this is a fallback for
		// exotic external implementations only).
		ids := idx.Range(p.Lo, p.Hi, p.LoInc, p.HiInc)
		rev := make([]int, len(ids))
		for i, id := range ids {
			rev[len(ids)-1-i] = id
		}
		return rev
	}
	return idx.Range(p.Lo, p.Hi, p.LoInc, p.HiInc)
}

// reverseKeyGroups flips the order of equal-key runs while preserving
// order within each run. ids and keys are parallel slices in index
// (ascending) order; the result is descending key order with ties still
// in table order — exactly a stable DESC sort.
func reverseKeyGroups(ids []int, keys [][]Value) ([]int, [][]Value) {
	outIDs := make([]int, 0, len(ids))
	outKeys := make([][]Value, 0, len(keys))
	for end := len(ids); end > 0; {
		start := end - 1
		for start > 0 && keysEqual(keys[start-1], keys[end-1]) {
			start--
		}
		outIDs = append(outIDs, ids[start:end]...)
		outKeys = append(outKeys, keys[start:end]...)
		end = start
	}
	return outIDs, outKeys
}

func keysEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (p IndexProbe) isPoint() bool { return p.Key != nil || p.Point != nil }

// lookupIndex fetches the named index and validates the probe shape.
// Caller holds t.idxMu (read).
func (t *Table) lookupIndex(indexName string, probe IndexProbe) (ColumnIndex, error) {
	idx, ok := t.indexes[normName(indexName)]
	if !ok {
		return nil, fmt.Errorf("storage: table %s has no index %q", t.name, indexName)
	}
	if !probe.isPoint() && !idx.Ordered() {
		return nil, fmt.Errorf("storage: index %q on %s is not ordered; range probes need an ordered index", indexName, t.name)
	}
	return idx, nil
}

// PinIndexProbe resolves probe against the named index and pins the
// matching snapshot in one critical section — the (snapshot, IDs) pair
// is mutually consistent because commits publish both sides under the
// same lock. It is how every index read starts: the caller reads the ID
// list — whole, or split into disjoint chunks for morsel workers —
// through NewIndexCursorAt against the returned snapshot, and releases
// the snapshot once, when all its readers are done.
func (t *Table) PinIndexProbe(indexName string, probe IndexProbe) (*Snap, []int, error) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	idx, err := t.lookupIndex(indexName, probe)
	if err != nil {
		return nil, nil, err
	}
	ids := probe.resolve(idx)
	return t.Pin(), ids, nil
}

// CountIndexRange reports how many rows a range probe of the named index
// would resolve right now, next to the table's live row count — both read
// in one critical section, so they describe the same snapshot. ok is false
// when the index is gone or cannot count (it is not ordered).
func (t *Table) CountIndexRange(indexName string, lo, hi *Value, loInc, hiInc bool) (rows, live int, ok bool) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	rc, ok := t.indexes[normName(indexName)].(RangeCounter)
	if !ok {
		return 0, 0, false
	}
	return rc.CountRange(lo, hi, loInc, hiInc), t.snap.Load().live(), true
}

// IndexOnlyProbe resolves probe and returns, for each matching row, the
// index's full key tuple — without ever touching table data. For point
// probes keys is nil: every row's key equals the probe key, which the
// caller already holds. Range probes require the index to implement
// KeyRanger (ordered indexes do).
func (t *Table) IndexOnlyProbe(indexName string, probe IndexProbe) (ids []int, keys [][]Value, err error) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	idx, err := t.lookupIndex(indexName, probe)
	if err != nil {
		return nil, nil, err
	}
	if probe.isPoint() {
		return probe.resolve(idx), nil, nil
	}
	kr, ok := idx.(KeyRanger)
	if !ok {
		return nil, nil, fmt.Errorf("storage: index %q on %s cannot serve index-only scans", indexName, t.name)
	}
	ids, keys = kr.RangeWithKeys(probe.Lo, probe.Hi, probe.LoInc, probe.HiInc)
	if probe.Reverse {
		ids, keys = reverseKeyGroups(ids, keys)
	}
	return ids, keys, nil
}
