package storage

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeIndex is a minimal ColumnIndex capturing maintenance calls, for
// testing the table-side hooks without importing internal/index (which
// would cycle).
type fakeIndex struct {
	name  string
	cols  []string
	byKey map[string][]int

	removeCalls int // RemoveRows calls: one per statement, not per row
}

func newFakeIndex(name string, cols ...string) *fakeIndex {
	return &fakeIndex{name: name, cols: cols, byKey: map[string][]int{}}
}

func (f *fakeIndex) Name() string      { return f.name }
func (f *fakeIndex) Columns() []string { return f.cols }
func (f *fakeIndex) Dirs() []bool      { return make([]bool, len(f.cols)) }
func (f *fakeIndex) Ordered() bool     { return false }
func (f *fakeIndex) Entries() int {
	n := 0
	for _, ids := range f.byKey {
		n += len(ids)
	}
	return n
}

func (f *fakeIndex) keyStr(key []Value) (string, bool) {
	parts := make([]string, len(key))
	for i, v := range key {
		if v.IsNull() {
			return "", false
		}
		parts[i] = v.String()
	}
	return strings.Join(parts, "\x1f"), true
}

func (f *fakeIndex) Add(rowID int, key []Value) {
	k, ok := f.keyStr(key)
	if !ok {
		return
	}
	f.byKey[k] = append(f.byKey[k], rowID)
}

func (f *fakeIndex) Remove(rowID int, key []Value) {
	k, ok := f.keyStr(key)
	if !ok {
		return
	}
	ids := f.byKey[k]
	for i, id := range ids {
		if id == rowID {
			f.byKey[k] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

func (f *fakeIndex) Replace(rowID int, oldKey, newKey []Value) {
	f.Remove(rowID, oldKey)
	f.Add(rowID, newKey)
}

func (f *fakeIndex) RemoveRows(rows []int, keyOf func(int) ([]Value, bool)) {
	f.removeCalls++
	for _, row := range rows {
		if key, ok := keyOf(row); ok {
			f.Remove(row, key)
		}
	}
}

func (f *fakeIndex) Rebuild(cols [][]Value, skip []uint64) {
	f.byKey = map[string][]int{}
	if len(cols) == 0 {
		return
	}
	for i := 0; i < len(cols[0]); i++ {
		if w := i >> 6; w < len(skip) && skip[w]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		key := make([]Value, len(cols))
		for c := range cols {
			key[c] = cols[c][i]
		}
		f.Add(i, key)
	}
}

func (f *fakeIndex) Lookup(key []Value) []int {
	k, ok := f.keyStr(key)
	if !ok {
		return nil
	}
	return append([]int(nil), f.byKey[k]...)
}

func (f *fakeIndex) Range(lo, hi *Value, loInc, hiInc bool) []int { return nil }

func indexedTable(t *testing.T, rows int) *Table {
	t.Helper()
	schema, err := NewSchema(Column{Name: "k", Kind: KindInt}, Column{Name: "v", Kind: KindText})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(Int(int64(i%10)), Text(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AttachIndex(newFakeIndex("ik", "k")); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// probeCursor reads the rows probe resolves the way the executor's index
// leaves do: PinIndexProbe, then NewIndexCursorAt over the pinned
// snapshot, released when the test ends.
func probeCursor(t *testing.T, tbl *Table, index string, probe IndexProbe, batchSize int) (*Cursor, error) {
	snap, ids, err := tbl.PinIndexProbe(index, probe)
	if err != nil {
		return nil, err
	}
	t.Cleanup(snap.Release)
	return NewIndexCursorAt(snap, ids, batchSize), nil
}

func TestAttachIndexBulkLoadsAndMaintains(t *testing.T) {
	tbl := indexedTable(t, 100)
	meta, ok := tbl.IndexOn("K", false) // case-insensitive
	if !ok || meta.Entries != 100 {
		t.Fatalf("IndexOn = %+v %v", meta, ok)
	}
	if err := tbl.Insert(Int(3), Text("extra")); err != nil {
		t.Fatal(err)
	}
	point := Int(3)
	cur, err := probeCursor(t, tbl, "ik", IndexProbe{Point: &point}, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		if got, _ := row[0].AsInt(); got != 3 {
			t.Fatalf("row k = %d", got)
		}
		n++
	}
	if n != 11 {
		t.Fatalf("k=3 rows = %d, want 11", n)
	}
}

func TestRangeProbeOnUnorderedIndexRejected(t *testing.T) {
	tbl := indexedTable(t, 10)
	lo := Int(1)
	if _, err := probeCursor(t, tbl, "ik", IndexProbe{Lo: &lo}, 0); err == nil {
		t.Fatal("range probe on a hash-like index must be rejected")
	}
	if _, err := probeCursor(t, tbl, "ghost", IndexProbe{Point: &lo}, 0); err == nil {
		t.Fatal("unknown index must be rejected")
	}
}

func TestDeleteRemovesIndexEntries(t *testing.T) {
	tbl := indexedTable(t, 50)
	// Delete all k=0 rows (physical IDs 0,10,20,30,40) — entries are
	// removed point-wise; the surviving IDs don't move.
	tbl.Delete([]int{0, 10, 20, 30, 40})
	point := Int(0)
	if cur, err := probeCursor(t, tbl, "ik", IndexProbe{Point: &point}, 0); err != nil {
		t.Fatal(err)
	} else if row, ok := cur.Next(); ok {
		t.Fatalf("k=0 still probed a row after delete: %v", row)
	}
	point = Int(9)
	cur, err := probeCursor(t, tbl, "ik", IndexProbe{Point: &point}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		if got, _ := row[0].AsInt(); got != 9 {
			t.Fatalf("row k = %d after delete", got)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("k=9 rows after delete = %d, want 5", n)
	}
}

// TestIndexCursorSnapshotStability: the cursor captures the snapshot and
// the matching IDs in one critical section at creation, so rows updated
// out of the predicate afterwards are still returned WITH THEIR AS-OF-OPEN
// VALUES — repeatable reads, the MVCC upgrade over the old re-check-at-
// copy-time behavior.
func TestIndexCursorSnapshotStability(t *testing.T) {
	tbl := indexedTable(t, 100) // ten rows per key 0..9
	point := Int(6)
	cur, err := probeCursor(t, tbl, "ik", IndexProbe{Point: &point}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 2; i++ { // drain the first batch only
		row, ok := cur.Next()
		if !ok {
			t.Fatalf("batch 1 ended after %d rows", got)
		}
		if k, _ := row[0].AsInt(); k != 6 {
			t.Fatalf("row k = %d", k)
		}
		got++
	}
	// Move every k=6 row but one out of the predicate, and delete the
	// holdout, while the cursor is parked between batches.
	for i := 0; i < 100; i++ {
		if i == 26 {
			continue
		}
		if v, err := tbl.Value(i, 0); err == nil {
			if k, _ := v.AsInt(); k == 6 {
				if err := tbl.Set(i, 0, Int(99)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tbl.Delete([]int{26}) // the remaining untouched k=6 row
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		if k, _ := row[0].AsInt(); k != 6 {
			t.Fatalf("cursor returned k=%d; the pinned snapshot must show as-of-open values", k)
		}
		got++
	}
	// All 10 rows matched at open; every one must be emitted with its
	// as-of-open key, updates and deletes notwithstanding.
	if got != 10 {
		t.Fatalf("emitted %d rows, want 10 (snapshot isolation)", got)
	}
	// A cursor opened now sees the post-mutation state: no k=6 rows left.
	cur2, err := probeCursor(t, tbl, "ik", IndexProbe{Point: &point}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row, ok := cur2.Next(); ok {
		t.Fatalf("fresh cursor still sees k=6 row %v", row)
	}
}

// TestIndexProbesUnderConcurrentInserts hammers point probes while rows
// land, for the race detector: every probe must see a consistent batch.
func TestIndexProbesUnderConcurrentInserts(t *testing.T) {
	tbl := indexedTable(t, 100)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 2000; i++ {
			if err := tbl.Insert(Int(int64(i%10)), Text("w")); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				point := Int(4)
				snap, ids, err := tbl.PinIndexProbe("ik", IndexProbe{Point: &point})
				if err != nil {
					t.Error(err)
					return
				}
				cur := NewIndexCursorAt(snap, ids, 8)
				for {
					row, ok := cur.Next()
					if !ok {
						break
					}
					if got, _ := row[0].AsInt(); got != 4 {
						t.Errorf("probe saw k=%d", got)
						snap.Release()
						return
					}
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
}
