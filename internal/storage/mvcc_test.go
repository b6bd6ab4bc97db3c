package storage

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func mvccTable(t *testing.T, rows int) *Table {
	t.Helper()
	c := NewCatalog()
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "score", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Create("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(Int(int64(i)), Float(float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestCursorPinnedBeforeDeleteSeesDeletedRows is the concurrent-delete
// cursor regression test: a cursor pins its snapshot at creation, so a
// Delete landing mid-scan must neither hide rows from it nor shift the
// rows it has yet to visit (pre-MVCC, compaction under the scan could
// skip or duplicate rows). A cursor opened after the Delete sees only
// the survivors.
func TestCursorPinnedBeforeDeleteSeesDeletedRows(t *testing.T) {
	const rows = 1000
	tbl := mvccTable(t, rows)

	cur := tbl.NewCursor(16)
	// Drain a few rows, then delete a spread that includes rows already
	// read, rows inside the current batch, and rows far ahead.
	var got []int64
	for i := 0; i < 10; i++ {
		row, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor ended at row %d: %v", i, cur.Err())
		}
		id, _ := row[0].AsInt()
		got = append(got, id)
	}
	doomed := []int{3, 11, 12, 13, 500, 998, 999}
	if n := tbl.Delete(doomed); n != len(doomed) {
		t.Fatalf("Delete removed %d rows, want %d", n, len(doomed))
	}
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		got = append(got, id)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != rows {
		t.Fatalf("pinned cursor saw %d rows, want all %d", len(got), rows)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("row %d: id = %d, want %d (skew under concurrent delete)", i, id, i)
		}
	}

	after := tbl.NewCursor(0)
	seen := map[int64]bool{}
	for {
		row, ok := after.Next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		seen[id] = true
	}
	if err := after.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != rows-len(doomed) {
		t.Fatalf("post-delete cursor saw %d rows, want %d", len(seen), rows-len(doomed))
	}
	for _, d := range doomed {
		if seen[int64(d)] {
			t.Fatalf("post-delete cursor saw tombstoned row %d", d)
		}
	}
	if tbl.NumRows() != rows-len(doomed) {
		t.Fatalf("NumRows = %d, want %d", tbl.NumRows(), rows-len(doomed))
	}
}

// TestCursorScanRacingDeletes hammers scans against concurrent Deletes
// under -race: every scan must see exactly the live set of the snapshot
// it pinned — a count between the final live count and the initial row
// count, with strictly increasing ids and no duplicates.
func TestCursorScanRacingDeletes(t *testing.T) {
	const rows = 5000
	tbl := mvccTable(t, rows)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := 0; d < rows/2 && !stop.Load(); d += 50 {
			batch := make([]int, 0, 25)
			for r := d; r < d+25; r++ {
				batch = append(batch, r*2)
			}
			if n := tbl.Delete(batch); n != len(batch) {
				t.Errorf("Delete removed %d rows, want %d", n, len(batch))
				return
			}
		}
	}()

	for scan := 0; scan < 40; scan++ {
		cur := tbl.NewCursor(0)
		last := int64(-1)
		n := 0
		for {
			row, ok := cur.Next()
			if !ok {
				break
			}
			id, _ := row[0].AsInt()
			if id <= last {
				t.Fatalf("scan %d: id %d after %d (out of order or duplicated)", scan, id, last)
			}
			last = id
			n++
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if n > rows || n < rows/2 {
			t.Fatalf("scan %d: %d rows outside [%d, %d]", scan, n, rows/2, rows)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestTornChunkPositionedError corrupts a sealed chunk and a tail and
// verifies the cursor surfaces a positioned decode error — table name,
// chunk, row, column — through Err instead of silently ending the scan.
func TestTornChunkPositionedError(t *testing.T) {
	tbl := mvccTable(t, ChunkRows+10)

	t.Run("sealed chunk", func(t *testing.T) {
		v := tbl.snap.Load()
		nv := v.clone()
		cd := *nv.col(0)
		cd.chunks = append([]*chunk(nil), cd.chunks...)
		torn := *cd.chunks[0]
		torn.ints = torn.ints[:100] // tear chunk 0 of "id"
		cd.chunks[0] = &torn
		nv.setCol(v, 0, cd)
		tbl.snap.Store(nv)
		defer tbl.snap.Store(v)

		cur := tbl.NewCursor(0)
		if row, ok := cur.Next(); ok {
			t.Fatalf("Next returned a row from a torn chunk: %v", row)
		}
		err := cur.Err()
		if err == nil {
			t.Fatal("Err = nil, want positioned torn-chunk error")
		}
		for _, want := range []string{"storage: table t:", "torn chunk 0", "row 100", `column "id"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		}
	})

	t.Run("tail", func(t *testing.T) {
		v := tbl.snap.Load()
		nv := v.clone()
		cd := *nv.col(1)
		torn := *cd.tail
		torn.floats = torn.floats[:4] // tear the 10-row tail of "score"
		cd.tail = &torn
		nv.setCol(v, 1, cd)
		tbl.snap.Store(nv)
		defer tbl.snap.Store(v)

		cur := tbl.NewCursor(0)
		n := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if n != ChunkRows {
			t.Fatalf("rows before tail error = %d, want %d", n, ChunkRows)
		}
		err := cur.Err()
		if err == nil {
			t.Fatal("Err = nil, want positioned torn-tail error")
		}
		for _, want := range []string{"storage: table t:", "torn tail", "row " + itoa(ChunkRows+4), `column "score"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSnapshotScanDuringBulkFill pins cursors while a writer bulk-loads
// rows and backfills an expansion column, proving snapshot stability
// end to end: every cursor sees exactly the row count and the column
// arity of the version it pinned, no matter how much lands afterwards.
func TestSnapshotScanDuringBulkFill(t *testing.T) {
	const seed = 2 * ChunkRows
	tbl := mvccTable(t, seed)

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() { // bulk writer: appends + AddColumn + FillColumn
		defer wg.Done()
		<-start
		for i := 0; i < 3*ChunkRows; i++ {
			if err := tbl.Insert(Int(int64(seed+i)), Float(0)); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := tbl.AddColumn(Column{Name: "genre", Kind: KindBool}); err != nil {
			t.Error(err)
			return
		}
		fill := make([]Value, tbl.NumRows())
		for i := range fill {
			fill[i] = Bool(i%2 == 0)
		}
		if err := tbl.FillColumn("genre", fill); err != nil {
			t.Error(err)
		}
	}()

	const readers = 4
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			<-start
			for scan := 0; scan < 30; scan++ {
				snap := tbl.Pin()
				pinned := snap.NumRows() // no deletes: physical == live
				cur := NewRangeCursorAt(snap, 0, -1, 0)
				width := 0
				n := 0
				for {
					row, ok := cur.Next()
					if !ok {
						break
					}
					if n == 0 {
						width = len(row)
					} else if len(row) != width {
						t.Errorf("scan %d: torn arity %d then %d", scan, width, len(row))
						snap.Release()
						return
					}
					n++
				}
				err := cur.Err()
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if n != pinned {
					t.Errorf("scan %d: %d rows, want exactly the pinned %d", scan, n, pinned)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	if n := tbl.NumRows(); n != seed+3*ChunkRows {
		t.Fatalf("final NumRows = %d, want %d", n, seed+3*ChunkRows)
	}
	if got := tbl.LiveSnapshotEpochs(); len(got) != 0 {
		t.Fatalf("leaked snapshot pins: %v", got)
	}
}
