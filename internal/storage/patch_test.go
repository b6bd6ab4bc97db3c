package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// tailEvent is one cell the tail race's writer is about to commit: the
// version of the given epoch holds val in (row, col). An Insert logs one
// event per column.
type tailEvent struct {
	epoch    uint64
	row, col int
	val      Value
}

// TestPatchedTailRacesPinnedReaders runs one writer that interleaves
// single-row Inserts and Sets on the tail — so the tail is patched, takes
// Inserts in place under its patch, folds and seals — against four
// readers that pin snapshots and scan them whole, each comparing every
// cell with the cells of its pin's epoch. The writer logs each commit
// before making it, so a reader always finds its epoch in the log. Under
// -race it also checks that no write touches memory a pinned reader
// loads.
func TestPatchedTailRacesPinnedReaders(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "v", Kind: KindInt},
		Column{Name: "s", Kind: KindText},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("race", schema)
	rows := ChunkRows + 600 // one seal of a patched tail on the way
	if testing.Short() {
		rows = ChunkRows + 100
	}

	var mu sync.Mutex
	var events []tailEvent
	logCommit := func(evs ...tailEvent) {
		mu.Lock()
		events = append(events, evs...)
		mu.Unlock()
	}
	var done atomic.Bool
	var scans atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				if err := scanAgainstLog(tbl, r%2 == 1, func(epoch uint64) []tailEvent {
					mu.Lock()
					defer mu.Unlock()
					n := 0
					for n < len(events) && events[n].epoch <= epoch {
						n++
					}
					return events[:n:n]
				}); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				scans.Add(1)
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(31))
	cell := func(i int) (Value, Value) {
		if rng.Intn(6) == 0 {
			return Null(), Null()
		}
		return Int(int64(i)), Text(fmt.Sprintf("s%d", i))
	}
	n := 0
	for n < rows {
		epoch := tbl.snap.Load().epoch + 1
		if sealed := n / ChunkRows * ChunkRows; n > sealed && rng.Intn(3) == 0 {
			row, col := sealed+rng.Intn(n-sealed), 1+rng.Intn(2)
			iv, sv := cell(n)
			val := iv
			if col == 2 {
				val = sv
			}
			logCommit(tailEvent{epoch, row, col, val})
			if err := tbl.Set(row, col, val); err != nil {
				t.Fatal(err)
			}
			continue
		}
		iv, sv := cell(n)
		logCommit(tailEvent{epoch, n, 0, Int(int64(n))}, tailEvent{epoch, n, 1, iv}, tailEvent{epoch, n, 2, sv})
		if err := tbl.Insert(Int(int64(n)), iv, sv); err != nil {
			t.Fatal(err)
		}
		n++
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if scans.Load() == 0 {
		t.Fatal("no reader finished a scan while the writer ran")
	}
	// And once more, unraced, against the final version.
	if err := scanAgainstLog(tbl, false, func(uint64) []tailEvent { return events }); err != nil {
		t.Fatal(err)
	}
}

// scanAgainstLog pins tbl, reads every row of the pin through NextBatch —
// in one plain scan, or with preds in two predicate scans that split the
// rows (v IS NULL, v >= 0) — and compares each cell with the cell the
// log's events up to the pin's epoch put there.
func scanAgainstLog(tbl *Table, preds bool, logUpTo func(epoch uint64) []tailEvent) error {
	snap := tbl.Pin()
	defer snap.Release()
	var want [][3]Value
	for _, ev := range logUpTo(snap.Epoch()) {
		for ev.row >= len(want) {
			want = append(want, [3]Value{})
		}
		want[ev.row][ev.col] = ev.val
	}
	if len(want) != snap.NumRows() {
		return fmt.Errorf("epoch %d: %d rows pinned, the log has %d", snap.Epoch(), snap.NumRows(), len(want))
	}
	passes := [][]Pred{nil}
	if preds {
		passes = [][]Pred{{{Col: 1, Op: PredIsNull}}, {{Col: 1, Op: PredGe, Val: Int(0)}}}
	}
	seen := 0
	for _, p := range passes {
		cur := NewRangeCursorAt(snap, 0, -1, 0)
		cur.SetPreds(p)
		for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
			for _, i := range b.Sel {
				row := b.RowID(int(i))
				for c := range b.Cols {
					if got := b.Cols[c].Value(int(i)); got != want[row][c] {
						return fmt.Errorf("epoch %d: row %d column %d = %#v, want %#v", snap.Epoch(), row, c, got, want[row][c])
					}
				}
				seen++
			}
		}
		if err := cur.Err(); err != nil {
			return err
		}
	}
	if seen != len(want) {
		return fmt.Errorf("epoch %d: read %d rows of %d", snap.Epoch(), seen, len(want))
	}
	return nil
}

// patchedScanTable returns a table of chunks INTEGER cells in column a and
// FLOAT cells in column b, every sealed chunk of a carrying a full patch.
func patchedScanTable(tb testing.TB, chunks int) *Table {
	tb.Helper()
	schema, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindFloat})
	if err != nil {
		tb.Fatal(err)
	}
	tbl := NewTable("p", schema)
	for i := 0; i < chunks*ChunkRows; i++ {
		if err := tbl.Insert(Int(int64(i%1000)), Float(float64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	for c := 0; c < chunks; c++ {
		rows := make([]int, patchCells)
		vals := make([]Value, patchCells)
		for j := range rows {
			rows[j] = c*ChunkRows + j*(ChunkRows/patchCells)
			vals[j] = Int(int64(2000 + j))
		}
		if _, err := tbl.SetBatch(rows, []int{0}, [][]Value{vals}); err != nil {
			tb.Fatal(err)
		}
	}
	if got := patchedChunks(tbl.snap.Load()); got != chunks {
		tb.Fatalf("%d patched chunks, want %d", got, chunks)
	}
	return tbl
}

// foldedTwin returns a table holding tbl's cells with every patch folded.
func foldedTwin(tbl *Table) *Table {
	v := tbl.snap.Load()
	twin := NewTable(tbl.Name(), v.schema)
	nv, _ := compactApply(v, nil)
	twin.snap.Store(nv)
	return twin
}

// scanPatched drains a cursor projecting a filtered by a > 500, re-aimed at
// the whole snapshot, and returns the rows it selected.
func scanPatched(cur *Cursor) int {
	cur.Reset(0, -1)
	rows := 0
	for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
		rows += len(b.Sel)
	}
	return rows
}

// TestPatchedScanAllocatesNothing: a cursor re-aimed over patched chunks
// folds each projected window into buffers it keeps, so a scan after the
// first allocates nothing — and selects what the folded twin selects.
func TestPatchedScanAllocatesNothing(t *testing.T) {
	tbl := patchedScanTable(t, 4)
	counts := make([]int, 2)
	for k, tb := range []*Table{tbl, foldedTwin(tbl)} {
		snap := tb.Pin()
		cur := NewRangeCursorAt(snap, 0, -1, 0)
		cur.SetCols([]int{0})
		cur.SetPreds([]Pred{{Col: 0, Op: PredGt, Val: Int(500)}})
		counts[k] = scanPatched(cur)
		if allocs := testing.AllocsPerRun(20, func() { scanPatched(cur) }); allocs != 0 {
			t.Errorf("table %d: a repeated scan allocates %.1f objects", k, allocs)
		}
		snap.Release()
	}
	if counts[0] != counts[1] {
		t.Fatalf("patched scan selected %d rows, the folded twin %d", counts[0], counts[1])
	}
}

// BenchmarkScanPatchedColumn is a filtered projection — a > 500, a
// projected — over 16 chunks that each carry a full patch (patchCells
// cells of a), read through one re-aimed cursor as a morsel worker reads,
// beside the same scan of the same cells folded. The patched side re-tests
// the patched rows after each predicate kernel and folds each projected
// window into the cursor's own buffer.
func BenchmarkScanPatchedColumn(b *testing.B) {
	tbl := patchedScanTable(b, 16)
	for _, side := range []struct {
		name string
		tbl  *Table
	}{{"patched", tbl}, {"folded", foldedTwin(tbl)}} {
		b.Run(side.name, func(b *testing.B) {
			snap := side.tbl.Pin()
			defer snap.Release()
			cur := NewRangeCursorAt(snap, 0, -1, 0)
			cur.SetCols([]int{0})
			cur.SetPreds([]Pred{{Col: 0, Op: PredGt, Val: Int(500)}})
			want := scanPatched(cur)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := scanPatched(cur); got != want {
					b.Fatalf("scan %d selected %d rows, the first %d", i, got, want)
				}
			}
		})
	}
}

// TestAllNullPatchedTailSnapshotsAsNull: a tail a patch made all-NULL is
// written as the KindNull payload of a tail that was never anything but
// NULL, so a snapshot does not depend on how its cells were written.
func TestAllNullPatchedTailSnapshotsAsNull(t *testing.T) {
	schema, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindText})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("n", schema)
	for i, b := range []Value{Text("x"), Null(), Text("z")} {
		if err := tbl.Insert(Int(int64(i)), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.SetBatch([]int{0, 2}, []int{1}, [][]Value{{Null(), Null()}}); err != nil {
		t.Fatal(err)
	}
	if patchedChunks(tbl.snap.Load()) != 1 {
		t.Fatal("the write did not patch the tail")
	}
	var got, want memSections
	got.write(t, tbl)
	want.write(t, foldedTwin(tbl))
	if fmt.Sprint(got.kinds, got.body) != fmt.Sprint(want.kinds, want.body) {
		t.Fatalf("snapshot of the patched table\n%v\ndiffers from the unpatched one's\n%v", got.body, want.body)
	}
}
