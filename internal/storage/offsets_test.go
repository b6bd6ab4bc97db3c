package storage

import (
	"runtime"
	"sync"
	"testing"
)

// offsetsTable holds chunks full chunks of a = i mod 1000 (an INTEGER)
// and b = i: a range on a selects part of every window.
func offsetsTable(tb testing.TB, chunks int) *Table {
	tb.Helper()
	schema, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindFloat})
	if err != nil {
		tb.Fatal(err)
	}
	tbl := NewTable("o", schema)
	for i := 0; i < chunks*ChunkRows; i++ {
		if err := tbl.Insert(Int(int64(i%1000)), Float(float64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// morselScan reads snap the way a morsel worker of a fresh statement does:
// one new cursor over every chunk-sized window, read to its end, each
// window selected by preds.
func morselScan(snap *Snap, preds []Pred) int {
	rows := 0
	for lo := 0; lo < snap.NumRows(); lo += ChunkRows {
		cur := NewRangeCursorAt(snap, lo, lo+ChunkRows, 0)
		cur.SetCols([]int{0})
		cur.SetPreds(preds)
		for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
			rows += len(b.Sel)
		}
		cur.Close()
	}
	return rows
}

// TestPartlySelectedMorselsTakeNoNewOffsets: a window only partly selected
// hands its rows up as offsets, a window's worth of int32 per cursor. The
// arrays come from the free list and go back in Close, so once one run has
// filled the list a scan of fresh cursors over partly selected windows
// allocates what one over wholly selected windows does: nothing for its
// offsets.
func TestPartlySelectedMorselsTakeNoNewOffsets(t *testing.T) {
	tbl := offsetsTable(t, 4)
	snap := tbl.Pin()
	defer snap.Release()
	whole := []Pred{{Col: 0, Op: PredGe, Val: Int(0)}}
	partly := []Pred{{Col: 0, Op: PredGt, Val: Int(500)}}
	if got := morselScan(snap, whole); got != 4*ChunkRows {
		t.Fatalf("a >= 0 selects %d rows, want %d", got, 4*ChunkRows)
	}
	if got := morselScan(snap, partly); got == 0 || got >= 4*ChunkRows {
		t.Fatalf("a > 500 selects %d of %d rows", got, 4*ChunkRows)
	}
	wholeAllocs := testing.AllocsPerRun(20, func() { morselScan(snap, whole) })
	partlyAllocs := testing.AllocsPerRun(20, func() { morselScan(snap, partly) })
	if partlyAllocs > wholeAllocs {
		t.Fatalf("a scan of partly selected windows allocates %.1f objects, one of wholly selected windows %.1f: the offsets are made, not taken", partlyAllocs, wholeAllocs)
	}
}

// TestOffsetsFreeListRacesClosingCursors: readers check every batch's
// selection — twice, with a yield between — while other goroutines' cursors
// close, abandon reads half way and give their arrays back. An array handed
// to two cursors at once is a data race (go test -race) or a selection that
// changes under its reader.
func TestOffsetsFreeListRacesClosingCursors(t *testing.T) {
	tbl := offsetsTable(t, 3)
	snap := tbl.Pin()
	defer snap.Release()
	const goroutines, rounds = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// All but a few rows of every window.
			preds := []Pred{{Col: 0, Op: PredNe, Val: Int(int64(g))}}
			for r := 0; r < rounds; r++ {
				cur := NewRangeCursorAt(snap, 0, -1, 0)
				cur.SetCols([]int{0})
				cur.SetPreds(preds)
				for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
					check := func() {
						if len(b.Sel) >= b.N {
							t.Errorf("goroutine %d: all %d cells selected", g, b.N)
						}
						for k, i := range b.Sel {
							if a, _ := b.Cols[0].Value(int(i)).AsInt(); a == int64(g) || k > 0 && i <= b.Sel[k-1] {
								t.Errorf("goroutine %d: selection holds cell %d (a = %d) after %d", g, i, a, k)
								return
							}
						}
					}
					check()
					runtime.Gosched()
					check()
					if r%3 == 0 {
						break // abandon the read: Close gives the array back mid-scan
					}
				}
				cur.Close()
				cur.Close() // twice: the array goes back once
			}
		}(g)
	}
	wg.Wait()
	offsetArrays.mu.Lock()
	defer offsetArrays.mu.Unlock()
	for i, a := range offsetArrays.free {
		for _, b := range offsetArrays.free[:i] {
			if &a[:1][0] == &b[:1][0] {
				t.Fatal("the free list holds one array twice")
			}
		}
	}
}
