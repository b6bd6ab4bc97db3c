package storage

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// kernelCell is the deterministic cell i of a test column of the given
// kind: a small value domain (so every operator selects some rows and
// rejects others), a NaN among the floats, and NULL wherever nulls asks.
func kernelCell(kind Kind, i int, nulls bool) Value {
	if nulls && i%5 == 2 {
		return Null()
	}
	switch kind {
	case KindInt:
		return Int(int64(i%7) - 2)
	case KindFloat:
		if i%11 == 10 {
			return Float(math.NaN())
		}
		return Float(float64(i%9)/2 - 1)
	case KindBool:
		return Bool(i%3 == 0)
	default:
		return Text(fmt.Sprintf("t%d", i%6))
	}
}

// kernelTail builds an n-cell tail through appendTail, the way Insert
// does.
func kernelTail(kind Kind, n int, nulls bool) *chunk {
	var tail *chunk
	for i := 0; i < n; i++ {
		tail = appendTail(kind, tail, i, kernelCell(kind, i, nulls))
	}
	return tail
}

// TestPredKernelsMatchPredMatch is the kernel-vs-reference differential:
// for every column kind × operator × literal class (NULL and mismatched
// classes included), over sealed chunks and tails with and without a
// null set, word-aligned and shifted windows, and the all-NULL nil
// window, evalPredWindow must leave exactly the bits predMatch accepts —
// and never resurrect a bit that was already cleared.
func TestPredKernelsMatchPredMatch(t *testing.T) {
	literals := []Value{
		Null(),
		Bool(true), Bool(false),
		Int(0), Int(3), Int(-2),
		Float(1.5), Float(0), Float(-1), Float(math.NaN()),
		Text("t3"), Text(""), Text("zzz"),
	}
	type layout struct {
		name   string
		sealed bool
		nulls  bool
		off, n int
	}
	layouts := []layout{
		{"sealed", true, false, 0, ChunkRows},
		{"sealed+nulls", true, true, 0, ChunkRows},
		{"sealed+nulls aligned window", true, true, 128, 150},
		{"sealed+nulls shifted window", true, true, 37, 201},
		{"sealed shifted window", true, false, 5, 64},
		{"tail", false, false, 0, 300},
		{"tail+flags", false, true, 0, 300},
		{"tail+flags shifted window", false, true, 9, 130},
	}
	for _, kind := range []Kind{KindInt, KindFloat, KindBool, KindText} {
		for _, lay := range layouts {
			c := kernelTail(kind, ChunkRows, lay.nulls)
			if lay.sealed {
				c = sealTail(c)
				if (c.nulls != nil) != lay.nulls || c.flags != nil {
					t.Fatalf("%s %s: sealed chunk has nulls=%v flags=%v", kind, lay.name, c.nulls != nil, c.flags != nil)
				}
			} else if (c.flags != nil) != lay.nulls {
				t.Fatalf("%s %s: tail has flags=%v", kind, lay.name, c.flags != nil)
			}
			w := &window{c: c, off: lay.off}
			w.setNulls(lay.n)
			for op := PredEq; op <= PredNotNull; op++ {
				for _, lit := range literals {
					checkKernel(t, fmt.Sprintf("%s column, %s", kind, lay.name), Pred{Op: op, Val: lit}, w, lay.n)
				}
			}
		}
	}
	// The nil window: an unfilled expansion column, whatever its kind.
	for op := PredEq; op <= PredNotNull; op++ {
		for _, lit := range literals {
			checkKernel(t, "nil window", Pred{Op: op, Val: lit}, &window{}, 200)
		}
	}
}

func checkKernel(t *testing.T, what string, p Pred, w *window, n int) {
	t.Helper()
	sel := make([]uint64, (n+63)/64)
	fillOnes(sel, n)
	for i := 0; i < n; i += 4 {
		sel[i>>6] &^= 1 << (uint(i) & 63) // an earlier predicate's rejects
	}
	evalPredWindow(p, w, n, sel)
	for i := 0; i < n; i++ {
		cell := Null()
		if w.c != nil {
			cell = w.c.at(w.off + i)
		}
		want := i%4 != 0 && predMatch(p, cell)
		if got := sel[i>>6]&(1<<(uint(i)&63)) != 0; got != want {
			t.Fatalf("%s: op %d literal %#v, row %d (cell %#v): kernel keeps=%v, predMatch says %v",
				what, p.Op, p.Val, i, cell, got, want)
		}
	}
	if n&63 != 0 && sel[len(sel)-1]>>(uint(n)&63) != 0 {
		t.Fatalf("%s: op %d literal %#v set bits past the window", what, p.Op, p.Val)
	}
}

// TestAllNullColumnsStayNil pins the resident cost of an unfilled
// expansion: inserting NULLs into an expanded column — across a seal —
// allocates nothing for it, a KindNull column can never be anything but
// nil, and the first real value materializes only the chunk it lands in.
func TestAllNullColumnsStayNil(t *testing.T) {
	schema, err := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "void", Kind: KindNull})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	for i := 0; i < ChunkRows+10; i++ {
		if err := tbl.Insert(Int(int64(i)), Null()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.AddColumn(Column{Name: "genre", Kind: KindBool, Origin: ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ChunkRows; i++ {
		if err := tbl.Insert(Int(int64(i)), Null(), Null()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(Int(0), Bool(true), Null()); err == nil {
		t.Fatal("a KindNull column accepted a non-NULL value")
	}
	v := tbl.snap.Load()
	for _, col := range []int{1, 2} {
		cd := *v.col(col)
		if len(cd.chunks) != 2 || cd.chunks[0] != nil || cd.chunks[1] != nil || cd.tail != nil {
			t.Fatalf("column %d: chunks=%v tail=%v, want all nil", col, cd.chunks, cd.tail)
		}
	}
	if err := tbl.Set(ChunkRows+5, 2, Bool(true)); err != nil {
		t.Fatal(err)
	}
	v = tbl.snap.Load()
	if cd := v.col(2); cd.chunks[0] != nil || cd.chunks[1] == nil || cd.tail != nil {
		t.Fatalf("after one Set: chunks=%v tail=%v, want only chunk 1 materialized", cd.chunks, cd.tail)
	}
	if got := v.value(ChunkRows+5, 2); got != Bool(true) {
		t.Fatalf("Set cell reads %#v", got)
	}
	if got := v.value(ChunkRows+6, 2); !got.IsNull() {
		t.Fatalf("neighbour of the Set cell reads %#v, want NULL", got)
	}
}

// TestTailNullsRacePinnedCursors is the -race gate of the tail's
// byte-per-row null flags: an inserter appends rows carrying NULLs in
// every kind of column (the first NULL of a tail arrives after rows that
// had none, so the flags array is retrofitted mid-tail, and the stream
// crosses seals) while readers keep pinning cursors on the growing tail.
// Every cursor must see exactly its snapshot's rows, each with the NULLs
// and payloads its ID dictates; an IS NULL sweep packs the flags under
// the same race.
func TestTailNullsRacePinnedCursors(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "b", Kind: KindBool},
		Column{Name: "s", Kind: KindText},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	const total = 2*ChunkRows + 700
	isNull := func(id int) bool { return id%ChunkRows >= 100 && id%7 == 3 }
	rowOf := func(id int) []Value {
		if isNull(id) {
			return []Value{Int(int64(id)), Null(), Null(), Null()}
		}
		return []Value{Int(int64(id)), Float(float64(id) / 2), Bool(id%2 == 0), Text(fmt.Sprint("r", id))}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for id := 0; id < total; id++ {
			if err := tbl.Insert(rowOf(id)...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for final := false; !final; {
				final = done.Load() // one more scan after the last Insert
				snap := tbl.Pin()
				n := snap.NumRows()
				cur := NewRangeCursorAt(snap, 0, -1, 0)
				id := 0
				for {
					row, ok := cur.Next()
					if !ok {
						break
					}
					want := rowOf(id)
					for c := range want {
						if row[c] != want[c] {
							t.Errorf("snapshot of %d rows: row %d column %d = %#v, want %#v", n, id, c, row[c], want[c])
							snap.Release()
							return
						}
					}
					id++
				}
				nulls := NewRangeCursorAt(snap, 0, -1, 0)
				nulls.SetPreds([]Pred{{Col: 2, Op: PredIsNull}})
				gotNulls := 0
				for {
					if _, ok := nulls.Next(); !ok {
						break
					}
					gotNulls++
				}
				snap.Release()
				wantNulls := 0
				for i := 0; i < n; i++ {
					if isNull(i) {
						wantNulls++
					}
				}
				if cur.Err() != nil || nulls.Err() != nil || id != n || gotNulls != wantNulls {
					t.Errorf("snapshot of %d rows: scanned %d, %d NULLs (want %d), errs %v / %v",
						n, id, gotNulls, wantNulls, cur.Err(), nulls.Err())
					return
				}
			}
		}()
	}
	wg.Wait()
	if tbl.NumRows() != total {
		t.Fatalf("NumRows = %d, want %d", tbl.NumRows(), total)
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerCell guards the point of typed chunks in tier-1,
// without running the benchmark: 100k rows of four numeric columns must
// stay within 10 resident bytes per cell (8 of payload, no null set, and
// change for headers) — a boxed Value alone is 40.
func TestResidentBytesPerCell(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "rid", Kind: KindInt},
		Column{Name: "movie_id", Kind: KindInt},
		Column{Name: "usr", Kind: KindInt},
		Column{Name: "score", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 100_000
	before := heapAfterGC()
	tbl := NewTable("ratings", schema)
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(Int(int64(i)), Int(int64(i%4000)), Int(int64(i%1000)), Float(float64(i%10)/2)); err != nil {
			t.Fatal(err)
		}
	}
	perCell := (float64(heapAfterGC()) - float64(before)) / (4 * rows)
	runtime.KeepAlive(tbl)
	t.Logf("%.2f resident bytes per cell", perCell)
	if perCell > 10 {
		t.Fatalf("%.2f resident bytes per cell, want <= 10", perCell)
	}
}
