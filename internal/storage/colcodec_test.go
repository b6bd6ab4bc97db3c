package storage

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

// payloadSeeds are fill vectors covering what the codec must carry
// exactly: float bit patterns (NaN, −0.0, ±Inf), an all-NULL typed
// column, an all-NULL untyped one, zero rows, TEXT with empty and
// multi-byte cells, and a bitmap that ends mid-byte.
func payloadSeeds() []*Vector {
	nulls := func(n int, idx ...int) []uint64 {
		w := make([]uint64, (n+63)/64)
		for _, i := range idx {
			w[i>>6] |= 1 << (uint(i) & 63)
		}
		return w
	}
	seeds := []*Vector{
		{Kind: KindFloat, Floats: []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), 1.5}},
		{Kind: KindFloat, Floats: []float64{0, 2.25, 0}, Nulls: nulls(3, 0, 2)},
		{Kind: KindBool, Bools: []bool{false, false, false}, Nulls: nulls(3, 0, 1, 2)},
		{Kind: KindNull, nullCells: 5},
		{Kind: KindBool, Bools: []bool{}},
		{Kind: KindInt, Ints: []int64{}},
		{Kind: KindText, Strs: []string{"", "añb", "", "x"}, Nulls: nulls(4, 2)},
		{Kind: KindInt, Ints: []int64{math.MinInt64, -1, 0, math.MaxInt64}},
	}
	long := &Vector{Kind: KindBool, Bools: make([]bool, 4099), Nulls: nulls(4099, 4097)}
	for i := range long.Bools {
		long.Bools[i] = i%3 == 0 && i != 4097
	}
	return append(seeds, long)
}

func TestColumnPayloadRoundTrip(t *testing.T) {
	for _, vec := range payloadSeeds() {
		n := vec.Len()
		enc := EncodeColumn(vec, n)
		got, err := DecodeColumn(enc)
		if err != nil {
			t.Fatalf("%s×%d: %v", vec.Kind, n, err)
		}
		if got.Kind != vec.Kind || got.Len() != n {
			t.Fatalf("decoded %s×%d, want %s×%d", got.Kind, got.Len(), vec.Kind, n)
		}
		for i := 0; i < n; i++ {
			a, b := vec.Value(i), got.Value(i)
			if a.IsNull() != b.IsNull() || (vec.Kind == KindFloat && !a.IsNull() && math.Float64bits(vec.Floats[i]) != math.Float64bits(got.Floats[i])) ||
				(vec.Kind != KindFloat && !a.Equal(b) && !a.IsNull()) {
				t.Fatalf("%s cell %d: %v became %v", vec.Kind, i, a, b)
			}
		}
		if again := EncodeColumn(got, n); !bytes.Equal(again, enc) {
			t.Fatalf("%s×%d: re-encoding differs:\n%x\n%x", vec.Kind, n, enc, again)
		}
	}
}

// A header may claim any cell count; the decoder must compare it with the
// bytes it was given before it allocates a single cell.
func TestDecodeColumnChecksLengthsBeforeAllocating(t *testing.T) {
	for _, kind := range []Kind{KindBool, KindInt, KindFloat, KindText} {
		huge := []byte{byte(kind), 1, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0} // 2³¹−1 cells, 3 bytes of them
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeColumn(huge)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "offset") {
			t.Fatalf("%s: err = %v, want a positioned error", kind, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("%s: rejecting a 9-byte payload allocated %d bytes", kind, grew)
		}
	}
}

func TestDecodeColumnRejectsNonCanonical(t *testing.T) {
	good := EncodeColumn(&Vector{Kind: KindBool, Bools: []bool{true, false, true}, Nulls: []uint64{2}}, 3)
	if _, err := DecodeColumn(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, b := range map[string][]byte{
		"short header":      good[:4],
		"unknown kind":      mutate(func(b []byte) []byte { b[0] = 9; return b }),
		"flag 2":            mutate(func(b []byte) []byte { b[1] = 2; return b }),
		"trailing byte":     append(append([]byte(nil), good...), 0),
		"cut short":         good[:len(good)-1],
		"cell pad bits":     mutate(func(b []byte) []byte { b[colHeader] |= 0x80; return b }),
		"null pad bits":     mutate(func(b []byte) []byte { b[colHeader+1] |= 0x10; return b }),
		"empty null bitmap": mutate(func(b []byte) []byte { b[colHeader+1] = 0; return b }),
		"value under NULL":  mutate(func(b []byte) []byte { b[colHeader] |= 2; return b }),
		"nulls on KindNull": {byte(KindNull), 1, 1, 0, 0, 0, 1},
	} {
		if _, err := DecodeColumn(b); err == nil || !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: err = %v, want a positioned error", name, err)
		}
	}
}

// FuzzFillPayload: any bytes either fail to decode with a positioned
// error or are the one encoding of the vector they decode to — and that
// vector fills a column whose cells read back as the vector's.
func FuzzFillPayload(f *testing.F) {
	for _, vec := range payloadSeeds() {
		f.Add(EncodeColumn(vec, vec.Len()))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindText), 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, b []byte) {
		vec, err := DecodeColumn(b)
		if err != nil {
			if !strings.Contains(err.Error(), "offset") {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		n := vec.Len()
		if n > 8*len(b) && vec.Kind != KindNull {
			t.Fatalf("%d cells out of %d bytes", n, len(b))
		}
		if again := EncodeColumn(vec, n); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, again)
		}
		if n > 3*ChunkRows || vec.Kind == KindNull {
			return
		}
		want := make([]Value, n)
		for i := range want {
			want[i] = vec.Value(i)
		}
		schema, _ := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "c", Kind: vec.Kind})
		tbl := NewTable("t", schema)
		for i := 0; i < n; i++ {
			if err := tbl.Insert(Int(int64(i)), Null()); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.FillColumnFrom("c", func(*Snap) (*Vector, error) { return vec, nil }); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			got, err := tbl.Value(i, 1)
			if err != nil || got.IsNull() != w.IsNull() || got.String() != w.String() {
				t.Fatalf("cell %d: got %v (%v), want %v", i, got, err, w)
			}
		}
	})
}

// The typed fill must leave a column exactly as the row-at-a-time builder
// would: tombstoned rows NULL, all-NULL chunks nil, no null set where no
// cell is NULL — across the sealed/tail boundary and with rows deleted.
func TestFillColumnFromLayout(t *testing.T) {
	schema, _ := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "f", Kind: KindFloat})
	tbl := NewTable("t", schema)
	const n = 2*ChunkRows + 100
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Int(int64(i)), Null()); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Delete([]int{5, ChunkRows + 7, 2*ChunkRows + 9})
	// Live row k gets k/2 — except the second chunk, all NULL, and one NULL in the tail.
	err := tbl.FillColumnFrom("f", func(at *Snap) (*Vector, error) {
		rows := at.LiveRowIDs()
		if len(rows) != n-3 || at.NumLive() != n-3 {
			t.Fatalf("%d live rows", len(rows))
		}
		vec := &Vector{Kind: KindFloat, Floats: make([]float64, len(rows)), Nulls: make([]uint64, (len(rows)+63)/64)}
		for k, row := range rows {
			if (row >= ChunkRows && row < 2*ChunkRows) || row == n-1 {
				vec.Floats[k] = 99 // conformFill must zero what hides under a NULL
				vec.Nulls[k>>6] |= 1 << (uint(k) & 63)
			} else {
				vec.Floats[k] = float64(k) / 2
			}
		}
		return vec, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v := tbl.snap.Load()
	cd := v.cols[1]
	if len(cd.chunks) != 2 || cd.chunks[0] == nil || cd.chunks[1] != nil || cd.tail == nil {
		t.Fatalf("chunks %v tail %v: want [filled, nil] and a tail", cd.chunks, cd.tail)
	}
	if cd.chunks[0].nulls == nil || cd.chunks[0].len() != ChunkRows || cd.tail.len() != 100 || cd.tail.flags == nil {
		t.Fatalf("chunk 0 nulls %v len %d, tail len %d flags %v", cd.chunks[0].nulls != nil, cd.chunks[0].len(), cd.tail.len(), cd.tail.flags != nil)
	}
	k := 0
	tbl.Scan(func(row int, r Row) bool {
		wantNull := (row >= ChunkRows && row < 2*ChunkRows) || row == n-1
		if f, ok := r[1].AsFloat(); wantNull != r[1].IsNull() || (ok && f != float64(k)/2) {
			t.Fatalf("row %d (live %d): %v", row, k, r[1])
		}
		k++
		return true
	})
	if k != n-3 {
		t.Fatalf("scanned %d rows", k)
	}
	// An Insert after the fill grows the adopted tail like any other.
	if err := tbl.Insert(Int(n), Float(7)); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.Value(n, 1); got.String() != Float(7).String() {
		t.Fatalf("appended cell reads %v", got)
	}
	if got, _ := tbl.Value(n-2, 1); got.IsNull() {
		t.Fatal("the tail lost a cell when it grew")
	}
}

func TestFillColumnFromRejectsMismatch(t *testing.T) {
	schema, _ := NewSchema(Column{Name: "b", Kind: KindBool})
	tbl := NewTable("t", schema)
	for i := 0; i < 3; i++ {
		if err := tbl.Insert(Null()); err != nil {
			t.Fatal(err)
		}
	}
	for name, vec := range map[string]*Vector{
		"wrong kind":    {Kind: KindInt, Ints: make([]int64, 3)},
		"wrong length":  {Kind: KindBool, Bools: make([]bool, 2)},
		"boxed":         {Vals: make([]Value, 3)},
		"null past end": {Kind: KindBool, Bools: make([]bool, 3), Nulls: []uint64{1 << 3}},
	} {
		if err := tbl.FillColumnFrom("b", func(*Snap) (*Vector, error) { return vec, nil }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got, _ := tbl.Value(0, 0); !got.IsNull() {
		t.Fatal("a rejected fill changed the column")
	}
}
