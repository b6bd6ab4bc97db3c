package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crowddb/internal/storage"
)

// k wraps single values into the key-tuple form the index API takes.
func k(vs ...storage.Value) []storage.Value { return vs }

func TestHashLookupEqualSemantics(t *testing.T) {
	h := NewHash("ix", []string{"c"})
	h.Add(0, k(storage.Int(2)))
	h.Add(1, k(storage.Float(2.0)))
	h.Add(2, k(storage.Float(2.5)))
	h.Add(3, k(storage.Text("2")))
	h.Add(4, k(storage.Null()))
	h.Add(5, k(storage.Bool(true)))

	// Int and integral Float collide (Value.Equal compares numerics via
	// float64); text "2" and bool stay apart; NULL is never indexed.
	if got := h.Lookup(k(storage.Int(2))); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Lookup(2) = %v", got)
	}
	if got := h.Lookup(k(storage.Float(2.5))); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Lookup(2.5) = %v", got)
	}
	if got := h.Lookup(k(storage.Text("2"))); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Lookup('2') = %v", got)
	}
	if got := h.Lookup(k(storage.Null())); got != nil {
		t.Fatalf("Lookup(NULL) = %v", got)
	}
	if h.Entries() != 5 {
		t.Fatalf("Entries = %d, want 5 (NULL skipped)", h.Entries())
	}
}

func TestHashReplaceAndRemove(t *testing.T) {
	h := NewHash("ix", []string{"c"})
	h.Add(0, k(storage.Int(1)))
	h.Add(1, k(storage.Int(1)))
	h.Replace(0, k(storage.Int(1)), k(storage.Int(9)))
	if got := h.Lookup(k(storage.Int(1))); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Lookup(1) = %v", got)
	}
	if got := h.Lookup(k(storage.Int(9))); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Lookup(9) = %v", got)
	}
	// NULL → value transition (the crowd-fill Set path).
	h.Replace(2, k(storage.Null()), k(storage.Int(9)))
	if got := h.Lookup(k(storage.Int(9))); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Lookup(9) after NULL fill = %v", got)
	}
	// Point-wise Remove (the tombstone Delete hook).
	h.Remove(0, k(storage.Int(9)))
	if got := h.Lookup(k(storage.Int(9))); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Lookup(9) after remove = %v", got)
	}
	if h.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", h.Entries())
	}
}

func TestHashCompositeKey(t *testing.T) {
	h := NewHash("ix", []string{"a", "b"})
	h.Add(0, k(storage.Text("x"), storage.Int(1)))
	h.Add(1, k(storage.Text("x"), storage.Int(2)))
	h.Add(2, k(storage.Text("xy"), storage.Int(1))) // must not alias ("x","y1")-style splits
	h.Add(3, k(storage.Text("x"), storage.Null()))  // NULL component: skipped whole

	if got := h.Lookup(k(storage.Text("x"), storage.Int(1))); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Lookup(x,1) = %v", got)
	}
	if got := h.Lookup(k(storage.Text("xy"), storage.Int(1))); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Lookup(xy,1) = %v", got)
	}
	if got := h.Lookup(k(storage.Text("x"))); got != nil {
		t.Fatalf("prefix lookup = %v, want nil (full key required)", got)
	}
	if h.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", h.Entries())
	}
	// Int/Float collision holds per component.
	if got := h.Lookup(k(storage.Text("x"), storage.Float(2.0))); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Lookup(x,2.0) = %v", got)
	}
}

// TestOrderedMatchesSortReference drives the ordered index through enough
// random inserts to force delta merges and checks every range shape
// against a brute-force reference.
func TestOrderedMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := NewOrdered("ix", []string{"c"}, []bool{false})
	const n = 5000
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = float64(rng.Intn(200)) // heavy duplication
		o.Add(i, k(storage.Float(vals[i])))
	}
	ref := func(pred func(float64) bool) []int {
		type pair struct {
			v   float64
			row int
		}
		var ps []pair
		for i, v := range vals {
			if pred(v) {
				ps = append(ps, pair{v, i})
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].v != ps[j].v {
				return ps[i].v < ps[j].v
			}
			return ps[i].row < ps[j].row
		})
		out := make([]int, len(ps))
		for i, p := range ps {
			out[i] = p.row
		}
		return out
	}
	lo, hi := storage.Float(50), storage.Float(150)
	cases := []struct {
		name string
		got  []int
		want []int
	}{
		{"closed", o.Range(&lo, &hi, true, true), ref(func(v float64) bool { return v >= 50 && v <= 150 })},
		{"open", o.Range(&lo, &hi, false, false), ref(func(v float64) bool { return v > 50 && v < 150 })},
		{"lo only", o.Range(&lo, nil, true, false), ref(func(v float64) bool { return v >= 50 })},
		{"hi only", o.Range(nil, &hi, false, false), ref(func(v float64) bool { return v < 150 })},
		{"full", o.Range(nil, nil, false, false), ref(func(v float64) bool { return true })},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: got %d ids, want %d (first-diff check)", c.name, len(c.got), len(c.want))
		}
	}
	point := storage.Float(77)
	if got, want := o.Lookup(k(point)), ref(func(v float64) bool { return v == 77 }); !reflect.DeepEqual(got, want) {
		t.Fatalf("Lookup(77): got %d ids, want %d", len(got), len(want))
	}
}

func rebuildCols(vals ...storage.Value) [][]storage.Value {
	return [][]storage.Value{vals}
}

func TestOrderedReplaceAndRebuild(t *testing.T) {
	o := NewOrdered("ix", []string{"c"}, []bool{false})
	o.Rebuild(rebuildCols(storage.Int(3), storage.Int(1), storage.Null(), storage.Int(2)), nil)
	if o.Entries() != 3 {
		t.Fatalf("Entries = %d", o.Entries())
	}
	if got := o.Range(nil, nil, false, false); !reflect.DeepEqual(got, []int{1, 3, 0}) {
		t.Fatalf("full range = %v, want key order [1 3 0]", got)
	}
	o.Replace(2, k(storage.Null()), k(storage.Int(0))) // fill the NULL
	o.Replace(0, k(storage.Int(3)), k(storage.Int(5)))
	if got := o.Range(nil, nil, false, false); !reflect.DeepEqual(got, []int{2, 1, 3, 0}) {
		t.Fatalf("after replace = %v", got)
	}
	lo := storage.Int(2)
	if got := o.Range(&lo, nil, true, false); !reflect.DeepEqual(got, []int{3, 0}) {
		t.Fatalf(">=2 = %v", got)
	}
}

func TestOrderedRebuildSkipsTombstones(t *testing.T) {
	o := NewOrdered("ix", []string{"c"}, []bool{false})
	skip := make([]uint64, 1)
	skip[0] |= 1 << 1 // row 1 tombstoned
	o.Rebuild(rebuildCols(storage.Int(3), storage.Int(1), storage.Int(2)), skip)
	if o.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", o.Entries())
	}
	if got := o.Range(nil, nil, false, false); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("full range = %v, want [2 0]", got)
	}
}

func TestOrderedCrossKindProbe(t *testing.T) {
	o := NewOrdered("ix", []string{"c"}, []bool{false})
	o.Rebuild(rebuildCols(storage.Int(10), storage.Int(20)), nil)
	// An int probe against (conceptually float-typed) numeric entries
	// matches through float comparison; a text probe lands in an empty
	// class region.
	if got := o.Lookup(k(storage.Float(10.0))); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Lookup(10.0) = %v", got)
	}
	if got := o.Lookup(k(storage.Text("10"))); got != nil {
		t.Fatalf("Lookup('10') = %v, want nil", got)
	}
}

func TestOrderedDescLeadingColumn(t *testing.T) {
	o := NewOrdered("ix", []string{"c"}, []bool{true})
	for i, v := range []int64{30, 10, 20, 20} {
		o.Add(i, k(storage.Int(v)))
	}
	// Index order is value-descending, ties ascending by row ID.
	if got := o.Range(nil, nil, false, false); !reflect.DeepEqual(got, []int{0, 2, 3, 1}) {
		t.Fatalf("full range = %v, want [0 2 3 1]", got)
	}
	// Bounds stay in VALUE space: lo=15 means value ≥ 15.
	lo := storage.Int(15)
	if got := o.Range(&lo, nil, true, false); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf(">=15 = %v, want [0 2 3]", got)
	}
	hi := storage.Int(20)
	if got := o.Range(nil, &hi, false, true); !reflect.DeepEqual(got, []int{2, 3, 1}) {
		t.Fatalf("<=20 = %v, want [2 3 1]", got)
	}
	if got := o.Lookup(k(storage.Int(20))); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("Lookup(20) = %v", got)
	}
}

func TestOrderedCompositeDirsAndRangeWithKeys(t *testing.T) {
	// (genre ASC, year DESC): within a genre, newest first.
	o := NewOrdered("ix", []string{"genre", "year"}, []bool{false, true})
	add := func(row int, g string, y int64) { o.Add(row, k(storage.Text(g), storage.Int(y))) }
	add(0, "drama", 1999)
	add(1, "comedy", 2005)
	add(2, "drama", 2011)
	add(3, "comedy", 1990)
	add(4, "drama", 2011) // tie on full key → row order

	if got := o.Range(nil, nil, false, false); !reflect.DeepEqual(got, []int{1, 3, 2, 4, 0}) {
		t.Fatalf("full range = %v, want [1 3 2 4 0]", got)
	}
	lo := storage.Text("drama")
	ids, keys := o.RangeWithKeys(&lo, nil, true, false)
	if !reflect.DeepEqual(ids, []int{2, 4, 0}) {
		t.Fatalf("RangeWithKeys ids = %v", ids)
	}
	if len(keys) != 3 {
		t.Fatalf("RangeWithKeys keys = %d tuples", len(keys))
	}
	if y, _ := keys[0][1].AsInt(); y != 2011 {
		t.Fatalf("keys[0] year = %v", keys[0][1])
	}
	if g, _ := keys[2][0].AsText(); g != "drama" {
		t.Fatalf("keys[2] genre = %v", keys[2][0])
	}
	// Full-key lookup.
	if got := o.Lookup(k(storage.Text("drama"), storage.Int(2011))); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("Lookup(drama,2011) = %v", got)
	}
	// Point-wise remove keeps the twin.
	o.Remove(2, k(storage.Text("drama"), storage.Int(2011)))
	if got := o.Lookup(k(storage.Text("drama"), storage.Int(2011))); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("Lookup after remove = %v", got)
	}
}

func TestNewKinds(t *testing.T) {
	if idx, err := New(KindHash, "a", "c"); err != nil || idx.Ordered() {
		t.Fatalf("New hash: %v %v", idx, err)
	}
	if idx, err := New(KindOrdered, "a", "c"); err != nil || !idx.Ordered() {
		t.Fatalf("New ordered: %v %v", idx, err)
	}
	if _, err := New(Kind("btree"), "a", "c"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	idx, err := NewComposite(KindOrdered, "a", []string{"x", "y"}, []bool{false, true})
	if err != nil || !reflect.DeepEqual(idx.Columns(), []string{"x", "y"}) || !reflect.DeepEqual(idx.Dirs(), []bool{false, true}) {
		t.Fatalf("NewComposite: %v %v", idx, err)
	}
}

// TestCountRangeEqualsRangeLength is the property the planner's
// count-before-probe rests on: under any history of Add, Remove, Replace
// and Rebuild — entries in the base run and in the delta buffer, delta
// merges crossed — CountRange is len(Range) for any bounds, ASC or DESC.
func TestCountRangeEqualsRangeLength(t *testing.T) {
	for _, desc := range []bool{false, true} {
		rng := rand.New(rand.NewSource(31))
		o := NewOrdered("ix", []string{"c"}, []bool{desc})
		vals := map[int]storage.Value{} // the model: row → its value
		draw := func() storage.Value {
			switch rng.Intn(12) {
			case 0:
				return storage.Null()
			case 1:
				return storage.Float(float64(rng.Intn(200)) + 0.5)
			default:
				return storage.Int(int64(rng.Intn(200)))
			}
		}
		bound := func() *storage.Value {
			if rng.Intn(5) == 0 {
				return nil
			}
			v := storage.Value(storage.Float(float64(rng.Intn(220)-10) / 2))
			if rng.Intn(2) == 0 {
				v = storage.Int(int64(rng.Intn(220) - 10))
			}
			return &v
		}
		check := func(step int) {
			t.Helper()
			for probe := 0; probe < 8; probe++ {
				lo, hi, loInc, hiInc := bound(), bound(), rng.Intn(2) == 0, rng.Intn(2) == 0
				if got, want := o.CountRange(lo, hi, loInc, hiInc), len(o.Range(lo, hi, loInc, hiInc)); got != want {
					t.Fatalf("desc=%v step %d: CountRange = %d, len(Range) = %d (lo %v inc %v, hi %v inc %v; base %d delta %d)",
						desc, step, got, want, lo, loInc, hi, hiInc, len(o.base), len(o.delta))
				}
			}
			if got := o.CountRange(nil, nil, false, false); got != o.Entries() {
				t.Fatalf("desc=%v step %d: open CountRange = %d, Entries = %d", desc, step, got, o.Entries())
			}
		}
		check(-1) // the empty index
		nextRow := 0
		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(100); {
			case op < 60 || len(vals) == 0:
				v := draw()
				o.Add(nextRow, k(v))
				vals[nextRow] = v
				nextRow++
			case op < 78:
				row := rng.Intn(nextRow)
				if v, ok := vals[row]; ok {
					o.Remove(row, k(v))
					delete(vals, row)
				}
			case op < 98:
				row := rng.Intn(nextRow)
				if v, ok := vals[row]; ok {
					nv := draw()
					o.Replace(row, k(v), k(nv))
					vals[row] = nv
				}
			default:
				col := make([]storage.Value, nextRow)
				skip := make([]uint64, (nextRow+63)/64)
				for row := range col {
					if v, ok := vals[row]; ok {
						col[row] = v
					} else {
						skip[row>>6] |= 1 << (uint(row) & 63)
					}
				}
				o.Rebuild([][]storage.Value{col}, skip)
			}
			if step%40 == 0 {
				check(step)
			}
		}
		if len(o.base) == 0 || len(o.delta) == 0 {
			t.Fatalf("desc=%v: the history ended with base %d, delta %d entries: both runs should hold some", desc, len(o.base), len(o.delta))
		}
		check(6000)
	}
}
