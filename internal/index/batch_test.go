package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"crowddb/internal/storage"
)

// entriesOf lists an index's (row → key text) pairs through its probes.
func entriesOf(idx storage.ColumnIndex, keys map[int][]storage.Value) map[int]string {
	out := map[int]string{}
	for row, key := range keys {
		for _, id := range idx.Lookup(key) {
			if id == row {
				out[row] = fmt.Sprint(key)
			}
		}
	}
	return out
}

// RemoveRows must leave exactly what removing the same rows one by one
// leaves, for every index kind, key shape and direction, whichever run
// holds the entries — including rows with no entry (a NULL in the key) and
// the one-row case, which takes the point-wise path.
func TestRemoveRowsMatchesPointwiseRemove(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() storage.ColumnIndex
		cols int
	}{
		{"hash", func() storage.ColumnIndex { return NewHash("h", []string{"a"}) }, 1},
		{"ordered", func() storage.ColumnIndex { return NewOrdered("o", []string{"a"}, []bool{false}) }, 1},
		{"ordered-desc", func() storage.ColumnIndex { return NewOrdered("o", []string{"a"}, []bool{true}) }, 1},
		{"composite", func() storage.ColumnIndex { return NewOrdered("o", []string{"a", "b"}, []bool{false, true}) }, 2},
		{"hash-composite", func() storage.ColumnIndex { return NewHash("h", []string{"a", "b"}) }, 2},
	}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			batch, pointwise := shape.mk(), shape.mk()
			keys := map[int][]storage.Value{}
			n := 1500 + rng.Intn(2000) // past deltaMax: base and delta both populated
			for row := 0; row < n; row++ {
				key := make([]storage.Value, shape.cols)
				for c := range key {
					key[c] = storage.Int(int64(rng.Intn(40)))
					if rng.Intn(12) == 0 {
						key[c] = storage.Null()
					}
				}
				keys[row] = key
				batch.Add(row, key)
				pointwise.Add(row, key)
			}
			keyOf := func(row int) ([]storage.Value, bool) {
				key := keys[row]
				return key, !keyHasNull(key)
			}
			for round := 0; round < 6; round++ {
				k := []int{1, 2, 7, 200, 900, 1}[round]
				var rows []int
				for row := range keys {
					if len(rows) < k {
						rows = append(rows, row)
					}
				}
				sort.Ints(rows)
				batch.RemoveRows(rows, keyOf)
				for _, row := range rows {
					if key, ok := keyOf(row); ok {
						pointwise.Remove(row, key)
					}
					delete(keys, row)
				}
				if batch.Entries() != pointwise.Entries() {
					t.Fatalf("%s seed %d round %d: %d entries after RemoveRows, %d after Remove", shape.name, seed, round, batch.Entries(), pointwise.Entries())
				}
				if got, want := fmt.Sprint(batch.Range(nil, nil, false, false)), fmt.Sprint(pointwise.Range(nil, nil, false, false)); got != want {
					t.Fatalf("%s seed %d round %d: full Range differs\n%s\n%s", shape.name, seed, round, got, want)
				}
				if got, want := entriesOf(batch, keys), entriesOf(pointwise, keys); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d round %d: Lookup differs", shape.name, seed, round)
				}
			}
		}
	}
}

// mergeDelta folds the delta into the base in place: the order it leaves is
// the order a sort of all entries gives, and an index taking steady inserts
// reallocates its base run rarely, not at every merge.
func TestMergeDeltaInPlace(t *testing.T) {
	for _, desc := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		o := NewOrdered("o", []string{"a"}, []bool{desc})
		const loaded = 50000
		col := make([]storage.Value, loaded)
		for i := range col {
			col[i] = storage.Int(int64(rng.Intn(5000)))
		}
		o.Rebuild([][]storage.Value{col}, nil)
		bases := map[*entry]bool{}
		for row := loaded; row < loaded+20*deltaMax; row++ {
			o.Add(row, []storage.Value{storage.Int(int64(rng.Intn(5000)))})
			bases[&o.base[0]] = true
		}
		if len(o.delta) != 0 || len(o.base) != loaded+20*deltaMax {
			t.Fatalf("desc=%v: base %d, delta %d after 20 full merges", desc, len(o.base), len(o.delta))
		}
		if len(bases) > 3 {
			t.Fatalf("desc=%v: the base run was reallocated %d times in 20 merges", desc, len(bases)-1)
		}
		if !sort.SliceIsSorted(o.base, func(i, j int) bool { return o.less(o.base[i], o.base[j]) }) {
			t.Fatalf("desc=%v: the merged base is not sorted", desc)
		}
		seen := map[int]bool{}
		for _, e := range o.base {
			seen[e.row] = true
		}
		if len(seen) != len(o.base) {
			t.Fatalf("desc=%v: %d distinct rows among %d entries", desc, len(seen), len(o.base))
		}
	}
}

// The in-place merge rewrites the run probes read. Both happen under the
// owning table's index lock — probes through PinIndexProbe, inserts in the
// critical section that publishes their version — so a probe loop beside an
// insert loop is race-free (this test is for -race) and every probe sees a
// consistent pair: IDs that name rows of the pinned snapshot carrying keys
// inside the probed range.
func TestProbesBesideInPlaceMerges(t *testing.T) {
	schema, err := storage.NewSchema(storage.Column{Name: "k", Kind: storage.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewCatalog().Create("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AttachIndex(NewOrdered("t_k", []string{"k"}, []bool{false})); err != nil {
		t.Fatal(err)
	}
	const inserts = 6 * deltaMax
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < inserts; i++ {
			if err := tbl.Insert(storage.Int(int64(i * 7 % 1000))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	probes := 0
	for running := true; running; probes++ {
		select {
		case <-done:
			running = false
		default:
		}
		lo, hi := storage.Int(int64(probes%900)), storage.Int(int64(probes%900+50))
		snap, ids, err := tbl.PinIndexProbe("t_k", storage.IndexProbe{Lo: &lo, Hi: &hi, LoInc: true})
		if err != nil {
			t.Fatal(err)
		}
		cur := storage.NewIndexCursorAt(snap, ids, 0)
		n := 0
		for row, ok := cur.Next(); ok; row, ok = cur.Next() {
			if k, _ := row[0].AsInt(); k < int64(probes%900) || k >= int64(probes%900+50) {
				t.Fatalf("probe [%d, %d) returned a row with k = %d", probes%900, probes%900+50, k)
			}
			n++
		}
		snap.Release()
		if n != len(ids) {
			t.Fatalf("the probe resolved %d IDs but the snapshot pinned with it holds %d of them", len(ids), n)
		}
	}
	wg.Wait()
	if meta, _ := tbl.IndexOn("k", true); meta.Entries != inserts {
		t.Fatalf("index holds %d entries after %d inserts", meta.Entries, inserts)
	}
}
