package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// pinnedState is what a pinned snapshot showed when it was taken: its
// width and every cell, row by row.
type pinnedState struct {
	snap  *Snap
	width int
	rows  []Row
}

func readSnap(t *testing.T, snap *Snap) []Row {
	t.Helper()
	cur := NewRangeCursorAt(snap, 0, -1, 0)
	var rows []Row
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		rows = append(rows, row.Clone())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// check reports how p's snapshot differs from what it showed when taken:
// its schema's length, its lookups — every name it had, in any case, and
// none of the names added since — and every cell.
func (p *pinnedState) check(names []string) error {
	s := p.snap.Schema()
	if s.Len() != p.width {
		return fmt.Errorf("pinned at %d columns, now %d", p.width, s.Len())
	}
	for i, name := range names {
		got, ok := s.Lookup(strings.ToUpper(name))
		switch {
		case i < p.width && (!ok || got != i):
			return fmt.Errorf("Lookup(%q) = %d, %v; want %d", name, got, ok, i)
		case i >= p.width && ok:
			return fmt.Errorf("Lookup(%q) found column %d of a later schema in one of %d columns", name, got, p.width)
		}
	}
	cur := NewRangeCursorAt(p.snap, 0, -1, 0)
	k := 0
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		if k >= len(p.rows) {
			return fmt.Errorf("more than the %d rows pinned", len(p.rows))
		}
		for c, v := range row {
			if !v.Equal(p.rows[k][c]) && !(v.IsNull() && p.rows[k][c].IsNull()) {
				return fmt.Errorf("row %d column %s: %v, pinned %v", k, names[c], v, p.rows[k][c])
			}
		}
		k++
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if k != len(p.rows) {
		return fmt.Errorf("%d rows, pinned %d", k, len(p.rows))
	}
	return nil
}

// A snapshot pinned before a run of schema expansions keeps its schema and
// its cells. AddColumn extends the column list and the name index that
// the schemas of a table share, and copies a page of column headers;
// FillColumn, Insert, SetBatch and a compaction copy the pages they write.
// None of that may show through an older version: its Len, its Lookup (the
// names added since are absent) and every cell stay as they were, while
// readers run beside the writer. Four header pages are crossed.
func TestPinnedSnapshotKeepsItsSchemaAndColumns(t *testing.T) {
	const adds = 120
	rng := rand.New(rand.NewSource(29))
	names := []string{"id", "Name", "score"}
	schema, err := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "Name", Kind: KindText}, Column{Name: "score", Kind: KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("movies", schema)
	if err := tbl.AttachIndex(newFakeIndex("by_id", "id")); err != nil {
		t.Fatal(err)
	}
	insert := func(id int) {
		t.Helper()
		vals := make([]Value, tbl.NumCols())
		vals[0], vals[1], vals[2] = Int(int64(id)), Text(fmt.Sprintf("m%d", id)), Float(float64(id)/7)
		for c := 3; c < len(vals); c++ {
			if rng.Intn(3) > 0 {
				vals[c] = Bool(rng.Intn(2) == 0)
			}
		}
		if err := tbl.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for ; next < ChunkRows+100; next++ {
		insert(next)
	}

	var (
		mu   sync.Mutex
		pins []*pinnedState
	)
	pin := func() {
		snap := tbl.Pin()
		p := &pinnedState{snap: snap, width: snap.Schema().Len(), rows: readSnap(t, snap)}
		mu.Lock()
		pins = append(pins, p)
		mu.Unlock()
	}
	// names only grows, by appends the writer makes before it adds the
	// column; a reader works on the prefix it copied.
	var namesMu sync.Mutex
	snapshotNames := func() []string {
		namesMu.Lock()
		defer namesMu.Unlock()
		return append([]string(nil), names...)
	}
	pin()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				ps := append([]*pinnedState(nil), pins...)
				mu.Unlock()
				all := snapshotNames()
				for _, p := range ps {
					if p.width > len(all) {
						continue
					}
					if err := p.check(all); err != nil {
						errs <- err
						return
					}
				}
				// The current schema, read while AddColumn extends it.
				s := tbl.Schema()
				for i := 0; i < s.Len(); i++ {
					if got, ok := s.Lookup(s.Column(i).Name); !ok || got != i {
						errs <- fmt.Errorf("current schema: Lookup(%q) = %d, %v; want %d", s.Column(i).Name, got, ok, i)
						return
					}
				}
			}
		}()
	}

	for added := 0; added < adds; {
		if rng.Intn(2) == 0 {
			name := fmt.Sprintf("Genre_%03d", added)
			namesMu.Lock()
			names = append(names, name)
			namesMu.Unlock()
			if _, err := tbl.AddColumn(Column{Name: name, Kind: KindBool, Perceptual: true, Origin: ColumnExpanded}); err != nil {
				t.Fatal(err)
			}
			added++
		}
		switch rng.Intn(5) {
		case 0:
			if tbl.NumCols() == 3 {
				break
			}
			vals := make([]Value, tbl.NumRows())
			for k := range vals {
				vals[k] = Bool(k%3 == rng.Intn(3))
			}
			if err := tbl.FillColumn(tbl.Schema().Column(3+rng.Intn(tbl.NumCols()-3)).Name, vals); err != nil {
				t.Fatal(err)
			}
		case 1:
			insert(next)
			next++
		case 2:
			col := rng.Intn(tbl.NumCols())
			if col < 3 {
				col = 2
			}
			rows := []int{rng.Intn(ChunkRows), ChunkRows + rng.Intn(50)}
			vals := []Value{Float(1), Float(2)}
			if col > 2 {
				vals = []Value{Bool(true), Null()}
			}
			if _, err := tbl.SetBatch(rows, []int{col}, [][]Value{vals}); err != nil {
				t.Fatal(err)
			}
		case 3:
			victims := []int{rng.Intn(ChunkRows), ChunkRows + rng.Intn(50)}
			tbl.Delete(victims)
			if res, err := tbl.Compact(CompactionPolicy{Force: true}); err != nil || res.Compacted {
				t.Fatalf("compaction under pinned snapshots: %+v, %v", res, err)
			}
			// A replayed compaction is not gated: it rewrites every column
			// into new chunks and pages beside the pinned versions.
			tbl.ReplayCompact(victims)
		}
		if rng.Intn(6) == 0 {
			pin()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, p := range pins {
		if err := p.check(names); err != nil {
			t.Fatalf("snapshot pinned at %d columns: %v", p.width, err)
		}
		p.snap.Release()
	}
	if got := tbl.NumCols(); got != 3+adds {
		t.Fatalf("%d columns, want %d", got, 3+adds)
	}
	if pins := tbl.LiveSnapshotEpochs(); len(pins) != 0 {
		t.Fatalf("pins left: %v", pins)
	}
}

// Two tables made from one Schema share its column list until one of
// them extends it: the first extension claims the next slot, the other
// starts a list and an index of its own, and neither sees the other's
// column.
func TestSchemaSharedByTwoTablesForks(t *testing.T) {
	base, err := NewSchema(Column{Name: "id", Kind: KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// A schema AddColumn made has room to grow in place: the case where
	// the two tables' first extensions race for the same slot.
	first := NewTable("first", base)
	if _, err := first.AddColumn(Column{Name: "x", Kind: KindInt}); err != nil {
		t.Fatal(err)
	}
	schema := first.Schema()
	a, b := NewTable("a", schema), NewTable("b", schema)
	for i := 0; i < 40; i++ {
		if _, err := a.AddColumn(Column{Name: fmt.Sprintf("a%d", i), Kind: KindBool}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddColumn(Column{Name: fmt.Sprintf("b%d", i), Kind: KindFloat}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		tbl        *Table
		own, other string
	}{{a, "a", "b"}, {b, "b", "a"}} {
		s := tc.tbl.Schema()
		for i := 0; i < 40; i++ {
			if got, ok := s.Lookup(fmt.Sprintf("%s%d", tc.own, i)); !ok || got != i+2 || s.Column(got).Name != fmt.Sprintf("%s%d", tc.own, i) {
				t.Fatalf("table %s: Lookup(%s%d) = %d, %v", tc.own, tc.own, i, got, ok)
			}
			if _, ok := s.Lookup(fmt.Sprintf("%s%d", tc.other, i)); ok {
				t.Fatalf("table %s sees table %s's column %s%d", tc.own, tc.other, tc.other, i)
			}
		}
	}
	if schema.Len() != 2 || first.Schema() != schema {
		t.Fatalf("the shared schema grew to %d columns", schema.Len())
	}
}

// Lookup is case-insensitive and allocates nothing, for a mixed-case
// name as for a lower-case one, found or not.
func TestSchemaLookupAllocatesNothing(t *testing.T) {
	cols := []Column{{Name: "movie_id", Kind: KindInt}}
	for i := 0; i < 150; i++ {
		cols = append(cols, Column{Name: fmt.Sprintf("Comedy_%03d", i), Kind: KindBool})
	}
	s, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Comedy_017", "COMEDY_017", "comedy_017", "movie_id", "Drama_001", "ÆØÅ"} {
		want, wantOK := -1, false
		for i, c := range cols {
			if strings.EqualFold(c.Name, name) {
				want, wantOK = i, true
			}
		}
		got, ok := s.Lookup(name)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, %v", name, got, ok, want, wantOK)
		}
		if n := testing.AllocsPerRun(100, func() { s.Lookup(name) }); n != 0 {
			t.Fatalf("Lookup(%q) allocates %v times", name, n)
		}
	}
}

// foldEqual and foldHash agree with strings.ToLower: equal folded forms
// compare equal and hash alike, different ones compare unequal — for
// ASCII, for runes whose lower case differs in length, and for invalid
// UTF-8, which strings.ToLower reads as U+FFFD.
func TestFoldEqualIsToLower(t *testing.T) {
	words := []string{"", "a", "A", "ab", "Ab", "aB", "K", "k", "K", "ſ", "s", "S", "ẞ", "ß", "İ", "i", "I", "ı",
		"Σ", "σ", "ς", "\xff", "\xfe", "�", "a\xff", "A�", "Comedy_017", "comedy_017", "COMEDY_017", "comedy_01"}
	for _, a := range words {
		for _, b := range words {
			want := strings.ToLower(a) == strings.ToLower(b)
			if got := foldEqual(a, b); got != want {
				t.Fatalf("foldEqual(%q, %q) = %v; ToLower says %v", a, b, got, want)
			}
			if want && foldHash(a) != foldHash(b) {
				t.Fatalf("foldHash(%q) != foldHash(%q), but they fold alike", a, b)
			}
		}
	}
}
