package storage

import (
	"fmt"
	"sync"
	"testing"
)

func movieSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "movie_id", Kind: KindInt},
		Column{Name: "name", Kind: KindText},
		Column{Name: "year", Kind: KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaDuplicateAndEmptyNames(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "A", Kind: KindInt}); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
	if _, err := NewSchema(Column{Name: "", Kind: KindInt}); err == nil {
		t.Fatal("empty name must fail")
	}
}

func TestSchemaLookupCaseInsensitive(t *testing.T) {
	s := movieSchema(t)
	i, ok := s.Lookup("NAME")
	if !ok || i != 1 {
		t.Fatalf("Lookup(NAME) = %d, %v", i, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Fatal("missing column must not resolve")
	}
}

func TestInsertAndGet(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	if err := tb.Insert(Int(1), Text("Rocky"), Int(1976)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Int(1), Text("x")); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := tb.Insert(Text("oops"), Text("x"), Int(1)); err == nil {
		t.Fatal("type mismatch must fail")
	}
	row, err := tb.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := row[1].AsText(); s != "Rocky" {
		t.Fatalf("row = %v", row)
	}
	if _, err := tb.Get(5); err == nil {
		t.Fatal("out-of-range Get must fail")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	if err := tb.Insert(Int(1), Text("Rocky"), Int(1976)); err != nil {
		t.Fatal(err)
	}
	row, _ := tb.Get(0)
	row[1] = Text("Hacked")
	again, _ := tb.Get(0)
	if s, _ := again[1].AsText(); s != "Rocky" {
		t.Fatal("Get must return a defensive copy")
	}
}

func TestInsertCoercesIntToFloat(t *testing.T) {
	s, _ := NewSchema(Column{Name: "score", Kind: KindFloat})
	tb := NewTable("t", s)
	if err := tb.Insert(Int(7)); err != nil {
		t.Fatal(err)
	}
	v, _ := tb.Value(0, 0)
	if v.Kind() != KindFloat {
		t.Fatalf("stored kind = %v, want FLOAT", v.Kind())
	}
}

func TestAddColumnSchemaExpansion(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	for i := 0; i < 3; i++ {
		if err := tb.Insert(Int(int64(i)), Text(fmt.Sprintf("m%d", i)), Int(2000+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := tb.AddColumn(Column{Name: "is_comedy", Kind: KindBool, Perceptual: true, Origin: ColumnExpanded})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("new column index = %d, want 3", idx)
	}
	for i := 0; i < 3; i++ {
		v, err := tb.Value(i, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsNull() {
			t.Fatalf("row %d: expanded column must start NULL, got %v", i, v)
		}
	}
	// Duplicate expansion must fail.
	if _, err := tb.AddColumn(Column{Name: "IS_COMEDY", Kind: KindBool}); err == nil {
		t.Fatal("duplicate AddColumn must fail")
	}
	// New inserts must now carry 4 values.
	if err := tb.Insert(Int(9), Text("m9"), Int(2009), Bool(true)); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaSnapshotSurvivesAddColumn: Schema() hands out the published,
// immutable schema itself, so one taken before an expansion must keep its
// width and never learn the new column.
func TestSchemaSnapshotSurvivesAddColumn(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	before := tb.Schema()
	if tb.Schema() != before {
		t.Fatal("Schema() rebuilt the schema although nothing changed")
	}
	if _, err := tb.AddColumn(Column{Name: "is_comedy", Kind: KindBool, Origin: ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	if before.Len() != 3 || len(before.Columns()) != 3 {
		t.Fatalf("schema taken before AddColumn now has %d columns, want 3", before.Len())
	}
	if _, ok := before.Lookup("is_comedy"); ok {
		t.Fatal("schema taken before AddColumn resolves the new column")
	}
	after := tb.Schema()
	if i, ok := after.Lookup("IS_COMEDY"); !ok || i != 3 || after.Len() != 4 {
		t.Fatalf("current schema: Len=%d, Lookup(is_comedy)=%d,%v", after.Len(), i, ok)
	}
}

func TestFillColumn(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	for i := 0; i < 4; i++ {
		if err := tb.Insert(Int(int64(i)), Text("m"), Int(2000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.AddColumn(Column{Name: "is_comedy", Kind: KindBool}); err != nil {
		t.Fatal(err)
	}
	vals := []Value{Bool(true), Bool(false), Null(), Bool(true)}
	if err := tb.FillColumn("is_comedy", vals); err != nil {
		t.Fatal(err)
	}
	v, _ := tb.Value(2, 3)
	if !v.IsNull() {
		t.Fatal("NULL fill must remain NULL")
	}
	v, _ = tb.Value(3, 3)
	if b, _ := v.AsBool(); !b {
		t.Fatal("fill value lost")
	}
	if err := tb.FillColumn("is_comedy", vals[:2]); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := tb.FillColumn("nope", vals); err == nil {
		t.Fatal("unknown column must fail")
	}
	if err := tb.FillColumn("is_comedy", []Value{Text("x"), Null(), Null(), Null()}); err == nil {
		t.Fatal("uncoercible fill must fail")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	for i := 0; i < 10; i++ {
		if err := tb.Insert(Int(int64(i)), Text("m"), Int(2000)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	tb.Scan(func(i int, r Row) bool {
		seen++
		return seen < 4
	})
	if seen != 4 {
		t.Fatalf("scan visited %d rows, want 4", seen)
	}
}

func TestDelete(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	for i := 0; i < 5; i++ {
		if err := tb.Insert(Int(int64(i)), Text("m"), Int(2000)); err != nil {
			t.Fatal(err)
		}
	}
	n := tb.Delete([]int{1, 3, 99, -2, 3})
	if n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tb.NumRows())
	}
	ids := []int64{}
	tb.Scan(func(_ int, r Row) bool {
		id, _ := r[0].AsInt()
		ids = append(ids, id)
		return true
	})
	want := []int64{0, 2, 4}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("remaining ids = %v, want %v", ids, want)
		}
	}
	if n := tb.Delete(nil); n != 0 {
		t.Fatalf("empty delete removed %d", n)
	}
}

func TestSetAndValueBounds(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	if err := tb.Insert(Int(1), Text("a"), Int(2000)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(0, 1, Text("b")); err != nil {
		t.Fatal(err)
	}
	v, _ := tb.Value(0, 1)
	if s, _ := v.AsText(); s != "b" {
		t.Fatal("Set lost")
	}
	if err := tb.Set(9, 0, Int(1)); err == nil {
		t.Fatal("row out of range must fail")
	}
	if err := tb.Set(0, 9, Int(1)); err == nil {
		t.Fatal("col out of range must fail")
	}
	if err := tb.Set(0, 0, Text("x")); err == nil {
		t.Fatal("bad type Set must fail")
	}
	if _, err := tb.Value(0, 9); err == nil {
		t.Fatal("Value col out of range must fail")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Create("movies", movieSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("MOVIES", movieSchema(t)); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if _, ok := c.Get("Movies"); !ok {
		t.Fatal("case-insensitive Get failed")
	}
	if _, err := c.Create("users", movieSchema(t)); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "movies" || names[1] != "users" {
		t.Fatalf("Names = %v", names)
	}
	if !c.Drop("USERS") {
		t.Fatal("Drop existing returned false")
	}
	if c.Drop("users") {
		t.Fatal("Drop missing returned true")
	}
}

// Concurrent reads and column fills must not race (run with -race).
func TestConcurrentScanAndFill(t *testing.T) {
	tb := NewTable("movies", movieSchema(t))
	for i := 0; i < 100; i++ {
		if err := tb.Insert(Int(int64(i)), Text("m"), Int(2000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.AddColumn(Column{Name: "flag", Kind: KindBool}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				tb.Scan(func(_ int, r Row) bool { return true })
			}
		}()
		go func() {
			defer wg.Done()
			vals := make([]Value, 100)
			for i := range vals {
				vals[i] = Bool(i%2 == 0)
			}
			for k := 0; k < 20; k++ {
				if err := tb.FillColumn("flag", vals); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
