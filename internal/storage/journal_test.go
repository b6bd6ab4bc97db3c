package storage

import (
	"reflect"
	"sync"
	"testing"
)

// recordingJournal captures emitted ops for assertions.
type recordingJournal struct {
	mu  sync.Mutex
	ops []Op
}

func (j *recordingJournal) LogOp(op Op) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Ops are emitted under the owning table's lock and may reference
	// live slices; deep-copy values so later assertions see the emission-
	// time state.
	cp := op
	cp.Values = append([]Value(nil), op.Values...)
	cp.Rows = append([]int(nil), op.Rows...)
	cp.Fill = append([]byte(nil), op.Fill...)
	j.ops = append(j.ops, cp)
	return nil
}

func (j *recordingJournal) kinds() []OpKind {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]OpKind, len(j.ops))
	for i, op := range j.ops {
		out[i] = op.Kind
	}
	return out
}

func TestMutationsEmitTypedOps(t *testing.T) {
	j := &recordingJournal{}
	c := NewCatalog()
	c.SetJournal(j)

	schema, _ := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindText},
	)
	tbl, err := c.Create("movies", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Int(1), Text("alien")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Int(2), Text("clue")); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AddColumn(Column{Name: "funny", Kind: KindBool, Perceptual: true, Origin: ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FillColumn("funny", []Value{Bool(false), Bool(true)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Set(0, 1, Text("aliens")); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Delete([]int{1}); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	if !c.Drop("movies") {
		t.Fatal("drop failed")
	}

	want := []OpKind{OpCreateTable, OpInsert, OpInsert, OpAddColumn, OpFillColumn, OpSet, OpTombstone, OpDropTable}
	got := j.kinds()
	if len(got) != len(want) {
		t.Fatalf("op kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}

	// Every op must survive the binary round trip unchanged — this is
	// exactly what the WAL does to it.
	for _, op := range j.ops {
		blob, err := op.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeOp(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, op) {
			t.Fatalf("op %s did not round-trip: %+v → %+v", op.Kind, op, back)
		}
	}

	// The add_column record must carry provenance: replay relies on it to
	// rebuild ColumnExpanded columns as expanded, not declared.
	addOp := j.ops[3]
	if addOp.Column == nil || addOp.Column.Origin != ColumnExpanded || !addOp.Column.Perceptual {
		t.Fatalf("add_column op lost provenance: %+v", addOp.Column)
	}
}

// TestRejectedMutationsNotLogged: validation failures must not reach the
// journal — a replayed log would otherwise re-fail (or worse, diverge).
func TestRejectedMutationsNotLogged(t *testing.T) {
	j := &recordingJournal{}
	c := NewCatalog()
	c.SetJournal(j)
	schema, _ := NewSchema(Column{Name: "id", Kind: KindInt})
	tbl, _ := c.Create("t", schema)
	before := len(j.kinds())

	if err := tbl.Insert(Text("not an int")); err == nil {
		t.Fatal("bad insert accepted")
	}
	if err := tbl.Insert(Int(1), Int(2)); err == nil {
		t.Fatal("bad arity accepted")
	}
	if _, err := tbl.AddColumn(Column{Name: "id", Kind: KindBool}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := tbl.FillColumn("missing", []Value{Int(1)}); err == nil {
		t.Fatal("fill of missing column accepted")
	}
	if err := tbl.Set(99, 0, Int(1)); err == nil {
		t.Fatal("out-of-range set accepted")
	}
	if got := len(j.kinds()); got != before {
		t.Fatalf("%d ops logged for rejected mutations: %v", got-before, j.kinds()[before:])
	}
}

// TestAddColumnRacingLiveScans drives concurrent schema expansion against
// continuous scans and point reads — the exact contention pattern of a
// crowd fill-in racing SELECT traffic. Run under -race this proves the
// locking; the assertions prove scans see internally consistent rows
// (arity either pre- or post-expansion, never torn).
func TestAddColumnRacingLiveScans(t *testing.T) {
	c := NewCatalog()
	schema, _ := NewSchema(Column{Name: "id", Kind: KindInt})
	tbl, _ := c.Create("t", schema)
	const rows = 200
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	const adders = 4
	const scanners = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, scanners)

	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				want := -1
				ok := true
				tbl.Scan(func(i int, row Row) bool {
					if want == -1 {
						want = len(row)
					} else if len(row) != want {
						ok = false
						return false
					}
					return true
				})
				if !ok {
					select {
					case errs <- errTornScan:
					default:
					}
					return
				}
				_, _ = tbl.Get(rows / 2)
				_ = tbl.NumCols()
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var awg sync.WaitGroup
		for g := 0; g < adders; g++ {
			awg.Add(1)
			go func(g int) {
				defer awg.Done()
				for k := 0; k < 8; k++ {
					col := Column{
						Name:       colName(g, k),
						Kind:       KindBool,
						Perceptual: true,
						Origin:     ColumnExpanded,
					}
					idx, err := tbl.AddColumn(col)
					if err != nil {
						t.Error(err)
						return
					}
					vals := make([]Value, rows)
					for i := range vals {
						vals[i] = Bool(i%2 == 0)
					}
					if err := tbl.FillColumn(col.Name, vals); err != nil {
						t.Error(err)
						return
					}
					if idx <= 0 {
						t.Errorf("column index %d", idx)
					}
				}
			}(g)
		}
		awg.Wait()
	}()

	<-done
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if got := tbl.NumCols(); got != 1+adders*8 {
		t.Fatalf("NumCols = %d, want %d", got, 1+adders*8)
	}
	// Every row must have full arity and every expanded column a value.
	tbl.Scan(func(i int, row Row) bool {
		if len(row) != 1+adders*8 {
			t.Fatalf("row %d has arity %d", i, len(row))
		}
		for c := 1; c < len(row); c++ {
			if row[c].IsNull() {
				t.Fatalf("row %d col %d unfilled", i, c)
			}
		}
		return i < 5 // spot-check the head
	})
}

var errTornScan = jsonError("scan observed torn row arity")

type jsonError string

func (e jsonError) Error() string { return string(e) }

func colName(g, k int) string {
	return "genre_" + string(rune('a'+g)) + "_" + string(rune('a'+k))
}
