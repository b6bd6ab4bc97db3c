package storage

import (
	"fmt"
	"sync"
	"testing"
)

func cursorTable(t *testing.T, n int) *Table {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindText},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("t", schema)
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Int(int64(i)), Text(fmt.Sprintf("row%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestCursorReadsAllRowsAcrossBatches(t *testing.T) {
	tbl := cursorTable(t, 1000)
	c := tbl.NewCursor(64) // forces many refills
	seen := 0
	for {
		row, ok := c.Next()
		if !ok {
			break
		}
		id, _ := row[0].AsInt()
		if id != int64(seen) {
			t.Fatalf("row %d has id %d", seen, id)
		}
		seen++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != 1000 {
		t.Fatalf("saw %d rows", seen)
	}
}

// The cursor's row is valid only until the next call; the batch buffer is
// reused. This test documents the aliasing contract.
func TestCursorRowAliasing(t *testing.T) {
	tbl := cursorTable(t, 3)
	c := tbl.NewCursor(1)
	r1, _ := c.Next()
	id1, _ := r1[0].AsInt()
	if id1 != 0 {
		t.Fatalf("id = %d", id1)
	}
	_, _ = c.Next()
	// r1 now aliases the second batch (batch size 1): its id changed.
	id1b, _ := r1[0].AsInt()
	if id1b != 1 {
		t.Fatalf("buffer not reused? id = %d", id1b)
	}
}

// Width is fixed at creation: a column added mid-scan does not change the
// shape of rows already being streamed.
func TestCursorFixedWidthUnderConcurrentAddColumn(t *testing.T) {
	tbl := cursorTable(t, 500)
	c := tbl.NewCursor(32)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = tbl.AddColumn(Column{Name: "extra", Kind: KindBool})
	}()
	rows := 0
	for {
		row, ok := c.Next()
		if !ok {
			break
		}
		if len(row) != 2 {
			t.Errorf("row width = %d", len(row))
			break
		}
		rows++
	}
	wg.Wait()
	if rows != 500 {
		t.Fatalf("rows = %d", rows)
	}
}

func BenchmarkCursorScan(b *testing.B) {
	schema, _ := NewSchema(Column{Name: "id", Kind: KindInt})
	tbl := NewTable("t", schema)
	for i := 0; i < 100_000; i++ {
		_ = tbl.Insert(Int(int64(i)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := tbl.NewCursor(0)
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
	}
}
