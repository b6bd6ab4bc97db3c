package storage

import (
	"fmt"
	"strings"
	"testing"
)

// batchTable is rows rows of (k INTEGER = row%10, v TEXT), crossing a chunk
// boundary when rows > ChunkRows, with a fake index on k and a journal.
func batchTable(t *testing.T, rows int) (*Table, *fakeIndex, *recordingJournal) {
	t.Helper()
	tbl := indexedTable(t, rows)
	idx := tbl.indexes["ik"].(*fakeIndex)
	j := &recordingJournal{}
	tbl.journal = j
	return tbl, idx, j
}

// describeSet renders a set op with its payload decoded.
func describeSet(t *testing.T, op Op) string {
	t.Helper()
	vec, err := DecodeColumn(op.Fill)
	if err != nil {
		t.Fatalf("%s op payload: %v", op.Kind, err)
	}
	cells := make([]Value, vec.Len())
	for i := range cells {
		cells[i] = vec.Value(i)
	}
	return fmt.Sprintf("%s col %d rows %v = %v", op.Kind, op.Col, op.Rows, cells)
}

func TestSetBatchIsOneCommit(t *testing.T) {
	tbl, idx, j := batchTable(t, ChunkRows+100)
	notified := 0
	tbl.observer = func(Op) { notified++ }
	epoch := tbl.snap.Load().epoch
	sealed := tbl.snap.Load().col(1).chunks[0]

	// Rows of the sealed chunk and of the tail, out of order, two columns.
	rows := []int{ChunkRows + 7, 3, ChunkRows - 1, 42}
	n, err := tbl.SetBatch(rows, []int{0, 1}, [][]Value{
		{Int(77), Float(78), Null(), Int(79)}, // 78.0 coerces to INTEGER
		{Text("a"), Text("b"), Text("c"), Null()},
	})
	if err != nil || n != 4 {
		t.Fatalf("SetBatch = %d, %v", n, err)
	}
	v := tbl.snap.Load()
	if v.epoch != epoch+1 || notified != 1 {
		t.Fatalf("epoch moved by %d with %d notifications; want one version, one notification", v.epoch-epoch, notified)
	}
	if v.col(1).chunks[0] == sealed || tbl.ChunkCount() != 2 {
		t.Fatal("the sealed chunk of v was not replaced by a copy")
	}
	for i, row := range rows {
		wantK := []Value{Int(77), Int(78), Null(), Int(79)}[i]
		wantV := []Value{Text("a"), Text("b"), Text("c"), Null()}[i]
		if got := v.value(row, 0); got != wantK {
			t.Errorf("row %d k = %v, want %v", row, got, wantK)
		}
		if got := v.value(row, 1); got != wantV {
			t.Errorf("row %d v = %v, want %v", row, got, wantV)
		}
	}
	if got := v.value(4, 1); got != Text("v4") {
		t.Errorf("untouched row 4 v = %v", got)
	}

	// The journal: one set per column, in column order — the rows ascending
	// whatever order they came in, their cells as one typed payload, values
	// already coerced.
	var log []string
	for _, op := range j.ops {
		log = append(log, describeSet(t, op))
	}
	want := fmt.Sprintf("set col 0 rows [3 42 %d %d] = [78 79 NULL 77];set col 1 rows [3 42 %d %d] = [b NULL c a]",
		ChunkRows-1, ChunkRows+7, ChunkRows-1, ChunkRows+7)
	if got := strings.Join(log, ";"); got != want {
		t.Fatalf("journal:\n%s\nwant\n%s", got, want)
	}

	// The index on k: one removal pass, the new keys in, the NULL out.
	if idx.removeCalls != 1 {
		t.Fatalf("RemoveRows ran %d times for one statement", idx.removeCalls)
	}
	for key, wantIDs := range map[int64]string{77: fmt.Sprint([]int{ChunkRows + 7}), 78: "[3]", 79: "[42]"} {
		if got := fmt.Sprint(idx.Lookup([]Value{Int(key)})); got != wantIDs {
			t.Errorf("index k=%d → %s, want %s", key, got, wantIDs)
		}
	}
	if got := idx.Entries(); got != ChunkRows+100-1 {
		t.Errorf("index holds %d entries, want every row but the one set to NULL", got)
	}
}

// Every cell is coerced before anything is journaled or written.
func TestSetBatchCoercesBeforeItWrites(t *testing.T) {
	tbl, idx, j := batchTable(t, 20)
	before := tbl.snap.Load()
	_, err := tbl.SetBatch([]int{1, 2, 3}, []int{1, 0}, [][]Value{
		{Text("x"), Text("y"), Text("z")},
		{Int(5), Int(6), Text("not a number")},
	})
	if err == nil || !strings.Contains(err.Error(), "cannot coerce") {
		t.Fatalf("SetBatch = %v, want a coercion error", err)
	}
	if tbl.snap.Load() != before || len(j.ops) != 0 || idx.removeCalls != 0 {
		t.Fatalf("a failed SetBatch published (%v), journaled %d ops, touched the index %d times",
			tbl.snap.Load() != before, len(j.ops), idx.removeCalls)
	}
	if _, err := tbl.SetBatch([]int{1}, []int{2}, [][]Value{{Int(1)}}); err == nil {
		t.Fatal("a column out of range must be rejected")
	}
}

// A row deleted between the scan that found it and the apply is skipped,
// as is an ID out of range; Set on such a row stays an error.
func TestSetBatchSkipsRowsThatAreGone(t *testing.T) {
	tbl, _, j := batchTable(t, 20)
	tbl.Delete([]int{5})
	j.ops = nil
	n, err := tbl.SetBatch([]int{4, 5, 6, 99, -1}, []int{1}, [][]Value{{Text("a"), Text("b"), Text("c"), Text("d"), Text("e")}})
	if err != nil || n != 2 {
		t.Fatalf("SetBatch over a tombstoned and two impossible rows = %d, %v; want 2 rows written", n, err)
	}
	if len(j.ops) != 1 || describeSet(t, j.ops[0]) != "set col 1 rows [4 6] = [a c]" {
		t.Fatalf("journal %+v, want one set of rows 4 and 6", j.ops)
	}
	if n, err := tbl.SetBatch([]int{5}, []int{1}, [][]Value{{Text("x")}}); n != 0 || err != nil || len(j.ops) != 1 {
		t.Fatalf("SetBatch of only a dead row = %d, %v, %d ops", n, err, len(j.ops))
	}
	if err := tbl.Set(5, 1, Text("x")); err == nil {
		t.Fatal("Set on a deleted row must stay an error")
	}
}

// Delete of k rows is one tombstone record and one pass per index, whatever
// the order and repetition of the IDs.
func TestDeleteIsOnePassPerIndex(t *testing.T) {
	tbl, idx, j := batchTable(t, 200)
	if n := tbl.Delete([]int{150, 3, 3, 77, 1000, -4, 10}); n != 4 {
		t.Fatalf("Delete = %d, want 4", n)
	}
	if idx.removeCalls != 1 {
		t.Fatalf("RemoveRows ran %d times for one Delete", idx.removeCalls)
	}
	if len(j.ops) != 1 || j.ops[0].Kind != OpTombstone || fmt.Sprint(j.ops[0].Rows) != "[3 10 77 150]" {
		t.Fatalf("journal %+v, want one tombstone of [3 10 77 150]", j.ops)
	}
	if n := tbl.Delete([]int{3, 77}); n != 0 || idx.removeCalls != 1 || len(j.ops) != 1 {
		t.Fatalf("deleting dead rows again: %d rows, %d passes, %d ops", n, idx.removeCalls, len(j.ops))
	}
	if got := idx.Entries(); got != 196 {
		t.Fatalf("index holds %d entries, want 196", got)
	}
}

// Scan hands out physical row IDs: they skip tombstones and survive chunk
// boundaries.
func TestScanReportsPhysicalRowIDs(t *testing.T) {
	tbl := indexedTable(t, ChunkRows+10)
	tbl.Delete([]int{0, 7, ChunkRows})
	want := 1
	tbl.Scan(func(id int, row Row) bool {
		if id != want || row[1] != Text(fmt.Sprintf("v%d", id)) {
			t.Fatalf("Scan gave row %d = %v, want row %d", id, row, want)
		}
		for want++; want == 7 || want == ChunkRows; want++ {
		}
		return true
	})
	if want != ChunkRows+10 {
		t.Fatalf("Scan stopped at row %d", want)
	}
}
