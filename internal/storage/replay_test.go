package storage

import (
	"fmt"
	"reflect"
	"testing"
)

// tableDump is one table's observable state: schema columns, live rows
// keyed by physical ID, and the tombstone count.
type tableDump struct {
	Columns    []Column
	Live       map[int]string // physical row ID → rendered row
	Tombstones int
}

func dumpCatalog(t *testing.T, c *Catalog) map[string]tableDump {
	t.Helper()
	out := map[string]tableDump{}
	for _, name := range c.Names() {
		tbl, ok := c.Get(name)
		if !ok {
			t.Fatalf("catalog names %q but Get fails", name)
		}
		d := tableDump{
			Columns:    tbl.Schema().Columns(),
			Live:       map[int]string{},
			Tombstones: tbl.Tombstones(),
		}
		tbl.Scan(func(i int, row Row) bool {
			d.Live[i] = fmt.Sprintf("%v", row)
			return true
		})
		out[name] = d
	}
	return out
}

func mustCreate(t *testing.T, c *Catalog, name string, cols ...Column) *Table {
	t.Helper()
	schema, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Create(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// replayWorkload drives a representative mutation mix into c, compaction
// included: inserts across a sealed chunk, a set, a third of the sealed
// rows deleted, a column added and filled, a forced compaction, mutations
// through the remapped IDs, and a second table.
func replayWorkload(t *testing.T, c *Catalog) {
	t.Helper()
	tbl := mustCreate(t, c, "items",
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindText})
	for i := 0; i < ChunkRows+500; i++ {
		if err := tbl.Insert(Int(int64(i)), Text(fmt.Sprintf("row-%05d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tbl.Set(42, 1, Text("answer")); err != nil {
		t.Fatal(err)
	}
	var doomed []int
	for i := 0; i < ChunkRows; i += 3 {
		doomed = append(doomed, i)
	}
	tbl.Delete(doomed)
	if _, err := tbl.AddColumn(Column{Name: "flag", Kind: KindBool, Origin: ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	fill := make([]Value, 0, tbl.NumRows())
	tbl.Scan(func(i int, row Row) bool {
		fill = append(fill, Bool(i%2 == 0))
		return true
	})
	if err := tbl.FillColumn("flag", fill); err != nil {
		t.Fatal(err)
	}
	// Compact (removes the tombstones, remaps physical IDs), then mutate
	// again so the stream holds records referencing post-compaction IDs.
	res, err := tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("forced compaction skipped: %+v", res)
	}
	if err := tbl.Set(7, 1, Text("post-compaction")); err != nil {
		t.Fatal(err)
	}
	tbl.Delete([]int{11})
	other := mustCreate(t, c, "other", Column{Name: "x", Kind: KindInt})
	for i := 0; i < 10; i++ {
		if err := other.Insert(Int(int64(i * i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashReplay rebuilds a fresh catalog purely from the journaled op
// stream, as recovery does, and requires the original state bit for bit —
// physical row IDs and tombstones included.
func TestCrashReplay(t *testing.T) {
	live := NewCatalog()
	j := &recordingJournal{}
	live.SetJournal(j)
	replayWorkload(t, live)

	recovered := NewCatalog()
	for i, op := range j.ops {
		if err := recovered.Apply(op); err != nil {
			t.Fatalf("replay op %d (%s %s): %v", i, op.Kind, op.Table, err)
		}
	}
	want := dumpCatalog(t, live)
	got := dumpCatalog(t, recovered)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed state diverged\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestSnapshotRoundTrip writes a checkpoint's sections, restores them into
// a fresh catalog, then applies an op logged after the checkpoint: it must
// land on the same physical row in both.
func TestSnapshotRoundTrip(t *testing.T) {
	live := NewCatalog()
	replayWorkload(t, live)
	var snap memSections
	cp := live.Checkpoint()
	err := cp.Write(&snap)
	cp.Release()
	if err != nil {
		t.Fatalf("Checkpoint.Write: %v", err)
	}

	restored := NewCatalog()
	snap.restore(t, restored)
	want := dumpCatalog(t, live)
	if got := dumpCatalog(t, restored); !reflect.DeepEqual(want, got) {
		t.Fatalf("restored state diverged\nwant: %+v\ngot:  %+v", want, got)
	}

	j := &recordingJournal{}
	live.SetJournal(j)
	tbl, _ := live.Get("items")
	if err := tbl.Set(9, 1, Text("post-snapshot")); err != nil {
		t.Fatal(err)
	}
	for _, op := range j.ops {
		if err := restored.Apply(op); err != nil {
			t.Fatalf("Apply on restored catalog: %v", err)
		}
	}
	if !reflect.DeepEqual(dumpCatalog(t, live), dumpCatalog(t, restored)) {
		t.Fatal("post-snapshot mutation diverged: physical row IDs did not survive RestoreTable")
	}
}
