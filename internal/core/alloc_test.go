package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crowddb/internal/storage"
)

// TestDurabilityAllocationWalls holds the two allocation figures the
// binary codec exists for (beside the executor's, in
// engine/exec.TestOperatorAllocationWalls).
//
// Journaling an insert allocates one object — the Op boxed into Append's
// payload — where the JSON record took 13 and 881 bytes: the record is
// encoded into the log's own reused buffer.
//
// A checkpoint of the benchmark database's 146 k-row ratings table
// allocates for its buffers, not for its rows: the parent of this codec
// boxed every cell and marshalled the lot, 155 MB for this table; a tenth
// of that is the wall, and the measured figure is 3 MB, most of it the
// JSON of the 1 200 expandable registrations the benchmark also has.
//
// The same checkpoint holds the statement gate only to pin the tables and
// copy the state above them — a sliver of the time it takes, whatever the
// tables hold; the test logs it (crowddb_snapshot_gate_seconds).
func TestDurabilityAllocationWalls(t *testing.T) {
	db, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE ratings (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("ratings")
	const rows = 146000
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Int(int64(i%4000)), storage.Int(int64(i%1000)), storage.Float(float64(i%10)/2)); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 1200; i++ {
		db.RegisterExpandable("ratings", fmt.Sprintf("genre_%04d", i), storage.KindBool, ExpandOptions{SamplesPerClass: 10})
	}

	j := walJournal{db}
	op := storage.Op{Kind: storage.OpInsert, Table: "ratings",
		Values: []storage.Value{storage.Int(1), storage.Int(2), storage.Int(3), storage.Float(4)}}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := j.LogOp(op); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("journaling an insert op allocates %.1f objects, want at most 1", allocs)
	}

	var before, after runtime.MemStats
	gateBefore := mSnapshotGate.Sum()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	gate := time.Duration((mSnapshotGate.Sum() - gateBefore) * float64(time.Second))
	// Logged, not asserted: one preemption inside the gate would fail a
	// wall-clock bound on a shared machine.
	t.Logf("Snapshot held the statement gate for %v of its %v", gate, took)
	const parentBytes = 155 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > parentBytes/10 {
		t.Errorf("Snapshot of a %d-row table allocated %d bytes, want under %d", rows, got, parentBytes/10)
	} else {
		t.Logf("Snapshot of a %d-row table allocated %d bytes", rows, got)
	}
}
