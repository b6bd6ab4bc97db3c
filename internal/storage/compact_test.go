package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func compactTestTable(t *testing.T, n int) *Table {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "val", Kind: KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("items", schema)
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Int(int64(i)), Int(int64(i*2))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestCompactThresholdAndSkipReasons(t *testing.T) {
	tbl := compactTestTable(t, 2*ChunkRows)

	// Clean table: nothing to do.
	res, err := tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || res.Skipped != CompactSkipClean {
		t.Fatalf("clean table: %+v", res)
	}

	// 10% sealed density: below the 30% default.
	var doomed []int
	for i := 0; i < 2*ChunkRows; i += 10 {
		doomed = append(doomed, i)
	}
	tbl.Delete(doomed)
	res, err = tbl.Compact(CompactionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || res.Skipped != CompactSkipThreshold {
		t.Fatalf("10%% density with default threshold: %+v", res)
	}

	// An explicit lower threshold admits it.
	res, err = tbl.Compact(CompactionPolicy{MinTombstoneFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.RowsReclaimed != len(doomed) {
		t.Fatalf("5%% threshold: %+v", res)
	}
	if got := tbl.Tombstones(); got != 0 {
		t.Fatalf("tombstones after compaction = %d", got)
	}

	// Force bypasses the threshold entirely.
	tbl.Delete([]int{3})
	res, err = tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.RowsReclaimed != 1 {
		t.Fatalf("forced single-tombstone compaction: %+v", res)
	}

	// Every other row dead: the default threshold admits the sealed
	// region's 50 %, and the pass reclaims the tail's tombstones with it.
	doomed = doomed[:0]
	for i := 0; i < tbl.NumRows(); i += 2 {
		doomed = append(doomed, i)
	}
	tbl.Delete(doomed)
	res, err = tbl.Compact(CompactionPolicy{MinTombstoneFrac: DefaultCompactionFrac})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.RowsReclaimed != len(doomed) {
		t.Fatalf("50%% density with default threshold: %+v, want %d reclaimed", res, len(doomed))
	}
	res, err = tbl.Compact(CompactionPolicy{MinTombstoneFrac: DefaultCompactionFrac})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || res.Skipped != CompactSkipClean {
		t.Fatalf("second pass = %+v, want clean skip", res)
	}
}

func TestCompactSkipsPinnedSnapshotsAndFences(t *testing.T) {
	tbl := compactTestTable(t, ChunkRows)
	tbl.Delete([]int{1, 2, 3})

	// A pinned snapshot (here held by an open cursor) blocks admission:
	// the IDs it yields must stay resolvable against the live table.
	cur := tbl.NewCursor(64)
	res, err := tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || res.Skipped != CompactSkipPinned {
		t.Fatalf("compaction under pin: %+v", res)
	}
	cur.Close()

	// A write fence blocks admission the same way.
	tbl.AcquireWriteFence()
	res, err = tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || res.Skipped != CompactSkipFenced {
		t.Fatalf("compaction under fence: %+v", res)
	}
	tbl.ReleaseWriteFence()

	res, err = tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.RowsReclaimed != 3 {
		t.Fatalf("compaction after releases: %+v", res)
	}
}

func TestFenceWaitsForCompaction(t *testing.T) {
	tbl := compactTestTable(t, 16)

	// Latch the compacting flag as Compact's admission does; a fence
	// acquisition must park until it clears.
	tbl.pinMu.Lock()
	tbl.compacting = true
	tbl.pinMu.Unlock()

	acquired := make(chan struct{})
	go func() {
		tbl.AcquireWriteFence()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("fence acquired while compaction in progress")
	case <-time.After(20 * time.Millisecond):
	}

	tbl.pinMu.Lock()
	tbl.compacting = false
	if tbl.fenceCond != nil {
		tbl.fenceCond.Broadcast()
	}
	tbl.pinMu.Unlock()

	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("fence never acquired after compaction cleared")
	}
	tbl.ReleaseWriteFence()
}

// Real hash/ordered indexes meet compaction in internal/core's
// TestRestartDifferential (internal/index imports storage, so they cannot
// be used here); fakeIndex (see index_cursor_test.go) observes the remap
// calls.
func TestCompactRemapsIndexesPointwise(t *testing.T) {
	tbl := compactTestTable(t, ChunkRows+100)
	if err := tbl.AttachIndex(newFakeIndex("by_id", "id")); err != nil {
		t.Fatal(err)
	}

	// Remove the first 50 rows; every survivor shifts down by 50.
	var doomed []int
	for i := 0; i < 50; i++ {
		doomed = append(doomed, i)
	}
	tbl.Delete(doomed)
	res, err := tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("compaction skipped: %+v", res)
	}

	for _, id := range []int64{50, 51, int64(ChunkRows), int64(ChunkRows + 99)} {
		v := Int(id)
		snap, ids, err := tbl.PinIndexProbe("by_id", IndexProbe{Point: &v})
		if err != nil {
			t.Fatalf("probe %d: %v", id, err)
		}
		snap.Release()
		want := int(id) - 50
		if len(ids) != 1 || ids[0] != want {
			t.Fatalf("hash probe id=%d → %v, want [%d]", id, ids, want)
		}
		// The remapped entry must resolve to the right row.
		got, err := tbl.Value(ids[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := got.AsInt(); n != id {
			t.Fatalf("row %d id = %d, want %d", ids[0], n, id)
		}
	}

	// Removed keys are gone.
	v := Int(10)
	snap, ids, err := tbl.PinIndexProbe("by_id", IndexProbe{Point: &v})
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if len(ids) != 0 {
		t.Fatalf("compacted-away key 10 still indexed: %v", ids)
	}
}

func TestCompactBulkRebuildPastThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-threshold compaction is slow")
	}
	// Removing row 0 of a compactRebuildThreshold+2-row table moves more
	// survivors than the point-wise limit, forcing the Rebuild path.
	n := compactRebuildThreshold + 2
	tbl := compactTestTable(t, n)
	if err := tbl.AttachIndex(newFakeIndex("by_id", "id")); err != nil {
		t.Fatal(err)
	}
	tbl.Delete([]int{0})
	res, err := tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.RowsReclaimed != 1 {
		t.Fatalf("compaction: %+v", res)
	}
	for _, id := range []int64{1, int64(n - 1)} {
		v := Int(id)
		snap, ids, err := tbl.PinIndexProbe("by_id", IndexProbe{Point: &v})
		if err != nil {
			t.Fatal(err)
		}
		snap.Release()
		if len(ids) != 1 || ids[0] != int(id)-1 {
			t.Fatalf("probe id=%d after bulk rebuild → %v, want [%d]", id, ids, id-1)
		}
	}
}

func TestCompactCountersAccumulate(t *testing.T) {
	tbl := compactTestTable(t, ChunkRows)
	tbl.Delete([]int{0, 1})
	if _, err := tbl.Compact(CompactionPolicy{Force: true}); err != nil {
		t.Fatal(err)
	}
	tbl.Delete([]int{5})
	if _, err := tbl.Compact(CompactionPolicy{Force: true}); err != nil {
		t.Fatal(err)
	}
	st := tbl.CompactionStats()
	if st.Runs != 2 || st.RowsReclaimed != 3 {
		t.Fatalf("stats = %+v, want 2 runs reclaiming 3 rows", st)
	}
	if st.BytesFreed <= 0 || st.LastEpoch == 0 {
		t.Fatalf("stats missing accounting: %+v", st)
	}
}

// TestCompactionRacesPinnedCursorsAndFill is the nightly -race stress:
// compaction runs against concurrent cursor scans (pinned snapshots),
// fenced scan→delete writers, inserts, and continuous FillColumn. The
// per-row invariant val == 2*id catches any remap that pairs one row's
// id with another's payload; id uniqueness within a single cursor
// catches duplication; -race catches unsynchronized access.
func TestCompactionRacesPinnedCursorsAndFill(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "val", Kind: KindInt},
		Column{Name: "flag", Kind: KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("items", schema)
	var nextID atomic.Int64
	insert := func() error {
		id := nextID.Add(1) - 1
		return tbl.Insert(Int(id), Int(2*id), Bool(false))
	}
	for i := 0; i < 2000; i++ {
		if err := insert(); err != nil {
			t.Fatal(err)
		}
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = 200 * time.Millisecond
	}
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	// Writers: insert a batch, then tombstone a few rows through a write
	// fence (the scan→Delete window must survive concurrent remapping).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				for i := 0; i < 20; i++ {
					if err := insert(); err != nil {
						report(err)
						return
					}
				}
				err := tbl.WithWriteFence(func() error {
					var doomed []int
					skip := rng.Intn(50)
					tbl.Scan(func(i int, row Row) bool {
						if skip > 0 {
							skip--
							return true
						}
						doomed = append(doomed, i)
						return len(doomed) < 10
					})
					tbl.Delete(doomed)
					return nil
				})
				if err != nil {
					report(err)
					return
				}
			}
		}(int64(w))
	}

	// Filler: continuously rewrite the flag column. Live-count races make
	// length mismatches expected; only other errors are failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			n := 0
			tbl.Scan(func(int, Row) bool { n++; return true })
			vals := make([]Value, n)
			for i := range vals {
				vals[i] = Bool(i%2 == 0)
			}
			if err := tbl.FillColumn("flag", vals); err != nil {
				continue
			}
		}
	}()

	// Compactor: force a sweep whenever admission allows. On a loaded
	// machine it never does by itself — a reader descheduled mid-scan
	// holds its pin for whole scheduler quanta, so the three readers'
	// pins never all clear — and a stress run without a compaction checks
	// nothing. Readers therefore scan under the shared side of pause, and
	// a compactor starved for 100 ms takes the exclusive side for one
	// round of attempts (fences, the other admission gate, last
	// microseconds).
	var compactions atomic.Int64
	var pause sync.RWMutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		sweep := func() bool {
			res, err := tbl.Compact(CompactionPolicy{Force: true})
			if err != nil {
				report(err)
			}
			if res.Compacted {
				compactions.Add(1)
			}
			return res.Compacted
		}
		last := time.Now()
		for time.Now().Before(deadline) {
			switch {
			case sweep():
				last = time.Now()
			case time.Since(last) > 100*time.Millisecond:
				pause.Lock()
				for try := 0; try < 100 && !sweep(); try++ {
					time.Sleep(100 * time.Microsecond)
				}
				pause.Unlock()
				last = time.Now()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Readers: batched cursors (each pins its snapshot) asserting the
	// invariants row by row.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan := func() error {
				pause.RLock()
				defer pause.RUnlock()
				cur := tbl.NewCursor(64)
				defer cur.Close()
				seen := make(map[int64]bool)
				for {
					row, ok := cur.Next()
					if !ok {
						return cur.Err()
					}
					id, _ := row[0].AsInt()
					val, _ := row[1].AsInt()
					if val != 2*id {
						return fmt.Errorf("row id=%d carries val=%d (want %d): cross-row remap", id, val, 2*id)
					}
					if seen[id] {
						return fmt.Errorf("id %d surfaced twice in one snapshot", id)
					}
					seen[id] = true
				}
			}
			for time.Now().Before(deadline) {
				if err := scan(); err != nil {
					report(err)
					return
				}
				// Breathe between scans: a reader that re-pins instantly
				// starves compaction admission forever, which is not the
				// workload shape this test is about.
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if compactions.Load() == 0 {
		t.Error("stress run completed without a single successful compaction")
	}
}
