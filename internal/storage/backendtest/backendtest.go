// Package backendtest is the conformance suite every storage.Backend
// implementation must pass. A backend package's tests call Run with a
// factory producing fresh, opened backends; the suite then exercises the
// full seam contract:
//
//   - mutate/scan/delete/fill across the sealed-chunk boundary
//   - crash replay: a journaled op stream applied through ApplyOp into a
//     fresh backend reproduces the original state bit-for-bit
//   - snapshot Checkpoint/RestoreTable round trip, tombstones and
//     physical row IDs included (WAL records replayed on top must keep
//     resolving)
//   - tombstone compaction: full reclaim, index remap, replay determinism
//   - bulk index rebuild
//
// The canonical runner (conformance_test.go in this directory) iterates
// storage.BackendNames(), so registering a new backend automatically
// enrolls it.
package backendtest

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"crowddb/internal/index"
	"crowddb/internal/storage"
)

// Factory returns a fresh backend, already Opened on dir, cleaned up via
// t.Cleanup. Each call must yield an independent instance; calling it
// twice with the same dir models a process restart over the same data
// directory.
type Factory func(t *testing.T, dir string) storage.Backend

// Run executes the conformance suite against backends from factory.
func Run(t *testing.T, factory Factory) {
	t.Run("MutateScanDeleteFill", func(t *testing.T) { testMutateScanDeleteFill(t, factory) })
	t.Run("CrashReplay", func(t *testing.T) { testCrashReplay(t, factory) })
	t.Run("SnapshotRoundTrip", func(t *testing.T) { testSnapshotRoundTrip(t, factory) })
	t.Run("Compaction", func(t *testing.T) { testCompaction(t, factory) })
	t.Run("IndexRebuild", func(t *testing.T) { testIndexRebuild(t, factory) })
}

// opRecorder captures the journaled op stream — the suite's stand-in for
// a WAL.
type opRecorder struct {
	mu  sync.Mutex
	ops []storage.Op
}

func (r *opRecorder) LogOp(op storage.Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
	return nil
}

func (r *opRecorder) snapshot() []storage.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]storage.Op, len(r.ops))
	copy(out, r.ops)
	return out
}

// tableDump is one table's observable state: schema columns, live rows
// keyed by physical ID, and the tombstone count.
type tableDump struct {
	Columns    []storage.Column
	Live       map[int]string // physical row ID → rendered row
	Tombstones int
}

func dumpCatalog(t *testing.T, c *storage.Catalog) map[string]tableDump {
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
		tbl.Scan(func(i int, row storage.Row) bool {
			d.Live[i] = fmt.Sprintf("%v", row)
			return true
		})
		out[name] = d
	}
	return out
}

func mustCreate(t *testing.T, c *storage.Catalog, name string, cols ...storage.Column) *storage.Table {
	t.Helper()
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Create(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// seedRows inserts n rows (id=i, name="row-%05d") into tbl.
func seedRows(t *testing.T, tbl *storage.Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("row-%05d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func testMutateScanDeleteFill(t *testing.T, factory Factory) {
	be := factory(t, t.TempDir())
	c := be.Catalog()
	tbl := mustCreate(t, c, "items",
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "name", Kind: storage.KindText})

	// Cross the sealed-chunk boundary: two full chunks plus a tail.
	n := 2*storage.ChunkRows + 100
	seedRows(t, tbl, n)
	if got := tbl.NumRows(); got != n {
		t.Fatalf("NumRows = %d, want %d", got, n)
	}

	// Mutate one sealed-chunk row and one tail row.
	if err := tbl.Set(17, 1, storage.Text("mutated-sealed")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Set(n-3, 1, storage.Text("mutated-tail")); err != nil {
		t.Fatal(err)
	}

	// Tombstone a spread: one per region plus a run across the chunk seam.
	doomed := []int{0, 5, storage.ChunkRows - 1, storage.ChunkRows, 2*storage.ChunkRows - 1, 2 * storage.ChunkRows, n - 1}
	if got := tbl.Delete(doomed); got != len(doomed) {
		t.Fatalf("Delete = %d, want %d", got, len(doomed))
	}
	if got := tbl.Tombstones(); got != len(doomed) {
		t.Fatalf("Tombstones = %d, want %d", got, len(doomed))
	}
	if got := tbl.NumRows(); got != n-len(doomed) {
		t.Fatalf("NumRows after delete = %d, want %d", got, n-len(doomed))
	}

	// Add a column and fill it for every live row, in scan order.
	if _, err := tbl.AddColumn(storage.Column{Name: "flag", Kind: storage.KindBool, Origin: storage.ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	fill := make([]storage.Value, 0, tbl.NumRows())
	tbl.Scan(func(i int, row storage.Row) bool {
		fill = append(fill, storage.Bool(i%2 == 0))
		return true
	})
	if err := tbl.FillColumn("flag", fill); err != nil {
		t.Fatal(err)
	}

	// Verify: deleted rows invisible, mutations visible, fill landed.
	dead := map[int]bool{}
	for _, i := range doomed {
		dead[i] = true
	}
	seen := 0
	var scanErr error
	tbl.Scan(func(i int, row storage.Row) bool {
		seen++
		if dead[i] {
			scanErr = fmt.Errorf("tombstoned row %d visible in scan", i)
			return false
		}
		id, _ := row[0].AsInt()
		if int(id) != i {
			scanErr = fmt.Errorf("row %d has id %d", i, id)
			return false
		}
		want := fmt.Sprintf("row-%05d", i)
		if i == 17 {
			want = "mutated-sealed"
		}
		if i == n-3 {
			want = "mutated-tail"
		}
		if s, _ := row[1].AsText(); s != want {
			scanErr = fmt.Errorf("row %d name = %q, want %q", i, s, want)
			return false
		}
		if b, ok := row[2].AsBool(); !ok || b != (i%2 == 0) {
			scanErr = fmt.Errorf("row %d flag = (%v,ok=%v)", i, b, ok)
			return false
		}
		return true
	})
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if seen != n-len(doomed) {
		t.Fatalf("scan visited %d rows, want %d", seen, n-len(doomed))
	}
}

// workload drives a representative mutation mix against a backend with a
// journal attached, compaction included, and returns the catalog.
func workload(t *testing.T, be storage.Backend) *storage.Catalog {
	t.Helper()
	c := be.Catalog()
	tbl := mustCreate(t, c, "items",
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "name", Kind: storage.KindText})
	n := storage.ChunkRows + 500
	seedRows(t, tbl, n)
	if err := tbl.Set(42, 1, storage.Text("answer")); err != nil {
		t.Fatal(err)
	}
	var doomed []int
	for i := 0; i < storage.ChunkRows; i += 3 {
		doomed = append(doomed, i)
	}
	tbl.Delete(doomed)
	if _, err := tbl.AddColumn(storage.Column{Name: "flag", Kind: storage.KindBool, Origin: storage.ColumnExpanded}); err != nil {
		t.Fatal(err)
	}
	fill := make([]storage.Value, 0, tbl.NumRows())
	tbl.Scan(func(i int, row storage.Row) bool {
		fill = append(fill, storage.Bool(i%2 == 0))
		return true
	})
	if err := tbl.FillColumn("flag", fill); err != nil {
		t.Fatal(err)
	}
	// Compact (removes the tombstones, remaps physical IDs), then mutate
	// again so the stream contains records referencing post-compaction IDs.
	res, err := be.Compact("items", storage.CompactionPolicy{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("forced compaction skipped: %+v", res)
	}
	if err := tbl.Set(7, 1, storage.Text("post-compaction")); err != nil {
		t.Fatal(err)
	}
	tbl.Delete([]int{11})
	// A second table proves multi-table streams replay.
	other := mustCreate(t, c, "other", storage.Column{Name: "x", Kind: storage.KindInt})
	for i := 0; i < 10; i++ {
		if err := other.Insert(storage.Int(int64(i * i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func testCrashReplay(t *testing.T, factory Factory) {
	live := factory(t, t.TempDir())
	rec := &opRecorder{}
	live.Catalog().SetJournal(rec)
	workload(t, live)

	// "Crash": rebuild a fresh backend purely from the op stream, exactly
	// as core's WAL recovery does.
	recovered := factory(t, t.TempDir())
	for i, op := range rec.snapshot() {
		if err := recovered.ApplyOp(op); err != nil {
			t.Fatalf("replay op %d (%s %s): %v", i, op.Kind, op.Table, err)
		}
	}
	want := dumpCatalog(t, live.Catalog())
	got := dumpCatalog(t, recovered.Catalog())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed state diverged\nwant: %+v\ngot:  %+v", want, got)
	}
}

// sections is a snapshot file in memory: what a Checkpoint writes and
// RestoreTable reads back.
type sections struct {
	buf   []byte
	kinds []byte
	body  [][]byte
	next  int
}

func (s *sections) Section(kind byte) []byte { return append(s.buf[:0], kind) }

func (s *sections) Emit(b []byte) error {
	s.buf = b
	s.kinds = append(s.kinds, b[0])
	s.body = append(s.body, append([]byte(nil), b[1:]...))
	return nil
}

func (s *sections) Next() (byte, []byte, error) {
	if s.next == len(s.body) {
		return 0, nil, io.EOF
	}
	s.next++
	return s.kinds[s.next-1], s.body[s.next-1], nil
}

func testSnapshotRoundTrip(t *testing.T, factory Factory) {
	live := factory(t, t.TempDir())
	workload(t, live)
	var snap sections
	cp := live.Checkpoint()
	err := cp.Write(&snap)
	cp.Release()
	if err != nil {
		t.Fatalf("Checkpoint.Write: %v", err)
	}

	restored := factory(t, t.TempDir())
	for {
		kind, body, err := snap.Next()
		if err == io.EOF {
			break
		}
		if kind != storage.SectionTable {
			t.Fatalf("section kind %d between tables", kind)
		}
		if err := restored.RestoreTable(body, &snap); err != nil {
			t.Fatalf("RestoreTable: %v", err)
		}
	}
	want := dumpCatalog(t, live.Catalog())
	got := dumpCatalog(t, restored.Catalog())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored state diverged\nwant: %+v\ngot:  %+v", want, got)
	}

	// Physical row IDs must survive the round trip: a WAL record logged
	// after the snapshot references them. Apply one to both and re-compare.
	rec := &opRecorder{}
	live.Catalog().SetJournal(rec)
	tbl, _ := live.Catalog().Get("items")
	if err := tbl.Set(9, 1, storage.Text("post-snapshot")); err != nil {
		t.Fatal(err)
	}
	for _, op := range rec.snapshot() {
		if err := restored.ApplyOp(op); err != nil {
			t.Fatalf("ApplyOp on restored backend: %v", err)
		}
	}
	if !reflect.DeepEqual(dumpCatalog(t, live.Catalog()), dumpCatalog(t, restored.Catalog())) {
		t.Fatal("post-snapshot mutation diverged: physical row IDs did not survive RestoreTable")
	}
}

func testCompaction(t *testing.T, factory Factory) {
	be := factory(t, t.TempDir())
	c := be.Catalog()
	tbl := mustCreate(t, c, "items",
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "name", Kind: storage.KindText})
	n := 2*storage.ChunkRows + 50
	seedRows(t, tbl, n)

	// Tombstone ~half the sealed region — above the default 30% density
	// threshold — plus a couple of tail rows.
	var doomed []int
	for i := 0; i < 2*storage.ChunkRows; i += 2 {
		doomed = append(doomed, i)
	}
	doomed = append(doomed, n-1, n-10)
	tbl.Delete(doomed)

	res, err := be.Compact("items", storage.CompactionPolicy{MinTombstoneFrac: storage.DefaultCompactionFrac})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("compaction skipped (%s) at %d/%d sealed tombstones", res.Skipped, len(doomed)-2, 2*storage.ChunkRows)
	}
	// The acceptance bar is ≥90% of sealed tombstoned rows reclaimed; this
	// engine reclaims all of them, tail included.
	if res.RowsReclaimed != len(doomed) {
		t.Fatalf("RowsReclaimed = %d, want %d", res.RowsReclaimed, len(doomed))
	}
	if got := tbl.Tombstones(); got != 0 {
		t.Fatalf("Tombstones after compaction = %d, want 0", got)
	}
	if got := tbl.NumRows(); got != n-len(doomed) {
		t.Fatalf("NumRows after compaction = %d, want %d", got, n-len(doomed))
	}

	// Every survivor is intact and exactly once, in its original order.
	wantID := int64(1) // id 0 was even → deleted
	var scanErr error
	survivors := 0
	tbl.Scan(func(i int, row storage.Row) bool {
		survivors++
		id, _ := row[0].AsInt()
		if id != wantID {
			scanErr = fmt.Errorf("physical row %d: id = %d, want %d", i, id, wantID)
			return false
		}
		if s, _ := row[1].AsText(); s != fmt.Sprintf("row-%05d", id) {
			scanErr = fmt.Errorf("id %d: name = %q", id, s)
			return false
		}
		// Advance to the next surviving id: odds below 2*ChunkRows, then
		// every tail id except the two deleted ones.
		for {
			wantID++
			if wantID < int64(2*storage.ChunkRows) {
				if wantID%2 == 1 {
					break
				}
				continue
			}
			if wantID != int64(n-1) && wantID != int64(n-10) {
				break
			}
		}
		return true
	})
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if survivors != n-len(doomed) {
		t.Fatalf("scan visited %d survivors, want %d", survivors, n-len(doomed))
	}

	// A second pass has nothing to do.
	res, err = be.Compact("items", storage.CompactionPolicy{MinTombstoneFrac: storage.DefaultCompactionFrac})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || res.Skipped != storage.CompactSkipClean {
		t.Fatalf("second pass = %+v, want clean skip", res)
	}
}

func testIndexRebuild(t *testing.T, factory Factory) {
	be := factory(t, t.TempDir())
	c := be.Catalog()
	tbl := mustCreate(t, c, "items",
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "name", Kind: storage.KindText})
	seedRows(t, tbl, storage.ChunkRows+200)

	hash, err := index.New(index.KindHash, "idx_hash_id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AttachIndex(hash); err != nil {
		t.Fatal(err)
	}
	ordered, err := index.New(index.KindOrdered, "idx_ord_id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AttachIndex(ordered); err != nil {
		t.Fatal(err)
	}

	probeHash := func(id int64) []int {
		t.Helper()
		v := storage.Int(id)
		snap, ids, err := tbl.PinIndexProbe("idx_hash_id", storage.IndexProbe{Key: []storage.Value{v}})
		if err != nil {
			t.Fatalf("hash probe %d: %v", id, err)
		}
		snap.Release()
		return ids
	}

	// Mutations the maintenance hooks track...
	tbl.Delete([]int{100})
	if err := tbl.Set(200, 0, storage.Int(999999)); err != nil {
		t.Fatal(err)
	}
	// ...then a bulk rebuild through the seam must agree.
	if err := be.RebuildIndexes("items"); err != nil {
		t.Fatal(err)
	}
	if ids := probeHash(100); len(ids) != 0 {
		t.Fatalf("deleted key 100 still indexed: %v", ids)
	}
	if ids := probeHash(999999); len(ids) != 1 || ids[0] != 200 {
		t.Fatalf("moved key 999999 → %v, want [200]", ids)
	}
	if ids := probeHash(200); len(ids) != 0 {
		t.Fatalf("stale key 200 still indexed: %v", ids)
	}

	// Ordered range over the tail end of the domain.
	lo := storage.Int(int64(storage.ChunkRows + 190))
	snap, ids, err := tbl.PinIndexProbe("idx_ord_id", storage.IndexProbe{Lo: &lo, LoInc: true})
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	// ids ChunkRows+190 .. ChunkRows+199, plus the 999999 row.
	if len(ids) != 11 {
		t.Fatalf("range probe returned %d ids (%v), want 11", len(ids), ids)
	}
	if ids[len(ids)-1] != 200 {
		t.Fatalf("range probe last id = %d, want 200 (the 999999 row)", ids[len(ids)-1])
	}
}
