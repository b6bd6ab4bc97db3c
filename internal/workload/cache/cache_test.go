package cache

import (
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"testing"
	"time"

	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

func row(vals ...string) storage.Row {
	r := make(storage.Row, len(vals))
	for i, v := range vals {
		r[i] = storage.Text(v)
	}
	return r
}

func TestHitMutateMiss(t *testing.T) {
	c := New(0)
	tables := []string{"movies"}
	snap := c.TableSeqs(tables)
	c.Put("fp1", snap, []string{"name"}, []storage.Row{row("alien")})

	if _, rows, ok := c.Get("fp1"); !ok || len(rows) != 1 {
		t.Fatalf("expected hit, got ok=%v rows=%v", ok, rows)
	}
	c.InvalidateTable("movies")
	if _, _, ok := c.Get("fp1"); ok {
		t.Fatal("hit after InvalidateTable — stale result served")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 invalidations=1", st)
	}
	if st.Entries != 0 {
		t.Fatalf("invalidated entry still resident: %+v", st)
	}
}

// TestGetBatchesCountsHitsNotMisses: the columnar probe runs on every
// statement's text, so only its caller can count a miss; an entry comes
// back with the observations it was stored with.
func TestGetBatchesCountsHitsNotMisses(t *testing.T) {
	c := New(0)
	obs := []workload.Observation{{Table: "movies", Columns: []string{"name"}, Kind: workload.KindAccess}}
	c.PutBatches("q", c.CaptureFootprint(Footprint{Table: "movies", Columns: obs[0].Columns}), obs, []string{"name"}, storage.BatchesOf([]storage.Row{row("alien")}))
	if _, _, _, ok := c.GetBatches("INSERT INTO movies VALUES ('x')"); ok {
		t.Fatal("a text never stored was served")
	}
	_, _, got, ok := c.GetBatches("q")
	if !ok || len(got) != 1 || &got[0] != &obs[0] {
		t.Fatalf("hit = %v with observations %v, want the list it was stored with", ok, got)
	}
	c.InvalidateTable("movies")
	if _, _, _, ok := c.GetBatches("q"); ok {
		t.Fatal("stale entry served")
	}
	c.CountMiss()
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want one hit, the one counted miss, one invalidation, no entry", st)
	}
}

// TestBytesCountWhatEntriesKeep: the byte bound is only a bound if an
// entry is charged for everything it keeps alive — its key text, its
// struct, LRU element and map slot, its footprint and observations, not
// only its result. Twenty thousand one-row entries, each with its own key,
// footprint, observation and batches, may grow the heap by at most a quarter
// more than the cache says it holds.
func TestBytesCountWhatEntriesKeep(t *testing.T) {
	const entries = 20000
	c := New(1 << 30)
	cols := []string{"rid", "movie_id", "score"}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("SELECT rid, movie_id, score FROM ratings WHERE rid = %d", i)
		obs := []workload.Observation{{Table: "ratings", Columns: []string{"rid", "movie_id", "score"}, Kind: workload.KindAccess}}
		batches := storage.BatchesOf([]storage.Row{{storage.Int(int64(i)), storage.Int(2), storage.Float(3)}})
		c.PutBatches(key, c.CaptureFootprint(Footprint{Table: "ratings", Columns: obs[0].Columns}), obs, cols, batches)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	if st.Entries != entries {
		t.Fatalf("%d entries resident, want %d", st.Entries, entries)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if float64(grown) > 1.25*float64(st.Bytes) {
		t.Fatalf("%d entries grew the heap by %d bytes, the cache counts %d: %.2f×, want at most 1.25×", entries, grown, st.Bytes, float64(grown)/float64(st.Bytes))
	}
	t.Logf("%d entries grew the heap by %d bytes, the cache counts %d (%.2f×)", entries, grown, st.Bytes, float64(grown)/float64(st.Bytes))
	runtime.KeepAlive(c)
}

func TestStaleStoreNeverServed(t *testing.T) {
	c := New(0)
	// Snapshot taken, then a mutation lands mid-execution, then the
	// (pre-mutation) result is stored. It must never be served.
	snap := c.TableSeqs([]string{"movies"})
	c.InvalidateTable("movies")
	c.Put("fp1", snap, []string{"name"}, []storage.Row{row("stale")})
	if _, _, ok := c.Get("fp1"); ok {
		t.Fatal("entry captured before a concurrent mutation was served")
	}
}

func TestMultiTableInvalidation(t *testing.T) {
	c := New(0)
	snap := c.TableSeqs([]string{"movies", "actors"})
	c.Put("join", snap, []string{"name"}, []storage.Row{row("x")})
	c.InvalidateTable("actors") // either table's mutation kills the entry
	if _, _, ok := c.Get("join"); ok {
		t.Fatal("join result survived a mutation of one input table")
	}
}

// TestBatchesAreSharedRowsAreNot pins the two contracts side by side: the
// columnar pair hands every hit the entry's own batch list — the list
// PutBatches was given, no cell copied — while the row adapters box fresh
// rows each time, so writing through a hit's rows or the Put caller's
// changes nothing a later hit sees.
func TestBatchesAreSharedRowsAreNot(t *testing.T) {
	c := New(0)
	snap := c.TableSeqs([]string{"movies"})
	mine := []storage.Row{{storage.Text("alien"), storage.Int(1979), storage.Null()}, {storage.Text("brazil"), storage.Int(1985), storage.Float(7.9)}}
	c.Put("rows", snap, []string{"name", "year", "score"}, mine)
	mine[0][0], mine[1][2] = storage.Text("mutated-after-put"), storage.Null()

	_, hit, ok := c.Get("rows")
	if !ok || len(hit) != 2 {
		t.Fatalf("hit = %v, %v", hit, ok)
	}
	want := fmt.Sprint(hit)
	if want != "[[alien 1979 NULL] [brazil 1985 7.9]]" {
		t.Fatalf("hit = %s", want)
	}
	hit[0][0], hit[1] = storage.Text("corrupted"), nil
	if _, again, _ := c.Get("rows"); fmt.Sprint(again) != want {
		t.Fatalf("second hit = %v, want %s", again, want)
	}

	batches := storage.BatchesOf([]storage.Row{{storage.Int(1)}, {storage.Int(2)}})
	cols := []string{"n"}
	c.PutBatches("batches", Capture{}, nil, cols, batches)
	for i := 0; i < 2; i++ {
		gotCols, got, _, ok := c.GetBatches("batches")
		if !ok || &gotCols[0] != &cols[0] || &got[0] != &batches[0] || &got[0].Cols[0].Ints[0] != &batches[0].Cols[0].Ints[0] {
			t.Fatalf("hit %d is not the list PutBatches was given", i)
		}
	}
}

// TestPutBatchesRefusesPinnedVectors: a view of pinned storage in an entry
// would outlive its pin.
func TestPutBatchesRefusesPinnedVectors(t *testing.T) {
	batches := storage.BatchesOf([]storage.Row{{storage.Int(1)}})
	batches[0].Cols[0].Pinned = true
	defer func() {
		if recover() == nil {
			t.Fatal("PutBatches accepted a pinned vector")
		}
	}()
	New(0).PutBatches("fp", Capture{}, nil, []string{"n"}, batches)
}

// TestGetBatchesAllocatesNothing is the hit path's allocation wall.
func TestGetBatchesAllocatesNothing(t *testing.T) {
	c := New(0)
	rows := make([]storage.Row, 100)
	for i := range rows {
		rows[i] = storage.Row{storage.Int(int64(i)), storage.Float(float64(i) / 2), storage.Text("t")}
	}
	c.Put("fp", c.TableSeqs([]string{"t"}), []string{"a", "b", "c"}, rows)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := c.GetBatches("fp"); !ok {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Fatalf("GetBatches of a hit allocates %.0f objects, want 0", allocs)
	}
}

// TestEntriesAreSizedByPayload: a numeric result is charged for its
// typed arrays at their capacity — 8 bytes a cell, up to twice that where
// append grew them, and a header per column — not 40 a cell for boxed
// Values, and text for its bytes.
func TestEntriesAreSizedByPayload(t *testing.T) {
	sized := func(rows []storage.Row) int64 {
		c := New(0)
		c.Put("fp", nil, []string{"a", "b"}, rows)
		c.Put("fp", nil, []string{"a", "b"}, rows) // a large entry is stored on its second sighting
		return c.Stats().Bytes
	}
	numeric := make([]storage.Row, 4000)
	for i := range numeric {
		numeric[i] = storage.Row{storage.Int(int64(i)), storage.Float(float64(i))}
	}
	if got, payload := sized(numeric), int64(4000*2*8); got < payload || got > 2*payload {
		t.Fatalf("a 4000×2 numeric result is charged %d bytes, want between its %d of payload and twice that", got, payload)
	}
	short := sized([]storage.Row{{storage.Text("x"), storage.Null()}})
	long := sized([]storage.Row{{storage.Text(string(make([]byte, 1000))), storage.Null()}})
	if long-short != 999 {
		t.Fatalf("999 more bytes of text are charged %d", long-short)
	}
}

// largeBatches is a one-column numeric answer charged well over admitBytes.
func largeBatches(first int64) []storage.Batch {
	rows := make([]storage.Row, 4000)
	for i := range rows {
		rows[i] = storage.Row{storage.Int(first + int64(i))}
	}
	return storage.BatchesOf(rows)
}

// TestLargeEntryStoredOnSecondSighting: an entry charged over admitBytes
// is computed and dropped on its text's first miss, counted as deferred,
// and stored — then served — on the second; the row adapter Put follows
// the same rule.
func TestLargeEntryStoredOnSecondSighting(t *testing.T) {
	c := New(0)
	seqs := c.TableSeqs([]string{"t"})
	batches := largeBatches(0)
	if size := entrySize("big", Capture{}, nil, []string{"n"}, batches); size <= admitBytes {
		t.Fatalf("the large answer is charged %d bytes, not over %d", size, admitBytes)
	}
	before := mDeferred.Value()
	c.PutBatches("big", Capture{}, nil, []string{"n"}, batches)
	if _, _, _, ok := c.GetBatches("big"); ok {
		t.Fatal("a large entry was served after its text's first miss")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Deferred != 1 {
		t.Fatalf("after the first sighting: %+v, want nothing stored and one deferral", st)
	}
	if got := mDeferred.Value() - before; got != 1 {
		t.Fatalf("crowddb_cache_deferred_total moved by %d, want 1", got)
	}
	c.PutBatches("big", Capture{}, nil, []string{"n"}, batches)
	if _, got, _, ok := c.GetBatches("big"); !ok || &got[0] != &batches[0] {
		t.Fatal("a large entry was not stored on its text's second miss")
	}

	rows := storage.RowsOf(largeBatches(1))
	c.Put("big rows", seqs, []string{"n"}, rows)
	if _, _, ok := c.Get("big rows"); ok {
		t.Fatal("Put stored a large entry on its text's first sighting")
	}
	c.Put("big rows", seqs, []string{"n"}, rows)
	if _, got, ok := c.Get("big rows"); !ok || len(got) != len(rows) {
		t.Fatal("Put did not store a large entry on its text's second sighting")
	}
	if st := c.Stats(); st.Entries != 2 || st.Deferred != 2 {
		t.Fatalf("stats = %+v, want two entries after two deferrals", st)
	}
}

// TestSmallEntryStoredAtOnce: an entry charged at most admitBytes is
// stored on its first miss — one byte more is deferred — and a cache that
// never sees a large entry allocates no doorkeeper. The first half is the
// benchmark harness's workload.cache probe: 4 096 one-row Puts, each Get
// after them a hit.
func TestSmallEntryStoredAtOnce(t *testing.T) {
	c := New(0)
	seqs := c.TableSeqs([]string{"ratings"})
	cols := []string{"rid", "movie_id", "score"}
	row := []storage.Row{{storage.Int(1), storage.Int(2), storage.Float(3)}}
	for i := 0; i < 4096; i++ {
		c.Put(fmt.Sprintf("select|ratings|rid=%d", i), seqs, cols, row)
	}
	for i := 0; i < 4096; i++ {
		if _, _, ok := c.Get(fmt.Sprintf("select|ratings|rid=%d", i)); !ok {
			t.Fatalf("one-row entry %d was not stored on its first Put", i)
		}
	}
	if st := c.Stats(); st.Deferred != 0 || c.seen != nil {
		t.Fatalf("one-row entries deferred %d, doorkeeper allocated: %v", st.Deferred, c.seen != nil)
	}

	text := func(n int) []storage.Batch {
		return storage.BatchesOf([]storage.Row{{storage.Text(string(make([]byte, n)))}})
	}
	n := int(admitBytes - entrySize("edge", Capture{}, nil, []string{"v"}, text(0)))
	if size := entrySize("edge", Capture{}, nil, []string{"v"}, text(n)); size != admitBytes {
		t.Fatalf("the edge entry is charged %d bytes, want %d", size, admitBytes)
	}
	c.PutBatches("edge", Capture{}, nil, []string{"v"}, text(n))
	if _, _, _, ok := c.GetBatches("edge"); !ok {
		t.Fatalf("an entry charged exactly %d bytes was not stored at once", admitBytes)
	}
	c.PutBatches("over", Capture{}, nil, []string{"v"}, text(n+1))
	if _, _, _, ok := c.GetBatches("over"); ok {
		t.Fatalf("an entry charged %d bytes was stored on its first sighting", admitBytes+1)
	}
}

// TestDoorkeeperCollisionOnlyDelays: two large texts whose fingerprints
// share a doorkeeper slot overwrite each other's record. Each is stored
// one miss later than it would be alone, and each is served its own
// answer.
func TestDoorkeeperCollisionOnlyDelays(t *testing.T) {
	c := New(0)
	answer := map[string][]storage.Batch{"a": largeBatches(0)}
	put := func(key string) { c.PutBatches(key, Capture{}, nil, []string{"n"}, answer[key]) }
	put("a") // allocates the doorkeeper and its seed
	slot := func(key string) uint64 { return maphash.String(c.seed, key) % doorkeeperSlots }
	b := ""
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("b%d", i); slot(k) == slot("a") {
			b = k
		}
	}
	answer[b] = largeBatches(1 << 20)

	put(b) // overwrites a's record
	put("a")
	if _, _, _, ok := c.GetBatches("a"); ok {
		t.Fatal("a was stored although b overwrote its record")
	}
	put("a")
	put(b) // overwrites a's record, which a no longer needs
	if _, _, _, ok := c.GetBatches(b); ok {
		t.Fatal("b was stored although a overwrote its record")
	}
	put(b)
	for key, want := range answer {
		if _, got, _, ok := c.GetBatches(key); !ok || &got[0] != &want[0] {
			t.Fatalf("%s: served %v, want its own answer", key, ok)
		}
	}
	if st := c.Stats(); st.Deferred != 4 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want four deferrals and two entries", st)
	}
}

// everyOther is the odd rows of n rows of (i, "r<i>", i/4), as an
// executor hands them up: typed batches under a sparse selection.
func everyOther(n int) []storage.Batch {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{storage.Int(int64(i)), storage.Text(fmt.Sprintf("r%d", i)), storage.Float(float64(i) / 4)}
	}
	batches := storage.BatchesOf(rows)
	for k := range batches {
		b := &batches[k]
		b.Sel = b.Sel[:0:0]
		for i := 1; i < b.N; i += 2 {
			b.Sel = append(b.Sel, int32(i))
		}
	}
	return batches
}

// fill feeds batches to a Fill of c under key and finishes it.
func fill(c *Cache, key string, batches []storage.Batch) {
	var f Fill
	c.Begin(&f, key, c.CaptureFootprint(Footprint{Table: "t", Columns: []string{"i", "s", "f"}}), nil, []string{"i", "s", "f"})
	for k := range batches {
		f.Add(&batches[k])
	}
	f.Finish()
}

// TestFillDecidesAsPutBatches: an answer fed to a Fill a batch at a time
// is stored, deferred and charged as PutBatches of the whole copy would
// store, defer and charge it — small answers at once, one at the
// admission line at once, large ones on their second sighting, and one
// over the limit never. A Fill abandoned before Finish is no sighting; a
// Fill past its line holds no copy and makes none.
func TestFillDecidesAsPutBatches(t *testing.T) {
	whole, fed := New(1<<20), New(1<<20)
	answers := map[string][]storage.Batch{"small": everyOther(40), "large": everyOther(3000), "huge": everyOther(100000)}
	cols := []string{"i", "s", "f"}
	// An answer charged admitBytes exactly, a text cell sized to the line,
	// and one a byte over it.
	text := func(n int) []storage.Batch {
		return storage.BatchesOf([]storage.Row{{storage.Int(0), storage.Text(string(make([]byte, n))), storage.Float(0)}})
	}
	n := int(admitBytes - entrySize("edge", Capture{}, nil, cols, text(0)))
	answers["edge"], answers["over edge"] = text(n), text(n+1)
	for sighting := 1; sighting <= 3; sighting++ {
		for _, key := range []string{"small", "large", "huge", "edge", "over edge"} {
			var owned []storage.Batch
			for k := range answers[key] {
				owned = storage.AppendOwned(owned, &answers[key][k])
			}
			whole.PutBatches(key, Capture{}, nil, cols, owned)
			fill(fed, key, answers[key])
			w, f := whole.Stats(), fed.Stats()
			if w.Deferred != f.Deferred || w.Entries != f.Entries || w.Bytes != f.Bytes {
				t.Fatalf("sighting %d of %s: PutBatches of the whole answer leaves %+v, a Fill %+v", sighting, key, w, f)
			}
		}
	}
	if st := fed.Stats(); st.Entries != 4 || st.Deferred != 2 {
		t.Fatalf("after three sightings: %+v, want every answer but the huge one stored, and the large and the over-edge one deferred once", st)
	}

	// Abandoned twice, then read to its end: the first completion is the
	// first sighting.
	c := New(0)
	large := answers["large"]
	for i := 0; i < 2; i++ {
		var f Fill
		c.Begin(&f, "q", c.CaptureFootprint(Footprint{Table: "t", Columns: cols}), nil, cols)
		f.Add(&large[0])
	}
	if st := c.Stats(); st.Deferred != 0 || c.seen != nil {
		t.Fatalf("abandoned fills left %+v, doorkeeper %v", st, c.seen != nil)
	}
	if fill(c, "q", large); c.Stats().Deferred != 1 {
		t.Fatal("the first completed fill of a large answer was not deferred")
	}

	// Past its line a Fill holds nothing and copies nothing more.
	var f Fill
	c.Begin(&f, "r", c.CaptureFootprint(Footprint{Table: "t", Columns: cols}), nil, cols)
	f.Add(&large[0])
	if f.batches != nil || !f.over {
		t.Fatalf("a Fill %d bytes over its line still holds %d batches", f.floor-f.line, len(f.batches))
	}
	if allocs := testing.AllocsPerRun(20, func() { f.Add(&large[0]) }); allocs != 0 {
		t.Fatalf("a Fill past its line allocates %.0f objects a batch", allocs)
	}

}

func TestGetReturnsIndependentCopies(t *testing.T) {
	c := New(0)
	snap := c.TableSeqs([]string{"movies"})
	c.Put("fp", snap, []string{"name"}, []storage.Row{row("alien")})
	_, rows, ok := c.Get("fp")
	if !ok {
		t.Fatal("expected hit")
	}
	rows[0][0] = storage.Text("corrupted")
	_, rows2, _ := c.Get("fp")
	if got, _ := rows2[0][0].AsText(); got != "alien" {
		t.Fatalf("cache entry corrupted through a returned row: %q", got)
	}
}

func TestPutCopiesCallerRows(t *testing.T) {
	c := New(0)
	snap := c.TableSeqs([]string{"movies"})
	rows := []storage.Row{row("alien")}
	c.Put("fp", snap, []string{"name"}, rows)
	rows[0][0] = storage.Text("mutated-after-put")
	_, got, _ := c.Get("fp")
	if txt, _ := got[0][0].AsText(); txt != "alien" {
		t.Fatalf("cache shares storage with caller rows: %q", txt)
	}
}

func TestLRUEviction(t *testing.T) {
	// Limit sized for two entries and a half.
	one := New(0)
	one.Put("a", nil, []string{"v"}, []storage.Row{row("aaaa")})
	c := New(one.Stats().Bytes * 5 / 2)
	snap := c.TableSeqs([]string{"t"})
	c.Put("a", snap, []string{"v"}, []storage.Row{row("aaaa")})
	c.Put("b", snap, []string{"v"}, []storage.Row{row("bbbb")})
	c.Get("a") // touch a: b becomes LRU
	c.Put("c", snap, []string{"v"}, []storage.Row{row("cccc")})

	if _, _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st := c.Stats(); st.Bytes > st.LimitBytes {
		t.Fatalf("cache over limit: %+v", st)
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := New(100)
	var rows []storage.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, row(fmt.Sprintf("row-%d-padding-padding", i)))
	}
	snap := c.TableSeqs([]string{"t"})
	c.Put("huge", snap, []string{"v"}, rows)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry was cached: %+v", st)
	}
}

func TestDuplicatePutReplaces(t *testing.T) {
	c := New(0)
	snap := c.TableSeqs([]string{"t"})
	c.Put("fp", snap, []string{"v"}, []storage.Row{row("old")})
	c.Put("fp", snap, []string{"v"}, []storage.Row{row("new")})
	_, rows, ok := c.Get("fp")
	if !ok || len(rows) != 1 {
		t.Fatalf("expected single-row hit, ok=%v rows=%v", ok, rows)
	}
	if txt, _ := rows[0][0].AsText(); txt != "new" {
		t.Fatalf("duplicate Put did not replace: %q", txt)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate Put leaked an entry: %+v", st)
	}
}

func TestConcurrentAccessIsRaceClean(t *testing.T) {
	c := New(1 << 20)
	large := largeBatches(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			c.InvalidateTable("t")
			snap := c.TableSeqs([]string{"t"})
			c.Put(fmt.Sprintf("fp%d", i%7), snap, []string{"v"}, []storage.Row{row("x")})
			c.PutBatches(fmt.Sprintf("large%d", i%5), c.CaptureFootprint(Footprint{Table: "t", Star: true}), nil, []string{"n"}, large)
		}
	}()
	for i := 0; i < 500; i++ {
		c.Get(fmt.Sprintf("fp%d", i%7))
		c.GetBatches(fmt.Sprintf("large%d", i%5))
		c.Stats()
	}
	<-done
}

// BenchmarkColumnarGetPut is the harness's workload.cache probe on the
// columnar pair — 4 096 entries of one small row, stored once and hit once
// each — beside the same entries through the row adapters the probe times.
func BenchmarkColumnarGetPut(b *testing.B) {
	const entries = 4096
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("select|ratings|rid=%d", i)
	}
	cols := []string{"rid", "movie_id", "score"}
	rows := []storage.Row{{storage.Int(1), storage.Int(2), storage.Float(3)}}
	batches := storage.BatchesOf(rows) // immutable: every entry may share it
	b.Run("PutBatches", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New(0)
			for _, k := range keys {
				c.PutBatches(k, c.CaptureFootprint(Footprint{Table: "ratings", Star: true}), nil, cols, batches)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
	})
	b.Run("Put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New(0)
			seqs := c.TableSeqs([]string{"ratings"})
			for _, k := range keys {
				c.Put(k, seqs, cols, rows)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
	})
	c := New(0)
	seqs := c.TableSeqs([]string{"ratings"})
	for _, k := range keys {
		c.Put(k, seqs, cols, rows)
	}
	b.Run("GetBatches", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, _, _, ok := c.GetBatches(k); !ok {
					b.Fatal("miss")
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
	})
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, _, ok := c.Get(k); !ok {
					b.Fatal("miss")
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
	})
}

// TestInsertWorkDoesNotGrowWithPoints: a write's images are looked up in
// the point index of each watched column, so an INSERT that meets none of
// 10 000 point entries takes about as long as one that meets none of 10 —
// a walk of the entries would take a thousand times as long — allocates
// nothing, and spares them all.
func TestInsertWorkDoesNotGrowWithPoints(t *testing.T) {
	insert := storage.Write{Kind: storage.OpInsert, Table: "t", Keys: []string{"rid"}, New: []storage.Value{storage.Int(-1)}}
	timeInsert := func(points int) time.Duration {
		c := New(0)
		for i := 0; i < points; i++ {
			cp := c.CaptureFootprint(Footprint{Table: "t", Columns: []string{"v"}, Key: "rid", Lo: int64(i), Hi: int64(i)})
			c.PutBatches(fmt.Sprintf("q%d", i), cp, nil, []string{"v"}, storage.BatchesOf([]storage.Row{{storage.Int(1)}}))
		}
		if allocs := testing.AllocsPerRun(100, func() { c.Observe(insert) }); allocs != 0 {
			t.Fatalf("an INSERT's invalidation allocates %.0f objects over %d point entries", allocs, points)
		}
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for j := 0; j < 20_000; j++ {
				c.Observe(insert)
			}
			best = min(best, time.Since(start))
		}
		if st := c.Stats(); st.Entries != points || st.Invalidations != 0 {
			t.Fatalf("%d point entries after the INSERTs: %+v", points, st)
		}
		return best
	}
	few, many := timeInsert(10), timeInsert(10_000)
	if many > 5*few {
		t.Fatalf("20 000 INSERTs' invalidation took %v over 10 000 point entries, %v over 10", many, few)
	}
}

// TestWriteKillsWhatItMeets walks the footprint rule write by write: an
// INSERT or DELETE kills the entries whose interval holds a row image's
// cell and those without an interval, an UPDATE only those of them that
// read a SET column, a FILL COLUMN those that read the column, an ADD
// COLUMN those of SELECT *, a compaction none and an index change all; a
// miss a write meets in flight is not stored, and a released one is no
// longer watched.
func TestWriteKillsWhatItMeets(t *testing.T) {
	c := New(0)
	put := func(key string, fp Footprint) {
		fp.Table = "t"
		c.PutBatches(key, c.CaptureFootprint(fp), nil, []string{"n"}, storage.BatchesOf([]storage.Row{{storage.Int(1)}}))
	}
	point := func(n int64, cols ...string) Footprint { return Footprint{Columns: cols, Key: "rid", Lo: n, Hi: n} }
	write := func(kind storage.OpKind, cols []string, old, new []storage.Value) {
		c.Observe(storage.Write{Kind: kind, Table: "T", Cols: cols, Keys: []string{"rid"}, Old: old, New: new})
	}
	alive := func(step string, want ...string) {
		t.Helper()
		var got []string
		for _, key := range []string{"point", "count", "range", "empty", "whole", "star"} {
			if _, ok := c.entries[key]; ok {
				got = append(got, key)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %s the entries %v are alive, want %v", step, got, want)
		}
	}
	all := func() {
		put("point", point(5, "rid", "v"))
		put("count", point(5, "rid"))
		put("range", Footprint{Columns: []string{"v", "rid"}, Key: "rid", Lo: 10, Hi: 20})
		put("empty", Footprint{Columns: []string{"v"}, Key: "rid", Lo: 1, Hi: 0})
		put("whole", Footprint{Columns: []string{"w"}})
		put("star", Footprint{Star: true, Key: "rid", Lo: 5, Hi: 5})
	}
	all()
	if got := c.Watched("T"); fmt.Sprint(got) != "[rid]" {
		t.Fatalf("Watched = %v, want [rid]", got)
	}
	five, six, fifteen, null := storage.Int(5), storage.Int(6), storage.Int(15), storage.Null()
	write(storage.OpInsert, nil, nil, []storage.Value{six})
	alive("INSERT rid 6", "point", "count", "range", "empty", "star")
	write(storage.OpInsert, nil, nil, []storage.Value{null})
	alive("INSERT rid NULL", "point", "count", "range", "empty", "star")
	write(storage.OpSet, []string{"W"}, []storage.Value{five}, []storage.Value{five})
	alive("UPDATE SET w of rid 5", "point", "count", "range", "empty")
	write(storage.OpSet, []string{"v"}, []storage.Value{six}, []storage.Value{fifteen})
	alive("UPDATE SET v, rid 6 → 15", "point", "count", "empty")
	write(storage.OpTombstone, nil, []storage.Value{five}, nil)
	alive("DELETE rid 5", "empty")
	if st := c.Stats(); st.Invalidations != 5 {
		t.Fatalf("%d invalidations, want one per entry killed", st.Invalidations)
	}

	all()
	c.Observe(storage.Write{Kind: storage.OpAddColumn, Table: "t", Cols: []string{"x"}})
	alive("ADD COLUMN x", "point", "count", "range", "empty", "whole")
	c.Observe(storage.Write{Kind: storage.OpFillColumn, Table: "t", Cols: []string{"V"}})
	alive("FILL COLUMN v", "count", "whole")
	c.Observe(storage.Write{Kind: storage.OpCompact, Table: "t"})
	alive("a compaction", "count", "whole")
	if got := c.Watched("t"); fmt.Sprint(got) != "[rid]" {
		t.Fatalf("Watched = %v after a compaction, want [rid]", got)
	}
	c.InvalidateTable("t")
	alive("an index change")
	if got := c.Watched("t"); got != nil {
		t.Fatalf("Watched = %v with no entry left", got)
	}

	// A write that meets a miss in flight: the miss is not stored.
	cp := c.CaptureFootprint(Footprint{Table: "t", Columns: []string{"v"}, Key: "rid", Lo: 7, Hi: 7})
	write(storage.OpInsert, nil, nil, []storage.Value{storage.Int(7)})
	c.PutBatches("point", cp, nil, []string{"n"}, storage.BatchesOf([]storage.Row{{storage.Int(1)}}))
	alive("a miss killed in flight")
	// A released miss is watched no more.
	c.Release(c.CaptureFootprint(Footprint{Table: "t", Key: "rid", Lo: 8, Hi: 8}))
	if got := c.Watched("t"); got != nil {
		t.Fatalf("Watched = %v after the only miss was released", got)
	}
}

// TestJoinEntryDiesByEitherTable: a join's entry is watched by one
// footprint per table, and a write to either table that meets its
// footprint there kills the entry and unwatches both; a write that meets
// neither spares it.
func TestJoinEntryDiesByEitherTable(t *testing.T) {
	c := New(0)
	put := func() {
		cp := c.CaptureFootprint(Footprint{Table: "t", Columns: []string{"k", "x"}}, Footprint{Table: "u", Columns: []string{"k", "w"}})
		c.PutBatches("join", cp, nil, []string{"x", "w"}, storage.BatchesOf([]storage.Row{{storage.Int(1), storage.Int(2)}}))
	}
	alive := func() bool { _, ok := c.entries["join"]; return ok }
	for _, w := range []storage.Write{
		{Kind: storage.OpSet, Table: "t", Cols: []string{"x"}},
		{Kind: storage.OpSet, Table: "U", Cols: []string{"W"}},
		{Kind: storage.OpInsert, Table: "u"},
		{Kind: storage.OpTombstone, Table: "t"},
		{Kind: storage.OpFillColumn, Table: "u", Cols: []string{"k"}},
	} {
		put()
		c.Observe(storage.Write{Kind: storage.OpSet, Table: "u", Cols: []string{"label"}})
		c.Observe(storage.Write{Kind: storage.OpSet, Table: "t", Cols: []string{"s"}})
		c.Observe(storage.Write{Kind: storage.OpAddColumn, Table: "t", Cols: []string{"y"}})
		c.Observe(storage.Write{Kind: storage.OpCompact, Table: "u"})
		if !alive() {
			t.Fatalf("before %+v: a write that meets neither footprint killed the join", w)
		}
		c.Observe(w)
		if alive() || len(c.watches) != 0 {
			t.Fatalf("%+v: entry alive %v, %d tables still watched", w, alive(), len(c.watches))
		}
	}
	if st := c.Stats(); st.Invalidations != 5 {
		t.Fatalf("%d invalidations, want one per write that met the join", st.Invalidations)
	}
}

// TestPutAfterAWriteStoresNothing: the row adapter's entry is stored only
// if no write was observed since its TableSeqs, and then dies by any row
// write to one of its tables — counted at the write, not at a Get.
func TestPutAfterAWriteStoresNothing(t *testing.T) {
	c := New(0)
	seqs := c.TableSeqs([]string{"t", "u"})
	c.Observe(storage.Write{Kind: storage.OpInsert, Table: "v"})
	c.Put("q", seqs, []string{"n"}, []storage.Row{row("stale")})
	if st := c.Stats(); st.Entries != 0 || len(c.watches) != 0 {
		t.Fatalf("a Put after a write: %+v, %d tables watched", st, len(c.watches))
	}
	c.Put("q", c.TableSeqs([]string{"t", "u"}), []string{"n"}, []storage.Row{row("fresh")})
	c.Observe(storage.Write{Kind: storage.OpCompact, Table: "u"})
	if _, _, ok := c.Get("q"); !ok {
		t.Fatal("a compaction killed the adapter's entry")
	}
	c.Observe(storage.Write{Kind: storage.OpSet, Table: "u", Cols: []string{"anything"}})
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 1 || len(c.watches) != 0 {
		t.Fatalf("after an UPDATE of u: %+v, %d tables watched", st, len(c.watches))
	}
}
