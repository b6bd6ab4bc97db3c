package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/storage"
	"crowddb/internal/wal"
)

// A seeded history of every journaled kind of mutation, the crash that ends
// it, and the comparison of what reopens with what was running: the
// restart axis of the correctness wall (ROADMAP 1a) and the crash-point
// table the binary snapshot must pass (ROADMAP 4).

const (
	histRows  = storage.ChunkRows + 300 // across a seal boundary
	histItems = 600                     // rows the space (and the crowd) knows
)

// history runs one seeded sequence of statements against a durable
// database, keeping what it ran so a failure can print it.
type history struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	dir  string
	db   *DB
	log  []string
}

func newHistory(t *testing.T, seed int64) *history {
	t.Helper()
	h := &history{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
	db, err := Open(Options{Service: simulatedService(seed, histItems), DataDir: h.dir})
	if err != nil {
		t.Fatal(err)
	}
	h.db = db
	t.Cleanup(func() { _ = db.Close() }) // the crash copies are what the tests read
	return h
}

func (h *history) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d: %s\nhistory:\n  %s", h.seed, fmt.Sprintf(format, args...), strings.Join(h.log, "\n  "))
}

func (h *history) note(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

func (h *history) exec(sql string) *Result {
	h.t.Helper()
	if len(sql) > 120 {
		h.note("%s … (%d bytes)", sql[:120], len(sql))
	} else {
		h.note("%s", sql)
	}
	res, _, err := h.db.ExecSQL(sql)
	if err != nil {
		h.failf("%s: %v", sql, err)
	}
	return res
}

// load creates the table with its indexes, space and expandable columns
// and inserts histRows rows: NULLs in every nullable position, empty TEXT,
// −0.0.
func (h *history) load() {
	h.exec(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER, score FLOAT)`)
	h.exec(`CREATE INDEX m_id ON movies (movie_id)`)
	h.exec(`CREATE INDEX m_year ON movies (year DESC, movie_id) USING ORDERED`)
	h.insertRows(0, histRows)
	if err := h.db.AttachSpace("movies", "movie_id", persistTestSpace(histItems, 4)); err != nil {
		h.failf("AttachSpace: %v", err)
	}
	h.note("AttachSpace(movies.movie_id, %d items)", histItems)
	if err := h.db.SetBudget("team", 500); err != nil {
		h.failf("SetBudget: %v", err)
	}
	h.note("SetBudget(team, 500)")
	for _, col := range []string{"is_comedy", "is_drama"} {
		h.db.RegisterExpandable("movies", col, storage.KindBool, ExpandOptions{SamplesPerClass: 10, APIKey: "team"})
		h.note("RegisterExpandable(movies.%s)", col)
	}
}

func (h *history) insertRows(from, to int) {
	for lo := from; lo < to; lo += 200 {
		var b strings.Builder
		b.WriteString(`INSERT INTO movies (movie_id, name, year, score) VALUES `)
		for id := lo; id < min(lo+200, to); id++ {
			if id > lo {
				b.WriteString(", ")
			}
			name, year, score := fmt.Sprintf("'movie %d'", id), fmt.Sprint(1950+h.rng.Intn(70)), fmt.Sprintf("%.2f", h.rng.Float64()*10)
			switch h.rng.Intn(12) {
			case 0:
				name = "NULL"
			case 1:
				name = "''"
			case 2:
				year = "NULL"
			case 3:
				score = "NULL"
			case 4:
				score = "-0.0"
			}
			fmt.Fprintf(&b, "(%d, %s, %s, %s)", id, name, year, score)
		}
		h.exec(b.String())
	}
}

// expand queries a registered column no row has yet, which pays the crowd.
func (h *history) expand(col string) {
	before := h.db.Ledger()
	h.exec(fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, col))
	if after := h.db.Ledger(); after.Cost <= before.Cost {
		h.failf("expanding %s charged nothing: %+v", col, after)
	}
}

// update rewrites two columns of rows on both sides of the seal boundary
// and one column, to NULL, of a few scattered ones.
func (h *history) update() {
	lo := storage.ChunkRows - 50 - h.rng.Intn(40)
	h.exec(fmt.Sprintf(`UPDATE movies SET year = year + 1, name = 'renamed' WHERE movie_id >= %d AND movie_id < %d`, lo, lo+120))
	h.exec(fmt.Sprintf(`UPDATE movies SET score = NULL WHERE movie_id = %d OR movie_id = %d`, h.rng.Intn(100), histRows-1-h.rng.Intn(100)))
}

func (h *history) deleteRange() {
	lo := 700 + h.rng.Intn(300)
	h.exec(fmt.Sprintf(`DELETE FROM movies WHERE movie_id >= %d AND movie_id < %d`, lo, lo+1500))
}

func (h *history) compact() {
	h.note("CompactNow")
	if res := h.db.CompactNow()["movies"]; !res.Compacted {
		h.failf("CompactNow = %+v", res)
	}
}

func (h *history) snapshot() {
	h.note("Snapshot")
	if _, err := h.db.Snapshot(); err != nil {
		h.failf("Snapshot: %v", err)
	}
}

// crash copies the data dir as a crash right now would leave it — the log
// flushed, nothing closed — and leaves the database running.
func (h *history) crash() string {
	h.t.Helper()
	h.note("crash")
	if err := h.db.wal.Sync(); err != nil {
		h.failf("Sync: %v", err)
	}
	return copyDataDir(h.t, h.dir)
}

func copyDataDir(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// run plays the whole history: load, first expansion, UPDATE, range DELETE,
// CompactNow, second expansion, more inserts and another UPDATE, with a
// snapshot after the steps named in snapshotAfter.
func (h *history) run(snapshotAfter ...string) {
	steps := []struct {
		name string
		do   func()
	}{
		{"load", h.load},
		{"expand1", func() { h.expand("is_comedy") }},
		{"update", h.update},
		{"delete", h.deleteRange},
		{"compact", h.compact},
		{"expand2", func() { h.expand("is_drama") }},
		{"tail", func() { h.insertRows(histRows, histRows+150); h.update() }},
	}
	for _, s := range steps {
		s.do()
		for _, at := range snapshotAfter {
			if at == s.name {
				h.snapshot()
			}
		}
	}
}

// reopen opens a crash copy against a crowd that fails when asked, checks
// that it holds what the running database holds and that re-querying both
// expanded columns buys no judgment, and closes it.
func (h *history) reopen(dir, what string) {
	h.t.Helper()
	dead := &deadService{}
	db, err := Open(Options{Service: dead, DataDir: dir})
	if err != nil {
		h.failf("%s: reopen: %v", what, err)
	}
	defer db.Close()
	if err := diffDatabases(h.db, db); err != nil {
		h.failf("%s: reopened database differs from the live one: %v", what, err)
	}
	for _, col := range []string{"is_comedy", "is_drama"} {
		sql := fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, col)
		want, _, err1 := h.db.ExecSQL(sql)
		got, _, err2 := db.ExecSQL(sql)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(want.Rows, got.Rows) {
			h.failf("%s: %s = %v (%v) reopened, %v (%v) live", what, sql, got, err2, want, err1)
		}
	}
	if dead.calls != 0 || db.Ledger() != h.db.Ledger() {
		h.failf("%s: reopening asked the crowd %d times; ledger %+v, live %+v", what, dead.calls, db.Ledger(), h.db.Ledger())
	}
}

// diffDatabases compares everything durable of two databases: schemas with
// provenance, every physical row incl. which IDs are tombstoned, every
// index's definition and probes, bindings, expandables, ledger, budgets,
// terminal jobs.
func diffDatabases(want, got *DB) error {
	if a, b := want.Catalog().Names(), got.Catalog().Names(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("tables %v, want %v", b, a)
	}
	for _, name := range want.Catalog().Names() {
		wt, _ := want.Catalog().Get(name)
		gt, _ := got.Catalog().Get(name)
		if err := diffTables(wt, gt); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
		wb, gb := want.binding(name), got.binding(name)
		if (wb == nil) != (gb == nil) {
			return fmt.Errorf("table %s: binding %v, want %v", name, gb, wb)
		}
		if wb != nil && (wb.idColumn != gb.idColumn || !reflect.DeepEqual(wb.space.Coords(), gb.space.Coords())) {
			return fmt.Errorf("table %s: space binding differs", name)
		}
	}
	want.mu.RLock()
	got.mu.RLock()
	same := reflect.DeepEqual(want.expandables, got.expandables)
	got.mu.RUnlock()
	want.mu.RUnlock()
	if !same {
		return fmt.Errorf("expandable registrations differ")
	}
	if a, b := want.Ledger(), got.Ledger(); a != b {
		return fmt.Errorf("ledger %+v, want %+v", b, a)
	}
	if a, b := want.Budgets(), got.Budgets(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("budgets %+v, want %+v", b, a)
	}
	wj, gj := want.Jobs(), got.Jobs()
	if len(wj) != len(gj) {
		return fmt.Errorf("%d jobs, want %d", len(gj), len(wj))
	}
	for i := range wj {
		if wj[i].ID != gj[i].ID || wj[i].Key != gj[i].Key || wj[i].State != gj[i].State || wj[i].Ledger != gj[i].Ledger || wj[i].Origin != gj[i].Origin {
			return fmt.Errorf("job %d: %+v, want %+v", i, gj[i], wj[i])
		}
	}
	return nil
}

func sameCell(a, b storage.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if af, ok := a.AsFloat(); ok && a.Kind() == storage.KindFloat {
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf) // −0.0 is not 0.0 here
	}
	return a == b
}

func diffTables(want, got *storage.Table) error {
	if a, b := want.Schema().Columns(), got.Schema().Columns(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("schema %+v, want %+v", b, a)
	}
	if want.NumRows() != got.NumRows() || want.Tombstones() != got.Tombstones() {
		return fmt.Errorf("%d live rows and %d tombstones, want %d and %d", got.NumRows(), got.Tombstones(), want.NumRows(), want.Tombstones())
	}
	wc, gc := want.NewCursor(0), got.NewCursor(0)
	defer wc.Close()
	defer gc.Close()
	var keyRows []storage.Row // every 17th live row, to probe the indexes with
	for {
		wb, gb := wc.NextBatch(), gc.NextBatch()
		if wb == nil || gb == nil {
			if wb != nil || gb != nil {
				return fmt.Errorf("one cursor ended before the other")
			}
			break
		}
		// Sel names the live cells: the physical IDs missing from it are the
		// tombstoned ones, so equal windows and selections mean equal IDs.
		if wb.Lo != gb.Lo || wb.N != gb.N || !reflect.DeepEqual(wb.Sel, gb.Sel) {
			return fmt.Errorf("window at row %d: %d cells, %d live; want row %d: %d cells, %d live", gb.Lo, gb.N, len(gb.Sel), wb.Lo, wb.N, len(wb.Sel))
		}
		for _, i := range wb.Sel {
			row := make(storage.Row, len(wb.Cols))
			for c := range wb.Cols {
				a, b := wb.Cols[c].Value(int(i)), gb.Cols[c].Value(int(i))
				if !sameCell(a, b) {
					return fmt.Errorf("row %d column %d: %v (%s), want %v (%s)", wb.RowID(int(i)), c, b, b.Kind(), a, a.Kind())
				}
				row[c] = a
			}
			if wb.RowID(int(i))%17 == 0 {
				keyRows = append(keyRows, row)
			}
		}
	}
	if err := errors.Join(wc.Err(), gc.Err()); err != nil {
		return err
	}

	wm, gm := want.IndexMetas(), got.IndexMetas()
	byName := func(m []storage.IndexMeta) { sort.Slice(m, func(i, j int) bool { return m[i].Name < m[j].Name }) }
	byName(wm)
	byName(gm)
	if !reflect.DeepEqual(wm, gm) {
		return fmt.Errorf("indexes %+v, want %+v", gm, wm)
	}
	for _, im := range wm {
		probes := []storage.IndexProbe{{Key: make([]storage.Value, len(im.Columns))}} // the all-NULL key: in no index
		for _, row := range keyRows {
			key := make([]storage.Value, len(im.Columns))
			for k, col := range im.Columns {
				ci, _ := want.Schema().Lookup(col)
				key[k] = row[ci]
			}
			probes = append(probes, storage.IndexProbe{Key: key})
		}
		if im.Ordered {
			probes = append(probes, storage.IndexProbe{}, storage.IndexProbe{Reverse: true})
		}
		for _, p := range probes {
			wi, wk, err1 := want.IndexOnlyProbe(im.Name, p)
			gi, gk, err2 := got.IndexOnlyProbe(im.Name, p)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(wi, gi) || !reflect.DeepEqual(wk, gk) {
				return fmt.Errorf("index %s probe %+v: %d rows (%v), want %d (%v)", im.Name, p, len(gi), err2, len(wi), err1)
			}
		}
	}
	return nil
}

// TestRestartDifferential: after the seeded history, a crash and a reopen,
// the database is the one that was running — cell by cell, index probe by
// index probe — whether the crash found no snapshot, one from the middle
// of the history or one from its end, and whether or not a compaction ran
// between the last snapshot and the crash.
func TestRestartDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, tc := range []struct {
			name      string
			snapshots []string
		}{
			{"no snapshot", nil},
			{"snapshot mid", []string{"expand1"}},
			{"snapshot last", []string{"expand1", "tail"}},
		} {
			for _, compactLast := range []bool{false, true} {
				name := fmt.Sprintf("seed %d/%s/compaction before crash=%v", seed, tc.name, compactLast)
				t.Run(name, func(t *testing.T) {
					h := newHistory(t, seed)
					h.run(tc.snapshots...)
					if compactLast {
						h.exec(`DELETE FROM movies WHERE movie_id >= 100 AND movie_id < 400`)
						h.compact()
					}
					h.reopen(h.crash(), name)
				})
			}
		}
	}
}

// snapshotSections returns the byte offset at which each frame of a
// snapshot file starts — the first after the header, the last being the
// end frame — and the file's length.
func snapshotSections(t *testing.T, path string) (starts []int64, size int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	const header, frameHeader = 20, 8
	for off := int64(header); off < fi.Size(); {
		var hdr [frameHeader]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		starts = append(starts, off)
		off += frameHeader + int64(binary.LittleEndian.Uint32(hdr[:4]))
	}
	return starts, fi.Size()
}

// TestSnapshotCrashPoints: the newest snapshot cut at every section
// boundary and one byte into every section (and into its header) is not a
// snapshot; a reopen must find the whole state in the generation before it
// plus the log — the ledger equal to the cent, no judgment bought again.
func TestSnapshotCrashPoints(t *testing.T) {
	for _, seed := range []int64{3} {
		h := newHistory(t, seed)
		h.run("expand1", "tail")
		h.exec(`UPDATE movies SET name = 'after the last snapshot' WHERE movie_id < 3`)
		crashed := h.crash()
		h.reopen(copyDataDir(t, crashed), "uncut")

		snaps, err := filepath.Glob(filepath.Join(crashed, "snap-*.snap"))
		if err != nil || len(snaps) != 2 {
			h.failf("crash copy holds %d snapshot generations (err=%v), want 2", len(snaps), err)
		}
		sort.Strings(snaps)
		newest := snaps[1]
		starts, size := snapshotSections(t, newest)
		if len(starts) < 10 {
			h.failf("newest snapshot has %d frames", len(starts))
		}
		cuts := []int64{0, 7, 20}
		for _, s := range starts {
			cuts = append(cuts, s, s+9)
		}
		cuts = append(cuts, size-1)
		for _, cut := range cuts {
			if cut >= size {
				continue
			}
			dir := copyDataDir(t, crashed)
			if err := os.Truncate(filepath.Join(dir, filepath.Base(newest)), cut); err != nil {
				t.Fatal(err)
			}
			h.reopen(dir, fmt.Sprintf("newest snapshot cut at byte %d of %d", cut, size))
		}
	}
}

// logRecords counts, per type, the records a data dir's log holds after
// its latest snapshot.
func logRecords(t *testing.T, dir string) map[string]int {
	t.Helper()
	w, err := wal.Open(copyDataDir(t, dir), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	counts := map[string]int{}
	if err := w.Replay(func(rec wal.Record) error { counts[rec.Type]++; return nil }); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestUpdateJournalsOneRecordPerColumn: an UPDATE is one set record per SET
// column, whatever it touches — here rows of a sealed chunk and of the
// tail, two columns — and a crash right after it recovers every cell.
func TestUpdateJournalsOneRecordPerColumn(t *testing.T) {
	h := newHistory(t, 5)
	h.exec(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER, score FLOAT)`)
	h.insertRows(0, histRows)
	before := logRecords(t, h.crash())
	res := h.exec(fmt.Sprintf(`UPDATE movies SET year = year + 1, name = 'renamed' WHERE movie_id >= %d AND movie_id < %d`,
		storage.ChunkRows-60, storage.ChunkRows+60))
	if res.Affected != 120 {
		h.failf("UPDATE affected %d rows, want 120", res.Affected)
	}
	crashed := h.crash()
	after := logRecords(t, crashed)
	if got := after[recOp] - before[recOp]; got != 2 {
		h.failf("a two-column UPDATE of 120 rows journaled %d op records, want 2", got)
	}
	dead := &deadService{}
	db, err := Open(Options{Service: dead, DataDir: crashed})
	if err != nil {
		h.failf("reopen: %v", err)
	}
	defer db.Close()
	if err := diffDatabases(h.db, db); err != nil {
		h.failf("after the crash: %v", err)
	}
}

// TestHybridRelabelsJournalOneSet: a HYBRID expansion writes the labels it
// re-queried as one SetBatch — one set record whatever the number of
// re-queried items — and a crash right after it recovers every cell.
func TestHybridRelabelsJournalOneSet(t *testing.T) {
	h := newHistory(t, 9)
	h.exec(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER, score FLOAT)`)
	h.insertRows(0, histItems)
	if err := h.db.AttachSpace("movies", "movie_id", persistTestSpace(histItems, 4)); err != nil {
		h.failf("AttachSpace: %v", err)
	}
	before := setRecords(t, h.crash())
	h.note("EXPAND TABLE movies ADD COLUMN is_comedy BOOLEAN USING HYBRID")
	_, rep, err := h.db.ExecSQL(`EXPAND TABLE movies ADD COLUMN is_comedy BOOLEAN USING HYBRID`)
	if err != nil {
		h.failf("HYBRID expansion: %v", err)
	}
	if rep.Requeried < 2 {
		h.failf("HYBRID re-queried %d items; the test needs at least 2", rep.Requeried)
	}
	crashed := h.crash()
	if got := setRecords(t, crashed) - before; got != 1 {
		h.failf("a HYBRID expansion re-querying %d items journaled %d set records, want 1", rep.Requeried, got)
	}
	db, err := Open(Options{Service: &deadService{}, DataDir: crashed})
	if err != nil {
		h.failf("reopen: %v", err)
	}
	defer db.Close()
	if err := diffDatabases(h.db, db); err != nil {
		h.failf("after the crash: %v", err)
	}
}

// setRecords counts the set records a data dir's log holds after its
// latest snapshot.
func setRecords(t *testing.T, dir string) int {
	t.Helper()
	w, err := wal.Open(copyDataDir(t, dir), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	n := 0
	err = w.Replay(func(rec wal.Record) error {
		if rec.Type != recOp {
			return nil
		}
		op, err := storage.DecodeOp(rec.Data)
		if op.Kind == storage.OpSet {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestObservationsAreBatched: reads do not write. 1 000 SELECTs feed the
// tracker one by one but reach the log 256 at a time (the rest at Close),
// and a snapshot in between — which persists the tracker's counters —
// neither loses nor doubles one: the reopened total is exact.
func TestObservationsAreBatched(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`CREATE TABLE t (a INTEGER, b INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`INSERT INTO t VALUES (1, 2)`); err != nil {
		t.Fatal(err)
	}
	start := db.wal.Seq()
	selects := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := db.ExecSQL(fmt.Sprintf(`SELECT a FROM t WHERE b = %d`, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	selects(600)
	if got := db.wal.Seq() - start; got != 2 {
		t.Fatalf("600 SELECTs appended %d records, want 2 batches of %d", got, obsBatch)
	}
	// 88 observations are pending; the snapshot's counters hold them.
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	selects(400)
	if got := db.wal.Seq() - start; got > 4 {
		t.Fatalf("1 000 SELECTs appended %d records, want at most 4", got)
	}
	// The pair counts are left out: they also depend on the tracker's
	// window of recent queries, which is memory only and restarts empty.
	counts := func(db *DB) string {
		c := db.Workload().Counters
		return fmt.Sprintf("total %d, table %s %d, columns %v", c.TotalQueries, c.Tables[0].Table, c.Tables[0].Queries, c.Tables[0].Columns)
	}
	want := counts(db)
	if want != "total 1000, table t 1000, columns map[a:1000 b:1000]" {
		t.Fatalf("live counters: %s", want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.wal.Seq() - start; got > 4 {
		t.Fatalf("1 000 SELECTs and a Close appended %d records, want at most 4", got)
	}

	db2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := counts(db2); got != want {
		t.Fatalf("reopened counters: %s, want %s", got, want)
	}
}
