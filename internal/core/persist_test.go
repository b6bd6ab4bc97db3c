package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/space"
	"crowddb/internal/storage"
	"crowddb/internal/vecmath"
)

// deadService fails every Collect — opened after recovery it proves that
// answering a query over a previously expanded column needs zero new
// crowd work.
type deadService struct{ calls int }

func (s *deadService) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	s.calls++
	return errors.New("deadService: the crowd is gone")
}

// persistTestSpace builds a tiny deterministic space whose first half and
// second half of items are separable — enough for the SVM to train.
func persistTestSpace(items, dims int) *space.Space {
	m := vecmath.NewMatrix(items, dims)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < items; i++ {
		base := -1.0
		if i >= items/2 {
			base = 1.0
		}
		for d := 0; d < dims; d++ {
			m.Row(i)[d] = base + 0.1*rng.NormFloat64()
		}
	}
	return space.NewSpace(m)
}

// seedExpandableDB creates a durable DB with a movies table, a space
// binding, a registered expandable column, and rows.
func seedExpandableDB(t *testing.T, dir string, svc JudgmentService, rows int) *DB {
	t.Helper()
	db, err := Open(Options{Service: svc, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		stmt := fmt.Sprintf(`INSERT INTO movies VALUES (%d, 'movie %d')`, i, i)
		if _, _, err := db.ExecSQL(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AttachSpace("movies", "movie_id", persistTestSpace(rows, 4)); err != nil {
		t.Fatal(err)
	}
	db.RegisterExpandable("movies", "is_comedy", storage.KindBool, ExpandOptions{SamplesPerClass: 10})
	return db
}

func simulatedService(seed int64, rows int) JudgmentService {
	rng := rand.New(rand.NewSource(seed))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 20}, rng)
	items := func(question string) ([]crowd.Item, error) {
		out := make([]crowd.Item, rows)
		for i := range out {
			out[i] = crowd.Item{ID: i, Truth: i >= rows/2, Popularity: 1}
		}
		return out, nil
	}
	return NewSimulatedCrowd(pop, items, rng)
}

func queryComedyNames(t *testing.T, db *DB) []string {
	t.Helper()
	res, _, err := db.ExecSQL(`SELECT name FROM movies WHERE is_comedy = true ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		out = append(out, s)
	}
	return out
}

// TestRestartRecoversExpandedColumnWithZeroCharges is the acceptance
// scenario: expand a column (paying the crowd), restart from WAL alone
// (no snapshot, no clean close), and answer the same SELECT with zero new
// crowd judgments — against a service that would fail if asked.
func TestRestartRecoversExpandedColumnWithZeroCharges(t *testing.T) {
	dir := t.TempDir()
	const rows = 60

	db1 := seedExpandableDB(t, dir, simulatedService(7, rows), rows)
	before := queryComedyNames(t, db1)
	if len(before) == 0 {
		t.Fatal("expansion produced no comedies")
	}
	led1 := db1.Ledger()
	if led1.Cost == 0 || led1.Judgments == 0 {
		t.Fatalf("expansion charged nothing: %+v", led1)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart. The crowd is dead: any elicitation attempt fails loudly.
	dead := &deadService{}
	db2, err := Open(Options{Service: dead, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	after := queryComedyNames(t, db2)
	if strings.Join(after, "|") != strings.Join(before, "|") {
		t.Fatalf("answers diverged after restart:\n before %v\n after  %v", before, after)
	}
	if dead.calls != 0 {
		t.Fatalf("restart re-elicited the crowd %d times", dead.calls)
	}
	led2 := db2.Ledger()
	if led2 != led1 {
		t.Fatalf("ledger changed across restart: %+v → %+v", led1, led2)
	}

	// Provenance must survive: the column recovered as expanded+perceptual.
	tbl, _ := db2.Catalog().Get("movies")
	schema := tbl.Schema()
	idx, ok := schema.Lookup("is_comedy")
	if !ok {
		t.Fatal("is_comedy missing after restart")
	}
	if col := schema.Column(idx); col.Origin != storage.ColumnExpanded || !col.Perceptual {
		t.Fatalf("provenance lost: %+v", col)
	}

	// Job history survived too: the expansion job is visible, done, and
	// carries its ledger.
	jobsList := db2.Jobs()
	if len(jobsList) != 1 {
		t.Fatalf("restored %d jobs, want 1", len(jobsList))
	}
	if st := jobsList[0]; st.Key != "movies.is_comedy" || st.Ledger.Cost != led1.Cost {
		t.Fatalf("restored job = %+v", st)
	}
}

// TestSnapshotThenMoreMutationsThenRestart exercises the combined path:
// snapshot mid-life, keep mutating, restart = snapshot + tail replay.
func TestSnapshotThenMoreMutationsThenRestart(t *testing.T) {
	dir := t.TempDir()
	const rows = 60
	db1 := seedExpandableDB(t, dir, simulatedService(11, rows), rows)
	before := queryComedyNames(t, db1)

	seq, err := db1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("snapshot covered nothing")
	}
	// Post-snapshot mutations must replay on top of the snapshot.
	if _, _, err := db1.ExecSQL(`INSERT INTO movies (movie_id, name) VALUES (997, 'postsnap')`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db1.ExecSQL(`UPDATE movies SET name = 'renamed 0' WHERE movie_id = 0`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db1.ExecSQL(`DELETE FROM movies WHERE movie_id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Service: &deadService{}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	res, _, err := db2.ExecSQL(`SELECT COUNT(*) FROM movies`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != rows+1-1 {
		t.Fatalf("row count after restart = %d, want %d", n, rows)
	}
	res, _, err = db2.ExecSQL(`SELECT name FROM movies WHERE movie_id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res.Rows[0][0].AsText(); s != "renamed 0" {
		t.Fatalf("post-snapshot UPDATE lost: %q", s)
	}
	res, _, err = db2.ExecSQL(`SELECT COUNT(*) FROM movies WHERE movie_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatal("post-snapshot DELETE lost")
	}
	after := queryComedyNames(t, db2)
	// The expanded column survived (modulo the renamed/deleted rows).
	if len(after) == 0 || len(after) > len(before) {
		t.Fatalf("expanded column degraded: before %d comedies, after %d", len(before), len(after))
	}
}

// TestRestartRecoversSpaceBindingForNewExpansions: recovery must rebuild
// the space binding itself, so a *new* SPACE expansion works without any
// re-binding by the application.
func TestRestartRecoversSpaceBindingForNewExpansions(t *testing.T) {
	dir := t.TempDir()
	const rows = 60
	db1 := seedExpandableDB(t, dir, simulatedService(13, rows), rows)
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Service: simulatedService(13, rows), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// No AttachSpace, no RegisterExpandable: everything comes off disk.
	report, err := db2.Expand("movies", "is_drama", storage.KindBool, ExpandOptions{SamplesPerClass: 10})
	if err != nil {
		t.Fatal(err)
	}
	if report.Method != "SPACE" {
		t.Fatalf("recovered binding not used: method %s", report.Method)
	}
	if report.Filled == 0 {
		t.Fatal("new expansion filled nothing")
	}
}

// TestFreshDirIsEmpty: opening a durable DB on an empty directory is a
// clean slate, and a second open of untouched state is idempotent.
func TestFreshDirIsEmpty(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if names := db.Catalog().Names(); len(names) != 0 {
		t.Fatalf("fresh DB has tables: %v", names)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWithoutDataDirFails: Snapshot on an in-memory DB is a
// usage error, reported as ErrNoDataDir.
func TestSnapshotWithoutDataDirFails(t *testing.T) {
	db := NewDB(nil)
	defer db.Close()
	if _, err := db.Snapshot(); !errors.Is(err, ErrNoDataDir) {
		t.Fatalf("err = %v, want ErrNoDataDir", err)
	}
}

// appendFrame appends one CRC-framed log record (seq, type tag, body) to
// the data dir's last segment, as a writer of some other format version
// would have.
func appendFrame(t *testing.T, dir string, seq uint64, tag byte, body []byte) (file string, offset int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segment in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	path := segs[len(segs)-1]
	payload := append(binary.AppendUvarint(nil, seq), tag)
	payload = append(payload, body...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Base(path), fi.Size()
}

// TestUnknownRecordTagFailsRecovery: a whole frame — its CRC holds — that
// this format's writer cannot have written must stop recovery with a
// positioned error, in the last segment too: it is not a torn write, and
// skipping it would silently drop a mutation (the pre-MVCC compacting
// "delete" op was one: every later record's row IDs would shift). The same
// for a known tag whose body names an op kind there is no replay for.
func TestUnknownRecordTagFailsRecovery(t *testing.T) {
	seed := func() string {
		dir := t.TempDir()
		db, err := Open(Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{`CREATE TABLE t (id INTEGER)`, `INSERT INTO t VALUES (1), (2)`} {
			if _, _, err := db.ExecSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := seed()
	file, off := appendFrame(t, dir, 4, 200, []byte("from the future"))
	_, err := Open(Options{DataDir: dir})
	want := fmt.Sprintf("%s: offset %d: malformed record: record 4 has unknown type tag 200", file, off)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want an error containing %q", err, want)
	}

	dir = seed()
	appendFrame(t, dir, 4, 1, []byte{9, 1, 't', 1, 0}) // tag 1 is "op"; there is no op kind 9
	_, err = Open(Options{DataDir: dir})
	want = "replaying record 4 (op): storage: op record: offset 0: unknown op kind 9"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want an error containing %q", err, want)
	}
}
