package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testType is the record type these tests append under: the log only
// takes the types in recordTypes.
const testType = "charge"

type payload struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// AppendBinary makes payload a binary appender with a JSON body — the
// shape of core's control records.
func (p payload) AppendBinary(b []byte) ([]byte, error) {
	body, err := json.Marshal(p)
	return append(b, body...), err
}

// writeState snapshots a one-section state at the log's current sequence
// number; loadState reads it back.
func writeState(t *testing.T, w *WAL, state map[string]int) {
	t.Helper()
	err := w.WriteSnapshot(w.Seq(), func(sw *SnapshotWriter) error {
		body, err := json.Marshal(state)
		if err != nil {
			return err
		}
		return sw.Emit(append(sw.Section(1), body...))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func loadState(t *testing.T, w *WAL) (state map[string]int, ok bool) {
	t.Helper()
	ok, err := w.LoadSnapshot(func(sr *SnapshotReader) error {
		for {
			kind, body, err := sr.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if kind != 1 {
				return fmt.Errorf("section kind %d", kind)
			}
			if err := json.Unmarshal(body, &state); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return state, ok
}

func appendN(t *testing.T, w *WAL, start, count int) {
	t.Helper()
	for i := start; i < start+count; i++ {
		if _, err := w.Append(testType, payload{N: i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func collect(t *testing.T, w *WAL) []int {
	t.Helper()
	var out []int
	err := w.Replay(func(r Record) error {
		var p payload
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return err
		}
		out = append(out, p.N)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != 100 || got[0] != 0 || got[99] != 99 {
		t.Fatalf("replayed %d records, first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
	if w2.Seq() != 100 {
		t.Fatalf("seq = %d, want 100", w2.Seq())
	}
}

func TestSegmentRotationAndReplayOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}

	w2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != 200 {
		t.Fatalf("replayed %d records, want 200", len(got))
	}
	for i, n := range got {
		if n != i {
			t.Fatalf("record %d out of order: %d", i, n)
		}
	}
}

// TestTruncatedTailRecovery chops a partial frame off the end of the log —
// the signature of a crash mid-write — and verifies that recovery keeps
// every complete record, truncates the garbage, and appends cleanly.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-frame: remove 7 bytes, leaving a torn final record.
	if err := os.Truncate(segs[0], fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	got := collect(t, w2)
	if len(got) != 49 {
		t.Fatalf("replayed %d records after torn tail, want 49", len(got))
	}
	// The log must keep working: next append continues the sequence with
	// no gap and no collision.
	seq, err := w2.Append(testType, payload{N: 999})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 50 {
		t.Fatalf("append after recovery got seq %d, want 50", seq)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	got = collect(t, w3)
	if len(got) != 50 || got[49] != 999 {
		t.Fatalf("after recovery+append: %d records, last=%d", len(got), got[len(got)-1])
	}
}

// TestCorruptTailRecordDropped flips a byte inside the last record's
// payload; the CRC must catch it and recovery must drop only that record.
func TestCorruptTailRecordDropped(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0xff
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after corrupt tail: %v", err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != 9 {
		t.Fatalf("replayed %d records after corrupt tail, want 9", len(got))
	}
}

// TestCorruptMiddleSegmentFails: corruption before the tail segment is
// unrecoverable data loss and must fail Open loudly, not silently skip.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	blob, _ := os.ReadFile(segs[0])
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded over a corrupt middle segment")
	}
}

func TestSnapshotTruncatesAndSkipsReplayed(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 100)
	writeState(t, w, map[string]int{"upto": 100})
	appendN(t, w, 100, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	snap, ok := loadState(t, w2)
	if !ok {
		t.Fatal("LoadSnapshot found no snapshot")
	}
	if snap["upto"] != 100 {
		t.Fatalf("snapshot state = %v", snap)
	}
	got := collect(t, w2)
	if len(got) != 20 || got[0] != 100 {
		t.Fatalf("replay after snapshot: %d records, first=%v", len(got), got)
	}
	// Segments fully covered by the snapshot must be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		var lastSeq uint64
		if _, err := readSegment(s, true, &lastSeq, nil); err != nil {
			t.Fatal(err)
		}
		if lastSeq != 0 && lastSeq <= 100 {
			t.Fatalf("segment %s (lastSeq %d) survived snapshot truncation", s, lastSeq)
		}
	}
}

// TestCorruptSnapshotFallsBack: a bit-rotted newest snapshot must be
// skipped in favor of the previous generation plus full log replay.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	writeState(t, w, map[string]int{"gen": 1})
	appendN(t, w, 10, 10)
	writeState(t, w, map[string]int{"gen": 2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("want 2 snapshot generations, got %d", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	blob, _ := os.ReadFile(newest)
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(newest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	snap, ok := loadState(t, w2)
	if !ok || snap["gen"] != 1 {
		t.Fatalf("fallback snapshot: ok=%v state=%v", ok, snap)
	}
	// The records between generation 1 and generation 2 must still be in
	// the log (pruning only truncates up to the OLDEST retained snapshot)
	// — otherwise falling back would silently lose them.
	got := collect(t, w2)
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("fallback replay lost records: %v", got)
	}
}

func TestAppendSyncDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	if _, err := w.AppendSync(testType, payload{N: 5}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill: no Close, no flush. AppendSync must have pushed
	// everything buffered before it to disk.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(testType, payload{N: i, S: "some payload text"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay10k(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := w.Append(testType, payload{N: i, S: fmt.Sprintf("row-%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := r.Replay(func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 10000 {
			b.Fatalf("replayed %d", n)
		}
		r.Close()
	}
}

// TestOpenRemovesStaleSnapshotTmp: a crash inside WriteSnapshot leaves a
// .tmp file that no later snapshot would ever overwrite (its name carries
// the sequence number); Open deletes it.
func TestOpenRemovesStaleSnapshotTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "snap-0000000000000007.snap.tmp")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp file survived Open (stat err = %v)", err)
	}
	if w.SnapshotSeq() != 0 {
		t.Fatalf("a .tmp file was taken for a snapshot of seq %d", w.SnapshotSeq())
	}
}

// frame builds one log frame around a record payload.
func frame(payload []byte) []byte {
	b := append(make([]byte, frameHeader), payload...)
	sealFrame(b)
	return b
}

// TestWholeFrameThatDoesNotParseFailsOpen: a frame whose CRC holds is not
// a torn write, so in the tail segment too an unknown tag or a sequence
// number out of order is an error naming file and offset — while an
// unknown record type never gets written in the first place.
func TestWholeFrameThatDoesNotParseFailsOpen(t *testing.T) {
	for name, tc := range map[string]struct {
		payload []byte
		want    string
	}{
		"unknown tag":      {[]byte{11, 99, 'x'}, "offset %d: malformed record: record 11 has unknown type tag 99"},
		"tag 0":            {[]byte{11, 0}, "offset %d: malformed record: record 11 has unknown type tag 0"},
		"seq out of order": {[]byte{3, 4, '{', '}'}, "offset %d: malformed record: record 3 follows record 10"},
		"no tag":           {[]byte{11}, "offset %d: malformed record: no sequence number and type tag"},
	} {
		dir := t.TempDir()
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 0, 10)
		if _, err := w.Append("from the future", nil); err == nil || !strings.Contains(err.Error(), "unknown record type") {
			t.Fatalf("Append of an unknown type = %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		fi, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frame(tc.payload)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{})
		want := filepath.Base(segs[0]) + ": " + fmt.Sprintf(tc.want, fi.Size())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Open = %v, want an error containing %q", name, err, want)
		}
	}
}

// TestSnapshotCutAtFrameBoundaryFallsBack: every section of a snapshot is
// a whole CRC frame, so a file that stops between two of them — or right
// before the end frame — has no bad byte in it. The end frame's count is
// what tells it from a whole snapshot.
func TestSnapshotCutAtFrameBoundaryFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	writeState(t, w, map[string]int{"gen": 1})
	appendN(t, w, 10, 10)
	err = w.WriteSnapshot(w.Seq(), func(sw *SnapshotWriter) error {
		for i := 0; i < 3; i++ {
			if err := sw.Emit(append(sw.Section(1), `{"gen":2}`...)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	newest := snaps[len(snaps)-1]
	whole, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	section := frameHeader + 1 + len(`{"gen":2}`)
	for _, cut := range []int{snapHeaderSize, snapHeaderSize + section, snapHeaderSize + 3*section, len(whole) - 1} {
		if err := os.WriteFile(newest, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if snap, ok := loadState(t, w2); !ok || snap["gen"] != 1 || w2.SnapshotSeq() != 10 {
			t.Fatalf("cut at %d of %d: loaded %v (ok=%v) covering seq %d, want generation 1", cut, len(whole), snap, ok, w2.SnapshotSeq())
		}
		if got := collect(t, w2); len(got) != 10 || got[0] != 10 {
			t.Fatalf("cut at %d: replayed %v after falling back", cut, got)
		}
		w2.Close()
	}
	if err := os.WriteFile(newest, append(whole, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verifySnapshot(newest); err == nil || !strings.Contains(err.Error(), "after the end frame") {
		t.Fatalf("a byte after the end frame: %v", err)
	}
}

// recoverAll opens dir, loads its snapshot section by section and replays
// its log: everything recovery reads. It returns the snapshot's covered
// seq and the replayed sequence numbers.
func recoverAll(dir string) (snapSeq uint64, seqs []uint64, err error) {
	w, err := Open(dir, Options{})
	if err != nil {
		return 0, nil, err
	}
	defer w.Close()
	_, err = w.LoadSnapshot(func(sr *SnapshotReader) error {
		for {
			if _, _, err := sr.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, nil, err
	}
	err = w.Replay(func(r Record) error { seqs = append(seqs, r.Seq); return nil })
	return w.SnapshotSeq(), seqs, err
}

// FuzzWALRecover plants arbitrary bytes as the last log segment or as the
// newest snapshot of a data dir that otherwise holds a good snapshot
// (seq 3) and a good segment (records 1–5). Recovery must then give the
// previous generation and a valid prefix of the log — at least records 4
// and 5, sequence numbers rising, and the same again on a second open,
// since the first one truncated what was torn — or an error that names a
// file and an offset; it must never panic, and never allocate for a frame
// more than the file holds, whatever its length field says.
func FuzzWALRecover(f *testing.F) {
	base := f.TempDir()
	w, err := Open(base, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(testType, payload{N: i}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.WriteSnapshot(3, func(sw *SnapshotWriter) error { return sw.Emit(append(sw.Section(1), "gen 1"...)) }); err != nil {
		f.Fatal(err)
	}
	for i := 3; i < 8; i++ {
		if _, err := w.Append(testType, payload{N: i, S: "tail"}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.WriteSnapshot(8, func(sw *SnapshotWriter) error { return sw.Emit(append(sw.Section(1), "gen 2"...)) }); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	read := func(pattern string) (name string, blob []byte) {
		files, _ := filepath.Glob(filepath.Join(base, pattern))
		if len(files) == 0 {
			f.Fatalf("no %s in the seed directory", pattern)
		}
		blob, err := os.ReadFile(files[0])
		if err != nil {
			f.Fatal(err)
		}
		return filepath.Base(files[0]), blob
	}
	// WriteSnapshot(3) rotated after record 3 and WriteSnapshot(8) after
	// record 8: the segment starting at 4 holds records 4–8.
	snapName, snap1 := read("snap-0000000000000003.snap")
	_, snap2 := read("snap-0000000000000008.snap")
	_, seg4 := read("wal-0000000000000004.log")
	first5 := seg4[:len(seg4)/5*2] // records 4 and 5: the five frames are the same size
	tail := seg4[len(first5):]     // records 6–8

	for _, asSnapshot := range []bool{false, true} {
		f.Add(tail, asSnapshot)
		f.Add(tail[:len(tail)-3], asSnapshot)
		f.Add(snap2, asSnapshot)
		f.Add(snap2[:len(snap2)-13], asSnapshot)
		f.Add([]byte{0xff, 0xff, 0xff, 0x03, 0, 0, 0, 0, 1, 2, 3}, asSnapshot) // a 64 MB length field
		f.Add([]byte{}, asSnapshot)
	}
	f.Fuzz(func(t *testing.T, data []byte, asSnapshot bool) {
		dir := t.TempDir()
		write := func(name string, blob []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(snapName, snap1)
		write("wal-0000000000000004.log", first5)
		if asSnapshot {
			write("snap-0000000000000005.snap", data)
		} else {
			write("wal-0000000000000006.log", data)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snapSeq, seqs, err := recoverAll(dir)
		runtime.ReadMemStats(&after)
		// Two passes over at most four files, a 64 KB read buffer each, plus
		// the frame buffers — which may reach the input's size, never more.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(data)) {
			t.Fatalf("recovering a %d-byte input allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "offset") {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		if snapSeq != 3 {
			// The planted snapshot verified: it is the newest generation and
			// may cover the log entirely.
			if !asSnapshot {
				t.Fatalf("snapshot seq %d from a planted log segment", snapSeq)
			}
			return
		}
		if len(seqs) < 2 || seqs[0] != 4 || seqs[1] != 5 {
			t.Fatalf("replayed %v after falling back to seq 3, want 4, 5, …", seqs)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("sequence numbers do not rise: %v", seqs)
			}
		}
		_, again, err := recoverAll(dir)
		if err != nil || !reflect.DeepEqual(again, seqs) {
			t.Fatalf("second recovery: %v (%v), first %v", again, err, seqs)
		}
	})
}
