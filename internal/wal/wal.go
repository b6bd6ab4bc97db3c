// Package wal provides the durability substrate of the crowd-enabled
// database: an append-only, CRC-framed record log with segment rotation
// and batched fsync, plus an atomic snapshot writer/loader.
//
// Expanded columns are the most expensive state in the system — every one
// costs real crowd dollars and minutes of HIT latency — so losing them to
// a restart means paying the crowd twice. The WAL records every mutation
// (storage ops, ledger charges, job completions) as it happens; a snapshot
// captures the full state at a sequence number and lets the log be
// truncated. Recovery is snapshot + replay of the records after it.
//
// # On-disk layout
//
//	<dir>/wal-0000000000000001.log   segment; name = first seq it holds
//	<dir>/wal-0000000000004096.log
//	<dir>/snap-0000000000004095.snap snapshot; name = last seq it covers
//
// Each log record is framed as
//
//	[4B little-endian payload length][4B IEEE CRC32 of payload][payload]
//
// where the payload is a JSON envelope {"seq":N,"type":T,"data":...}.
// A torn write at the tail of the *last* segment (the only place a crash
// can tear) is detected by the CRC or a short frame and truncated away on
// Open; a bad frame in any earlier segment is data corruption and fails
// recovery loudly.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record is one logged entry, as handed to Replay callbacks.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Options tunes a WAL.
type Options struct {
	// SegmentBytes is the rotation threshold (default 8 MiB).
	SegmentBytes int64
	// Fsync enables batched fsync: appended records are fsynced by a
	// background flusher every FsyncInterval, and synchronously by
	// AppendSync. Off, records still reach the OS via buffered writes
	// flushed on the same cadence — durable across process crashes but
	// not across power loss.
	Fsync bool
	// FsyncInterval is the group-commit window (default 5ms).
	FsyncInterval time.Duration
}

func (o *Options) fillDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 5 * time.Millisecond
	}
}

const (
	frameHeader  = 8 // 4B length + 4B CRC
	maxFrameSize = 64 << 20
	segPrefix    = "wal-"
	segSuffix    = ".log"
	snapPrefix   = "snap-"
	snapSuffix   = ".snap"
	// keptSnapshots is how many generations survive a WriteSnapshot; the
	// previous one is a fallback if the newest is found corrupt on Open.
	keptSnapshots = 2
)

// WAL is an append-only log plus snapshot store rooted at one directory.
// All methods are safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     uint64 // last assigned sequence number
	snapSeq uint64 // covered by the latest loadable snapshot
	segSize int64
	dirty   bool
	closed  bool
	err     error // sticky append/flush failure

	snapState json.RawMessage // payload of the snapshot Open found, until LoadSnapshot hands it over

	stopFlush chan struct{}
	doneFlush chan struct{}
}

// Open opens (creating if necessary) the WAL in dir: it locates the latest
// valid snapshot, scans every segment validating frames, truncates a torn
// tail off the last segment, and positions the log for appending.
func Open(dir string, opts Options) (*WAL, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, stopFlush: make(chan struct{}), doneFlush: make(chan struct{})}
	if err := w.loadLatestSnapshot(); err != nil {
		return nil, err
	}
	segs, err := w.segments()
	if err != nil {
		return nil, err
	}
	w.seq = w.snapSeq
	var last string
	for i, seg := range segs {
		tail := i == len(segs)-1
		lastSeq, goodLen, err := scanSegment(seg.path, tail)
		if err != nil {
			return nil, err
		}
		if tail {
			if fi, statErr := os.Stat(seg.path); statErr == nil && fi.Size() > goodLen {
				// Torn write from a crash: drop the garbage so appends
				// don't interleave with it.
				if err := os.Truncate(seg.path, goodLen); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
				}
			}
			last = seg.path
			w.segSize = goodLen
		}
		if lastSeq > w.seq {
			w.seq = lastSeq
		}
	}
	if last == "" {
		last = w.segmentPath(w.seq + 1)
		w.segSize = 0
	}
	f, err := os.OpenFile(last, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	go w.flusher()
	return w, nil
}

// Seq returns the last assigned sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// SnapshotSeq returns the sequence number covered by the latest snapshot
// (0 when none exists).
func (w *WAL) SnapshotSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapSeq
}

// Err returns the sticky append/flush error, if any. Mutators that cannot
// surface an append failure directly (Delete, Drop) rely on this latch
// being checked at Snapshot/Close time.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Append logs one record and returns its sequence number. The record is
// buffered; it reaches the OS within FsyncInterval (and the platter, when
// Fsync is on).
func (w *WAL) Append(typ string, payload any) (uint64, error) {
	return w.append(typ, payload, false)
}

// AppendSync logs one record and flushes it (fsyncing when Fsync is on)
// before returning — for records whose loss is expensive, like a completed
// crowd job.
func (w *WAL) AppendSync(typ string, payload any) (uint64, error) {
	return w.append(typ, payload, true)
}

func (w *WAL) append(typ string, payload any, sync bool) (uint64, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, fmt.Errorf("wal: marshal %s record: %w", typ, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	seq := w.seq + 1
	frame, err := encodeFrame(Record{Seq: seq, Type: typ, Data: data})
	if err != nil {
		return 0, err
	}
	if _, err := w.w.Write(frame); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return 0, w.err
	}
	w.seq = seq
	w.segSize += int64(len(frame))
	w.dirty = true
	mAppends.Inc()
	if sync {
		if err := w.flushLocked(w.opts.Fsync); err != nil {
			return 0, err
		}
	}
	if w.segSize >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes buffered records to the OS and, when Fsync is on, to disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.flushLocked(w.opts.Fsync)
}

func (w *WAL) flushLocked(fsync bool) error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("wal: flush: %w", err)
		return w.err
	}
	if fsync {
		start := time.Now()
		err := w.f.Sync()
		mFsyncSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			w.err = fmt.Errorf("wal: fsync: %w", err)
			return w.err
		}
	}
	w.dirty = false
	return nil
}

// rotateLocked seals the active segment and starts a new one whose name is
// the next record's sequence number. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.flushLocked(w.opts.Fsync); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("wal: rotate: %w", err)
		return w.err
	}
	f, err := os.OpenFile(w.segmentPath(w.seq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.err = fmt.Errorf("wal: rotate: %w", err)
		return w.err
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	w.segSize = 0
	w.dirty = false
	mRotations.Inc()
	return nil
}

// flusher is the group-commit loop: one flush (and fsync) covers every
// record appended during the interval.
func (w *WAL) flusher() {
	defer close(w.doneFlush)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				_ = w.flushLocked(w.opts.Fsync)
			}
			w.mu.Unlock()
		}
	}
}

// Replay invokes fn for every record after the latest snapshot, in
// sequence order. A torn tail on the last segment ends replay cleanly;
// corruption anywhere else is an error.
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	snapSeq := w.snapSeq
	segs, err := w.segments()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	for i, seg := range segs {
		tail := i == len(segs)-1
		if err := replaySegment(seg.path, tail, snapSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot decodes the snapshot Open found into v, reporting whether
// one existed. It is recovery's one read of it: the payload is released
// with the call — a 146 k-row database's is 13 MB, which would otherwise
// stay in the live heap for as long as the log is open — and a snapshot
// this handle writes later is never read back through it.
func (w *WAL) LoadSnapshot(v any) (bool, error) {
	w.mu.Lock()
	state := w.snapState
	w.snapState = nil
	w.mu.Unlock()
	if state == nil {
		return false, nil
	}
	if err := json.Unmarshal(state, v); err != nil {
		return false, fmt.Errorf("wal: decode snapshot: %w", err)
	}
	return true, nil
}

// snapshotFile is the on-disk snapshot format. The CRC covers State, so a
// half-written or bit-rotted snapshot is detected and skipped on Open.
type snapshotFile struct {
	Seq   uint64          `json:"seq"`
	CRC   uint32          `json:"crc"`
	State json.RawMessage `json:"state"`
}

// WriteSnapshot atomically persists state as the snapshot covering every
// record up to and including seq, then drops fully covered log segments
// and stale snapshot generations. The caller must guarantee that state
// reflects all records ≤ seq and none after (see core's snapshot gate).
//
// The expensive part — marshalling and fsyncing the full state to a temp
// file — happens outside w.mu, so concurrent appends never stall behind
// snapshot I/O; only the rename, rotation, and pruning hold the lock.
func (w *WAL) WriteSnapshot(seq uint64, state any) error {
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("wal: marshal snapshot: %w", err)
	}
	// A snapshotFile, written around the payload instead of marshalled: a
	// second Marshal would copy the payload twice more.
	head := fmt.Sprintf(`{"seq":%d,"crc":%d,"state":`, seq, crc32.ChecksumIEEE(raw))
	final := filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, []byte(head), raw, []byte("}")); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if w.err != nil {
		return w.err
	}
	if seq > w.seq {
		return fmt.Errorf("wal: snapshot seq %d beyond log seq %d", seq, w.seq)
	}
	if err := w.flushLocked(w.opts.Fsync); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	syncDir(w.dir)
	if seq > w.snapSeq { // a concurrent newer snapshot must not regress
		w.snapSeq = seq
	}

	// Seal the active segment so truncation below sees a clean boundary:
	// every segment except the fresh one starts at or before seq.
	if err := w.rotateLocked(); err != nil {
		return err
	}
	w.pruneLocked()
	return nil
}

// pruneLocked removes all but the newest keptSnapshots snapshot files,
// then the log segments fully covered by the *oldest retained* snapshot —
// not the newest: if the newest generation is later found corrupt, Open
// falls back to the previous one and must still find every record since
// it in the log. Best-effort: an undeletable file costs disk, not
// correctness.
func (w *WAL) pruneLocked() {
	snaps, err := w.snapshots()
	if err != nil {
		return
	}
	for i := 0; i < len(snaps)-keptSnapshots; i++ {
		_ = os.Remove(snaps[i].path)
		snaps[i].path = ""
	}
	pruneSeq := w.snapSeq
	for _, s := range snaps {
		if s.path != "" { // oldest retained generation
			pruneSeq = s.firstSeq
			break
		}
	}
	segs, err := w.segments()
	if err != nil {
		return
	}
	// Segment i covers [firstSeq_i, firstSeq_{i+1}-1]; the last (active)
	// segment is never removed.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstSeq <= pruneSeq+1 {
			_ = os.Remove(segs[i].path)
		}
	}
}

// Close flushes and closes the log. Safe to call once.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	flushErr := w.flushLocked(w.opts.Fsync)
	closeErr := w.f.Close()
	w.mu.Unlock()
	close(w.stopFlush)
	<-w.doneFlush
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// --- file scanning ---

type fileRef struct {
	path     string
	firstSeq uint64 // segments: first record seq; snapshots: covered seq
}

func (w *WAL) segmentPath(firstSeq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix))
}

func (w *WAL) segments() ([]fileRef, error) {
	return w.list(segPrefix, segSuffix)
}

func (w *WAL) snapshots() ([]fileRef, error) {
	return w.list(snapPrefix, snapSuffix)
}

func (w *WAL) list(prefix, suffix string) ([]fileRef, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []fileRef
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, fileRef{path: filepath.Join(w.dir, name), firstSeq: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstSeq < out[j].firstSeq })
	return out, nil
}

// loadLatestSnapshot finds the newest snapshot whose CRC verifies, caching
// its state. Corrupt generations are skipped (falling back to the previous
// one), matching the keptSnapshots retention.
func (w *WAL) loadLatestSnapshot() error {
	snaps, err := w.snapshots()
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		blob, err := os.ReadFile(snaps[i].path)
		if err != nil {
			continue
		}
		var sf snapshotFile
		if json.Unmarshal(blob, &sf) != nil || crc32.ChecksumIEEE(sf.State) != sf.CRC {
			continue
		}
		w.snapSeq = sf.Seq
		w.snapState = sf.State
		return nil
	}
	return nil
}

func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: marshal record: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// readFrame decodes the next frame. io.EOF means a clean end;
// errTornFrame wraps any short read or CRC mismatch.
var errTornFrame = fmt.Errorf("wal: torn or corrupt frame")

func readFrame(r *bufio.Reader) (Record, int, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:1]); err == io.EOF {
		return Record{}, 0, io.EOF
	} else if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", errTornFrame, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Record{}, 0, fmt.Errorf("%w: short header: %v", errTornFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFrameSize {
		return Record{}, 0, fmt.Errorf("%w: implausible length %d", errTornFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, 0, fmt.Errorf("%w: short payload: %v", errTornFrame, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", errTornFrame)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, fmt.Errorf("%w: bad envelope: %v", errTornFrame, err)
	}
	return rec, frameHeader + int(n), nil
}

// scanSegment validates a segment, returning its last record's seq and the
// byte offset after the last good frame. In the tail segment a bad frame
// marks the recoverable end; elsewhere it is corruption.
func scanSegment(path string, tail bool) (lastSeq uint64, goodLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		rec, n, err := readFrame(r)
		if err == io.EOF {
			return lastSeq, goodLen, nil
		}
		if err != nil {
			if tail {
				return lastSeq, goodLen, nil
			}
			return 0, 0, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		lastSeq = rec.Seq
		goodLen += int64(n)
	}
}

func replaySegment(path string, tail bool, afterSeq uint64, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		rec, _, err := readFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if tail {
				return nil
			}
			return fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		if rec.Seq <= afterSeq {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

func writeFileSync(path string, parts ...[]byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, data := range parts {
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
