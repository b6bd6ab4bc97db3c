// Package wal is the durability substrate of the crowd-enabled database:
// an append-only record log with segment rotation and batched fsync, and
// an atomic, streamed snapshot writer/loader. Both files are sequences of
// the same CRC frame; this comment is their format specification.
//
// Expanded columns are the most expensive state in the system — every one
// costs real crowd dollars and minutes of HIT latency — so losing them to
// a restart means paying the crowd twice. The log records every mutation
// (storage ops, ledger charges, job completions) as it happens; a snapshot
// captures the full state at a sequence number and lets the log be
// truncated. Recovery is snapshot + replay of the records after it.
//
// # Files
//
//	<dir>/wal-0000000000000001.log   segment; name = first seq it holds
//	<dir>/wal-0000000000004096.log
//	<dir>/snap-0000000000004095.snap snapshot; name = last seq it covers
//	<dir>/snap-….snap.tmp            a snapshot being written; removed on Open
//
// # Frame
//
// Every record and every snapshot section is one frame, integers
// little-endian:
//
//	[u32 payload length][u32 IEEE CRC-32 of the payload][payload]
//
// A reader compares the length with the bytes the file still holds before
// it allocates anything for the payload, so no input makes it allocate
// more than the input's own size.
//
// # Records
//
// A record's payload is
//
//	uvarint seq · 1-byte type tag · body
//
// Sequence numbers increase from record to record, across segments (by
// one, except where a power loss without Fsync cost the log a tail that a
// snapshot already covered). The tag names the record type (recordTypes below; a tag is
// never reused) and the body belongs to whoever appends it: Append takes
// the bytes as given or asks the payload to append itself
// (AppendBinary). Bodies in use:
//
//	op            storage.Op's binary form (storage/opcodec.go): kind
//	              byte, table name, then per kind a row of typed cells,
//	              row IDs as ascending deltas, column definitions or a
//	              typed column payload (storage/colcodec.go)
//	space         table, id column, item count, dimensions, the
//	              coordinates as one FLOAT column payload (core)
//	workload_obs  a JSON array of observations, journaled 256 at a time
//	the rest      one small JSON object each (core/persist.go)
//
// # Snapshots
//
//	"CRDBSNAP" · u64 covered seq · u32 CRC-32 of those 16 bytes
//	section frames …
//	end frame
//
// A section's payload is a 1-byte kind and a body; the kinds and bodies
// are the writer's (core: meta, space; storage: table, column chunk,
// tombstones — see core/persist.go and storage/snapshot.go). Kind 0 is
// the end frame, whose body is the u32 count of sections before it; a
// file that stops anywhere earlier, frame boundary or not, is incomplete.
//
// # What is verified when
//
// Open reads the newest snapshot through once — header CRC, every
// section's CRC, the end frame's count, nothing after it — and falls back
// to the previous generation (two are kept) when any of that fails; then
// it reads every segment, checking each frame's CRC, each record's
// envelope and that sequence numbers increase. LoadSnapshot and Replay
// read the same bytes a second time and check them the same way. What a
// body means is checked by its decoder, which reports the byte offset of
// what it could not read.
//
// # Torn writes
//
// A snapshot is written to a .tmp file, fsynced and renamed, so a crash
// leaves either no new snapshot or a whole one (and a .tmp to delete). A
// crash can tear the log only at the end of its last segment: a short
// header, a length beyond the end of the file or a CRC mismatch there is
// the recoverable end of the log, truncated away on Open. The same in an
// earlier segment is corruption and fails Open, as does — in any segment —
// a frame whose CRC holds but whose record does not parse (an unknown tag,
// a sequence number out of order): that is not what a torn write looks
// like, and skipping it would silently drop a mutation. Every such error
// names the file and the byte offset.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// Record is one logged entry, as handed to Replay callbacks. Data is the
// record's body; it aliases the reader's buffer and is valid until the
// callback returns.
type Record struct {
	Seq  uint64
	Type string
	Data []byte
}

// recordTypes maps the tag a record carries on disk (the index) to the
// type name Append and Replay use. Tag 0 is never written.
var recordTypes = [...]string{
	1:  "op",
	2:  "space",
	3:  "expandable",
	4:  "charge",
	5:  "job",
	6:  "budget_cap",
	7:  "budget_spend",
	8:  "create_index",
	9:  "drop_index",
	10: "workload_obs",
}

func tagOf(typ string) (byte, bool) {
	for tag := 1; tag < len(recordTypes); tag++ {
		if recordTypes[tag] == typ {
			return byte(tag), true
		}
	}
	return 0, false
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
	tmpSuffix    = ".tmp"
	// keptSnapshots is how many generations survive a WriteSnapshot; the
	// previous one is a fallback if the newest is found corrupt on Open.
	keptSnapshots = 2
	// keptBuffer bounds the encode buffer an append leaves behind: one
	// large record (a space binding, a column fill) does not pin its size
	// for the life of the log.
	keptBuffer = 1 << 20
)

// WAL is an append-only log plus snapshot store rooted at one directory.
// All methods are safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	buf     []byte // the frame being encoded; reused from append to append
	seq     uint64 // last assigned sequence number
	snapSeq uint64 // covered by the latest loadable snapshot
	segSize int64
	dirty   bool
	closed  bool
	err     error // sticky append/flush failure

	snapPath string // the snapshot Open verified, until LoadSnapshot reads it

	stopFlush chan struct{}
	doneFlush chan struct{}
}

// Open opens (creating if necessary) the WAL in dir: it removes what a
// crash inside WriteSnapshot left behind, locates the latest valid
// snapshot, scans every segment validating frames, truncates a torn tail
// off the last segment, and positions the log for appending.
func Open(dir string, opts Options) (*WAL, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, stopFlush: make(chan struct{}), doneFlush: make(chan struct{})}
	if stale, err := w.list(snapPrefix, snapSuffix+tmpSuffix); err == nil {
		for _, s := range stale {
			_ = os.Remove(s.path) // best-effort: a leftover costs disk, not correctness
		}
	}
	if err := w.loadLatestSnapshot(); err != nil {
		return nil, err
	}
	segs, err := w.segments()
	if err != nil {
		return nil, err
	}
	w.seq = w.snapSeq
	var last string
	var prevSeq uint64
	for i, seg := range segs {
		tail := i == len(segs)-1
		goodLen, err := readSegment(seg.path, tail, &prevSeq, nil)
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
	}
	if prevSeq > w.seq {
		w.seq = prevSeq
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

// binaryAppender is a payload that writes its own record body
// (encoding.BinaryAppender, which go.mod's language version predates).
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// Append logs one record of a type in recordTypes and returns its
// sequence number. The payload is the record's body: a []byte taken as it
// is, a value with an AppendBinary method asked to append itself, or nil
// for an empty body. The record is buffered; it reaches the OS within
// FsyncInterval (and the platter, when Fsync is on).
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
	tag, ok := tagOf(typ)
	if !ok {
		return 0, fmt.Errorf("wal: unknown record type %q", typ)
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
	b := append(w.buf[:0], make([]byte, frameHeader)...)
	b = binary.AppendUvarint(b, seq)
	b = append(b, tag)
	switch p := payload.(type) {
	case nil:
	case []byte:
		b = append(b, p...)
	case binaryAppender:
		var err error
		if b, err = p.AppendBinary(b); err != nil {
			return 0, fmt.Errorf("wal: encode %s record: %w", typ, err)
		}
	default:
		return 0, fmt.Errorf("wal: %s record payload %T is neither bytes nor a binary appender", typ, payload)
	}
	if cap(b) <= keptBuffer {
		w.buf = b
	} else {
		w.buf = nil
	}
	if len(b)-frameHeader > maxFrameSize {
		return 0, fmt.Errorf("wal: %s record of %d bytes exceeds the %d-byte frame limit", typ, len(b)-frameHeader, maxFrameSize)
	}
	sealFrame(b)
	if _, err := w.w.Write(b); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return 0, w.err
	}
	w.seq = seq
	w.segSize += int64(len(b))
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

// sealFrame fills in the header of a frame whose payload follows its
// first frameHeader bytes.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
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
	var prevSeq uint64
	for i, seg := range segs {
		tail := i == len(segs)-1
		_, err := readSegment(seg.path, tail, &prevSeq, func(rec Record) error {
			if rec.Seq <= snapSeq {
				return nil
			}
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
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

// errTorn marks a frame that ends early or fails its CRC — what a torn
// write leaves, and the recoverable end of the log when it is found at
// the end of the last segment.
var errTorn = errors.New("torn or corrupt frame")

// frameReader reads the frames of one file. It knows how many bytes the
// file holds, so a length field is checked against them before anything
// is allocated for the payload.
type frameReader struct {
	name string // file base name, for error positions
	r    *bufio.Reader
	off  int64 // offset of the next frame
	size int64 // bytes in the file
	hdr  [frameHeader]byte
	buf  []byte
}

func openFrames(path string) (*frameReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return &frameReader{name: filepath.Base(path), r: bufio.NewReaderSize(f, 64<<10), size: fi.Size()}, f, nil
}

// errorf positions an error at the frame the reader is about to read.
func (fr *frameReader) errorf(kind error, format string, args ...any) error {
	return posError(fr.name, fr.off, kind, format, args...)
}

func posError(file string, off int64, kind error, format string, args ...any) error {
	return fmt.Errorf("wal: %s: offset %d: %w: %s", file, off, kind, fmt.Sprintf(format, args...))
}

// next returns the payload of the next frame, valid until the call after.
// io.EOF means the file ended on a frame boundary; an error wrapping
// errTorn means it did not, or the frame fails its CRC.
func (fr *frameReader) next() ([]byte, error) {
	left := fr.size - fr.off
	if left == 0 {
		return nil, io.EOF
	}
	if left < frameHeader {
		return nil, fr.errorf(errTorn, "%d-byte frame header cut short at %d bytes", frameHeader, left)
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, fr.errorf(errTorn, "reading frame header: %v", err)
	}
	n := int64(binary.LittleEndian.Uint32(fr.hdr[0:4]))
	crc := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if n == 0 || n > maxFrameSize || n > left-frameHeader {
		return nil, fr.errorf(errTorn, "frame length %d with %d bytes left in the file", n, left-frameHeader)
	}
	if int64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fr.errorf(errTorn, "reading %d-byte payload: %v", n, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fr.errorf(errTorn, "CRC mismatch over a %d-byte payload", n)
	}
	fr.off += frameHeader + n
	return payload, nil
}

// errFormat marks a frame that is whole — its CRC holds — but is not what
// this format's writer writes.
var errFormat = errors.New("malformed record")

// readSegment reads a segment's records in order, handing each to fn
// (which may be nil), and returns the byte offset after the last good
// frame. prevSeq carries the last sequence number seen from segment to
// segment. In the tail segment a torn frame marks the recoverable end;
// elsewhere it is corruption. A whole frame that does not parse, or whose
// sequence number does not follow, is an error in any segment.
func readSegment(path string, tail bool, prevSeq *uint64, fn func(Record) error) (goodLen int64, err error) {
	fr, f, err := openFrames(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for {
		at := fr.off
		payload, err := fr.next()
		if err == io.EOF || (tail && errors.Is(err, errTorn)) {
			return at, nil
		}
		if err != nil {
			return 0, err
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 || n >= len(payload) {
			return 0, posError(fr.name, at, errFormat, "no sequence number and type tag in a %d-byte payload", len(payload))
		}
		tag := payload[n]
		if tag == 0 || int(tag) >= len(recordTypes) {
			return 0, posError(fr.name, at, errFormat, "record %d has unknown type tag %d", seq, tag)
		}
		if seq <= *prevSeq {
			return 0, posError(fr.name, at, errFormat, "record %d follows record %d", seq, *prevSeq)
		}
		*prevSeq = seq
		if fn != nil {
			if err := fn(Record{Seq: seq, Type: recordTypes[tag], Data: payload[n+1:]}); err != nil {
				return 0, err
			}
		}
	}
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
