package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	snapMagic      = "CRDBSNAP"
	snapHeaderSize = len(snapMagic) + 8 + 4
	// sectionEnd is the kind of the frame that closes a snapshot; every
	// other kind is the writer's.
	sectionEnd = 0
)

// SnapshotWriter streams a snapshot's sections. Each section is encoded
// into one buffer the writer reuses, so a checkpoint allocates for its
// largest section, not for its state:
//
//	b := sw.Section(kind)
//	b = append(b, …)
//	err := sw.Emit(b)
type SnapshotWriter struct {
	w        *bufio.Writer
	buf      []byte
	sections uint32
}

// Section starts a section of the given kind (not 0) and returns the
// buffer to append its body to; the result goes to Emit.
func (s *SnapshotWriter) Section(kind byte) []byte {
	s.buf = append(append(s.buf[:0], make([]byte, frameHeader)...), kind)
	return s.buf
}

// Emit writes the section b, a buffer Section returned with the body
// appended.
func (s *SnapshotWriter) Emit(b []byte) error {
	if len(b)-frameHeader > maxFrameSize {
		return fmt.Errorf("wal: snapshot section of %d bytes exceeds the %d-byte frame limit", len(b)-frameHeader, maxFrameSize)
	}
	s.buf = b
	sealFrame(b)
	s.sections++
	_, err := s.w.Write(b)
	return err
}

// WriteSnapshot atomically persists, as the snapshot covering every record
// up to and including seq, the sections write emits, then drops fully
// covered log segments and stale snapshot generations. The caller must
// guarantee that the sections reflect all records ≤ seq and none after
// (see core's snapshot gate).
//
// The expensive part — encoding and fsyncing the state to a temp file —
// happens outside w.mu, so concurrent appends never stall behind snapshot
// I/O; only the rename, rotation, and pruning hold the lock.
func (w *WAL) WriteSnapshot(seq uint64, write func(*SnapshotWriter) error) error {
	final := filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
	tmp := final + tmpSuffix
	if err := writeSnapshotFile(tmp, seq, write); err != nil {
		_ = os.Remove(tmp) // already failing; Open removes what this leaves
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

func writeSnapshotFile(path string, seq uint64, write func(*SnapshotWriter) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // the success path closes first and checks; this covers the error returns
	sw := &SnapshotWriter{w: bufio.NewWriterSize(f, 256<<10)}
	hdr := make([]byte, 0, snapHeaderSize)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := sw.w.Write(hdr); err != nil {
		return err
	}
	if err := write(sw); err != nil {
		return err
	}
	if err := sw.Emit(binary.LittleEndian.AppendUint32(sw.Section(sectionEnd), sw.sections)); err != nil {
		return err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
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

// SnapshotReader hands out a snapshot's sections in the order they were
// written.
type SnapshotReader struct {
	fr   *frameReader
	seq  uint64
	read uint32
	done bool
}

// openSnapshot opens a snapshot file and checks its header.
func openSnapshot(path string) (*SnapshotReader, *os.File, error) {
	fr, f, err := openFrames(path)
	if err != nil {
		return nil, nil, err
	}
	var hdr [snapHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		f.Close()
		return nil, nil, fr.errorf(errTorn, "%d-byte snapshot header cut short: %v", snapHeaderSize, err)
	}
	sum := len(hdr) - 4
	if string(hdr[:len(snapMagic)]) != snapMagic || crc32.ChecksumIEEE(hdr[:sum]) != binary.LittleEndian.Uint32(hdr[sum:]) {
		f.Close()
		return nil, nil, fr.errorf(errFormat, "not a snapshot header")
	}
	fr.off = int64(len(hdr))
	return &SnapshotReader{fr: fr, seq: binary.LittleEndian.Uint64(hdr[len(snapMagic):])}, f, nil
}

// Next returns the next section's kind and body; the body is valid until
// the call after. io.EOF follows the last section — and only a snapshot
// whose end frame is in place and counts the sections read gets there.
func (s *SnapshotReader) Next() (kind byte, body []byte, err error) {
	if s.done {
		return 0, nil, io.EOF
	}
	at := s.fr.off
	payload, err := s.fr.next()
	if err == io.EOF {
		return 0, nil, posError(s.fr.name, at, errTorn, "snapshot stops after %d sections without an end frame", s.read)
	}
	if err != nil {
		return 0, nil, err
	}
	if payload[0] != sectionEnd {
		s.read++
		return payload[0], payload[1:], nil
	}
	if len(payload) != 5 || binary.LittleEndian.Uint32(payload[1:]) != s.read {
		return 0, nil, posError(s.fr.name, at, errFormat, "end frame after %d sections does not count them", s.read)
	}
	if s.fr.off != s.fr.size {
		return 0, nil, posError(s.fr.name, s.fr.off, errFormat, "%d bytes after the end frame", s.fr.size-s.fr.off)
	}
	s.done = true
	return 0, nil, io.EOF
}

// verifySnapshot reads a snapshot through and returns the sequence
// number it covers.
func verifySnapshot(path string) (uint64, error) {
	sr, f, err := openSnapshot(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for {
		if _, _, err := sr.Next(); err == io.EOF {
			return sr.seq, nil
		} else if err != nil {
			return 0, err
		}
	}
}

// loadLatestSnapshot finds the newest snapshot that verifies. Corrupt
// generations are skipped (falling back to the previous one), matching
// the keptSnapshots retention.
func (w *WAL) loadLatestSnapshot() error {
	snaps, err := w.snapshots()
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		seq, err := verifySnapshot(snaps[i].path)
		if err != nil {
			continue
		}
		w.snapSeq = seq
		w.snapPath = snaps[i].path
		return nil
	}
	return nil
}

// LoadSnapshot hands read the sections of the snapshot Open found,
// reporting whether one existed. It is recovery's one read of it; a
// snapshot this handle writes later is never read back through it. read
// must consume the sections to the end (io.EOF), which is what proves the
// file whole a second time.
func (w *WAL) LoadSnapshot(read func(*SnapshotReader) error) (bool, error) {
	w.mu.Lock()
	path := w.snapPath
	w.snapPath = ""
	w.mu.Unlock()
	if path == "" {
		return false, nil
	}
	sr, f, err := openSnapshot(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := read(sr); err != nil {
		return false, err
	}
	if !sr.done {
		return false, posError(sr.fr.name, sr.fr.off, errFormat, "snapshot sections left unread")
	}
	return true, nil
}
