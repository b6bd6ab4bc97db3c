package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Tables inside a snapshot. A checkpoint pins every table's current
// version — the immutable object cursors read — and writes, per table, in
// this order:
//
//	SectionTable    name, column count, columns (as in an op record),
//	                physical row count, tombstone count
//	SectionColumn   per column, per 4 096-row chunk and then the tail: the
//	                cells as one column payload (colcodec.go); a chunk that
//	                is all NULL is a KindNull payload
//	SectionDead     when the tombstone count is not 0: the tombstone
//	                bitmap, bit i of byte i/8 ↔ physical row i
//
// Restore decodes each payload straight into a chunk, builds one version
// and publishes it once: physical row IDs, tombstones and column
// provenance come back exactly, and no cell is boxed on the way.

// Section kinds the storage layer writes into a snapshot; the checkpoint's
// caller owns the kinds below SectionTable.
const (
	SectionTable  byte = 16
	SectionColumn byte = 17
	SectionDead   byte = 18
)

// SectionWriter is the snapshot file as a checkpoint sees it: Section
// starts a section in a buffer the writer reuses, Emit writes it out with
// whatever was appended.
type SectionWriter interface {
	Section(kind byte) []byte
	Emit(b []byte) error
}

// SectionReader hands back the sections in the order they were written;
// a body is valid until the next call.
type SectionReader interface {
	Next() (kind byte, body []byte, err error)
}

// Checkpoint is every table of a catalog pinned at one instant. Taking it
// costs a pin per table; Write reads the pinned versions at leisure, while
// writers publish newer ones beside them.
type Checkpoint struct {
	snaps []*Snap
}

// Checkpoint pins the current version of every table, in name order.
func (c *Catalog) Checkpoint() *Checkpoint {
	cp := &Checkpoint{}
	for _, name := range c.Names() {
		if t, ok := c.Get(name); ok {
			cp.snaps = append(cp.snaps, t.Pin())
		}
	}
	return cp
}

// Release unpins the tables. Safe to call more than once.
func (cp *Checkpoint) Release() {
	for _, s := range cp.snaps {
		s.Release()
	}
}

// Write emits the pinned tables' sections.
func (cp *Checkpoint) Write(w SectionWriter) error {
	var scratch []uint64 // a tail's NULL flags, packed
	for _, s := range cp.snaps {
		v := s.v
		b := appendString(w.Section(SectionTable), s.t.name)
		b = binary.AppendUvarint(b, uint64(v.schema.Len()))
		for _, c := range v.schema.cols {
			b = appendColumnDef(b, c)
		}
		b = binary.AppendUvarint(b, uint64(v.nrows))
		b = binary.AppendUvarint(b, uint64(v.ndead()))
		if err := w.Emit(b); err != nil {
			return err
		}
		for col := 0; col < v.schema.Len(); col++ {
			for lo := 0; lo < v.nrows; lo += ChunkRows {
				c, _ := v.cell(lo, col)
				n := min(ChunkRows, v.nrows-lo)
				vec := Vector{Kind: KindNull}
				if c != nil {
					vec = Vector{Kind: c.kind, Ints: c.ints, Floats: c.floats, Bools: c.bools, Strs: c.strs, Nulls: c.nulls}
					if c.flags != nil {
						scratch = resize(scratch, (n+63)/64)
						clear(scratch)
						packFlags(scratch, c.flags[:n])
						vec.Nulls = scratch
					}
				}
				if err := w.Emit(AppendColumn(w.Section(SectionColumn), &vec, n)); err != nil {
					return err
				}
			}
		}
		if dead := v.deadBits(); v.ndead() > 0 {
			b := w.Section(SectionDead)
			for i := 0; i < (v.nrows+7)/8; i++ {
				var word uint64
				if i>>3 < len(dead) {
					word = dead[i>>3]
				}
				b = append(b, byte(word>>(uint(i&7)*8)))
			}
			if err := w.Emit(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreTable rebuilds into c the table whose SectionTable body is
// header, reading the sections that follow it from r. The catalog has no
// journal attached during recovery, so nothing is logged; indexes are
// attached, and so bulk-built, by the caller afterwards.
func RestoreTable(c *Catalog, header []byte, r SectionReader) error {
	h := &opReader{b: header}
	name := h.string("table name")
	ncols := h.count("column count")
	var cols []Column
	for i := 0; i < ncols && h.err == nil; i++ {
		cols = append(cols, h.columnDef())
	}
	nrows, ndead := h.uvarint("row count"), h.uvarint("tombstone count")
	if h.err == nil && (h.left() > 0 || ndead > nrows) {
		h.fail("%d bytes after a table of %d rows and %d tombstones", h.left(), nrows, ndead)
	}
	if h.err != nil {
		return fmt.Errorf("storage: snapshot table section: %w", h.err)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("storage: snapshot table %s: "+format, append([]any{name}, args...)...)
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return bad("%w", err)
	}
	tbl, err := c.Create(name, schema)
	if err != nil {
		return err
	}
	v := newVersion(schema)
	v.epoch = 1
	v.nrows = nrows
	v.sealed = nrows / ChunkRows * ChunkRows
	for col := range cols {
		var cd colData // grown a chunk at a time: the row count is only a claim until its sections are read
		for lo := 0; lo < nrows; lo += ChunkRows {
			n := min(ChunkRows, nrows-lo)
			kind, body, err := r.Next()
			if err != nil {
				return bad("column %s rows %d–%d: %w", cols[col].Name, lo, lo+n-1, err)
			}
			if kind != SectionColumn {
				return bad("column %s rows %d–%d: section kind %d where a column chunk belongs", cols[col].Name, lo, lo+n-1, kind)
			}
			vec, err := DecodeColumn(body)
			if err != nil {
				return bad("column %s rows %d–%d: %w", cols[col].Name, lo, lo+n-1, err)
			}
			if vec.Len() != n || (vec.Kind != KindNull && vec.Kind != cols[col].Kind) {
				return bad("column %s rows %d–%d: payload of %d %s cells for %d of a %s column",
					cols[col].Name, lo, lo+n-1, vec.Len(), vec.Kind, n, cols[col].Kind)
			}
			ch := chunkOf(vec, n, lo >= v.sealed)
			if lo >= v.sealed {
				cd.tail = ch
			} else {
				cd.chunks = append(cd.chunks, ch)
			}
		}
		*v.col(col) = cd
	}
	if ndead > 0 {
		kind, body, err := r.Next()
		if err != nil {
			return bad("tombstones: %w", err)
		}
		if kind != SectionDead || len(body) != (nrows+7)/8 {
			return bad("tombstones: section kind %d of %d bytes for %d rows", kind, len(body), nrows)
		}
		ts := &tombstones{bits: make([]uint64, (nrows+63)/64)}
		for i, x := range body {
			ts.bits[i>>3] |= uint64(x) << (uint(i&7) * 8)
		}
		for _, w := range ts.bits {
			ts.n += bits.OnesCount64(w)
		}
		if pad := nrows & 7; ts.n != ndead || (pad != 0 && body[len(body)-1]>>uint(pad) != 0) {
			return bad("tombstones: bitmap marks %d rows, the table section says %d", ts.n, ndead)
		}
		v.dead = ts
	}
	tbl.mu.Lock()
	tbl.publish(v, nil)
	tbl.mu.Unlock()
	return nil
}

// chunkOf adopts a decoded column payload of n cells as a chunk: nil when
// every cell is NULL, the NULLs as a bitmap for a sealed chunk and as
// byte flags for a tail (see chunk).
func chunkOf(vec *Vector, n int, tail bool) *chunk {
	nulls := countBits(vec.Nulls, 0, n)
	if vec.Kind == KindNull || nulls == n {
		return nil
	}
	c := vec.payload()
	switch {
	case nulls == 0:
		c.nulls = nil
	case tail:
		c.flags = make([]bool, n)
		for i := range c.flags {
			c.flags[i] = hasBit(c.nulls, i)
		}
		c.nulls = nil
	}
	return &c
}
