package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary form of an Op — the body of an "op" log record. Integers are
// uvarints in their shortest form unless said otherwise, a string is its
// length and its bytes:
//
//	[0]           kind (opWire: 1 create_table … 8 compact)
//	table         string
//	create_table  column count, columns
//	drop_table    nothing
//	insert        cell count, cells
//	set           column index, row IDs, a column payload to the end
//	add_column    one column
//	fill_column   column name, a column payload (colcodec.go) to the end
//	tombstone     row IDs
//	compact       row IDs
//
//	column        name, kind byte, flags byte (1 perceptual, 2 expanded)
//	cell          kind byte, then BOOLEAN one byte 0/1, INTEGER a zigzag
//	              varint, FLOAT eight little-endian bytes of IEEE-754 bits
//	              (−0.0 and every NaN pattern survive), TEXT a string,
//	              NULL nothing
//	row IDs       count, the first ID, then each ID's distance from the one
//	              before it (≥ 1: ascending, no repeats)
//
// The encoding is canonical — DecodeOp accepts only what AppendBinary
// writes, so decode→encode is the identity — and every count and length is
// checked against the bytes present before anything is allocated for it.
// Column payloads are carried as they are and decoded where they are
// applied.

// opWire lists the op kinds in the order of their wire byte (index + 1).
var opWire = [...]OpKind{OpCreateTable, OpDropTable, OpInsert, OpSet, OpAddColumn, OpFillColumn, OpTombstone, OpCompact}

const (
	colFlagPerceptual = 1
	colFlagExpanded   = 2
)

// AppendBinary appends the op's binary form to b.
func (op Op) AppendBinary(b []byte) ([]byte, error) {
	wire := 0
	for i, k := range opWire {
		if k == op.Kind {
			wire = i + 1
		}
	}
	if wire == 0 {
		return b, fmt.Errorf("storage: unknown op kind %q", op.Kind)
	}
	b = append(b, byte(wire))
	b = appendString(b, op.Table)
	var err error
	switch op.Kind {
	case OpCreateTable:
		b = binary.AppendUvarint(b, uint64(len(op.Columns)))
		for _, c := range op.Columns {
			b = appendColumnDef(b, c)
		}
	case OpInsert:
		b = binary.AppendUvarint(b, uint64(len(op.Values)))
		for _, v := range op.Values {
			b = appendCell(b, v)
		}
	case OpSet:
		if op.Col < 0 {
			return b, fmt.Errorf("storage: set op on column %d", op.Col)
		}
		b = binary.AppendUvarint(b, uint64(op.Col))
		if b, err = appendRowIDs(b, op.Rows); err != nil {
			return b, err
		}
		b = append(b, op.Fill...)
	case OpAddColumn:
		if op.Column == nil {
			return b, fmt.Errorf("storage: add_column op without column")
		}
		b = appendColumnDef(b, *op.Column)
	case OpFillColumn:
		b = appendString(b, op.Name)
		b = append(b, op.Fill...)
	case OpTombstone, OpCompact:
		if b, err = appendRowIDs(b, op.Rows); err != nil {
			return b, err
		}
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendColumnDef(b []byte, c Column) []byte {
	var flags byte
	if c.Perceptual {
		flags |= colFlagPerceptual
	}
	if c.Origin == ColumnExpanded {
		flags |= colFlagExpanded
	}
	return append(appendString(b, c.Name), byte(c.Kind), flags)
}

func appendCell(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindBool:
		if v.b {
			return append(b, 1)
		}
		return append(b, 0)
	case KindInt:
		return binary.AppendVarint(b, v.i)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.f))
	case KindText:
		return appendString(b, v.s)
	}
	return b
}

func appendRowIDs(b []byte, rows []int) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	prev := -1
	for i, row := range rows {
		if row <= prev {
			return b, fmt.Errorf("storage: row IDs not ascending: %d follows %d at position %d", row, prev, i)
		}
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(row))
		} else {
			b = binary.AppendUvarint(b, uint64(row-prev))
		}
		prev = row
	}
	return b, nil
}

// opReader walks an op's bytes; the first failure sticks, with its offset.
type opReader struct {
	b   []byte
	off int
	err error
}

func (r *opReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("storage: op record: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *opReader) left() int { return len(r.b) - r.off }

func (r *opReader) byte(what string) byte {
	if r.err != nil || r.left() < 1 {
		r.fail("%s cut short", what)
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// uvarint reads a shortest-form uvarint that fits an int.
func (r *opReader) uvarint(what string) int {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) || x > math.MaxInt {
		r.fail("%s is not a shortest-form uvarint below 2^63", what)
		return 0
	}
	r.off += n
	return int(x)
}

// count reads the length of something that takes at least one byte an
// element, so a count above the bytes left is refused before allocating.
func (r *opReader) count(what string) int {
	n := r.uvarint(what)
	if r.err == nil && n > r.left() {
		r.fail("%s %d with %d bytes left", what, n, r.left())
		return 0
	}
	return n
}

func (r *opReader) string(what string) string {
	n := r.count(what + " length")
	if r.err != nil {
		return ""
	}
	r.off += n
	return string(r.b[r.off-n : r.off])
}

func (r *opReader) columnDef() Column {
	c := Column{Name: r.string("column name")}
	kind, flags := r.byte("column kind"), r.byte("column flags")
	if r.err == nil && (Kind(kind) > KindText || flags > colFlagPerceptual|colFlagExpanded) {
		r.off -= 2
		r.fail("column kind %d with flags %d", kind, flags)
	}
	c.Kind = Kind(kind)
	c.Perceptual = flags&colFlagPerceptual != 0
	if flags&colFlagExpanded != 0 {
		c.Origin = ColumnExpanded
	}
	return c
}

func (r *opReader) cell() Value {
	switch kind := Kind(r.byte("cell kind")); kind {
	case KindNull:
		return Value{}
	case KindBool:
		x := r.byte("BOOLEAN cell")
		if x > 1 {
			r.off--
			r.fail("BOOLEAN cell %d", x)
		}
		return Value{kind: KindBool, b: x == 1}
	case KindInt:
		if r.err != nil {
			return Value{}
		}
		x, n := binary.Varint(r.b[r.off:])
		if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
			r.fail("INTEGER cell is not a shortest-form varint")
			return Value{}
		}
		r.off += n
		return Value{kind: KindInt, i: x}
	case KindFloat:
		if r.err != nil || r.left() < 8 {
			r.fail("FLOAT cell cut short")
			return Value{}
		}
		r.off += 8
		return Value{kind: KindFloat, f: math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off-8:]))}
	case KindText:
		return Value{kind: KindText, s: r.string("TEXT cell")}
	default:
		if r.err == nil {
			r.off--
			r.fail("unknown cell kind %d", kind)
		}
		return Value{}
	}
}

func (r *opReader) rowIDs() []int {
	n := r.count("row count")
	if r.err != nil || n == 0 {
		return nil
	}
	rows := make([]int, n)
	for i := range rows {
		at := r.off
		d := r.uvarint("row ID")
		switch {
		case r.err != nil:
			return nil
		case i == 0:
			rows[i] = d
		case d == 0 || d > math.MaxInt-rows[i-1]:
			r.off = at
			r.fail("row %d is %d past row %d", i, d, rows[i-1])
			return nil
		default:
			rows[i] = rows[i-1] + d
		}
	}
	return rows
}

// DecodeOp decodes an op written by AppendBinary. The op's Fill aliases b;
// everything else is copied. Errors name the byte offset they were found
// at.
func DecodeOp(b []byte) (Op, error) {
	r := &opReader{b: b}
	wire := r.byte("op kind")
	if r.err == nil && (wire == 0 || int(wire) > len(opWire)) {
		r.off--
		r.fail("unknown op kind %d", wire)
	}
	if r.err != nil {
		return Op{}, r.err
	}
	op := Op{Kind: opWire[wire-1], Table: r.string("table name")}
	switch op.Kind {
	case OpCreateTable:
		// A column takes at least three bytes; count's bound is enough to
		// keep the allocation below the input's size.
		n := r.count("column count")
		if n > 0 && r.err == nil {
			op.Columns = make([]Column, 0, n/3+1)
		}
		for i := 0; i < n && r.err == nil; i++ {
			op.Columns = append(op.Columns, r.columnDef())
		}
	case OpInsert:
		n := r.count("cell count")
		if n > 0 && r.err == nil {
			op.Values = make([]Value, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			op.Values = append(op.Values, r.cell())
		}
	case OpSet:
		op.Col = r.uvarint("column index")
		op.Rows = r.rowIDs()
		op.Fill, r.off = b[r.off:], len(b)
	case OpAddColumn:
		c := r.columnDef()
		op.Column = &c
	case OpFillColumn:
		op.Name = r.string("column name")
		op.Fill, r.off = b[r.off:], len(b)
	case OpTombstone, OpCompact:
		op.Rows = r.rowIDs()
	}
	if r.err == nil && r.left() > 0 {
		r.fail("%d bytes after the %s op", r.left(), op.Kind)
	}
	if r.err != nil {
		return Op{}, r.err
	}
	return op, nil
}
