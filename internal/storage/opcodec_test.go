package storage

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// memSections is a snapshot file in memory: what a Checkpoint writes and
// RestoreTable reads back.
type memSections struct {
	buf   []byte
	kinds []byte
	body  [][]byte
	next  int
}

func (s *memSections) Section(kind byte) []byte { return append(s.buf[:0], kind) }

func (s *memSections) Emit(b []byte) error {
	s.buf = b
	s.kinds = append(s.kinds, b[0])
	s.body = append(s.body, append([]byte(nil), b[1:]...))
	return nil
}

func (s *memSections) Next() (byte, []byte, error) {
	if s.next == len(s.body) {
		return 0, nil, io.EOF
	}
	s.next++
	return s.kinds[s.next-1], s.body[s.next-1], nil
}

// write checkpoints one table into s.
func (s *memSections) write(t testing.TB, tbl *Table) {
	t.Helper()
	cp := &Checkpoint{snaps: []*Snap{tbl.Pin()}}
	defer cp.Release()
	if err := cp.Write(s); err != nil {
		t.Fatal(err)
	}
}

// restore rebuilds every table of s into c.
func (s *memSections) restore(t testing.TB, c *Catalog) {
	t.Helper()
	for {
		kind, body, err := s.Next()
		if err == io.EOF {
			return
		}
		if kind != SectionTable {
			t.Fatalf("section kind %d between tables", kind)
		}
		if err := RestoreTable(c, body, s); err != nil {
			t.Fatal(err)
		}
	}
}

// opSeeds are ops of every kind carrying what the codec must keep exactly:
// NULL cells, empty TEXT, −0.0 and NaN bit patterns, the extreme integers,
// provenance flags, empty row lists and payloads.
func opSeeds() []Op {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	col := Column{Name: "Comedy", Kind: KindBool, Perceptual: true, Origin: ColumnExpanded}
	fill := EncodeColumn(&Vector{Kind: KindFloat, Floats: []float64{nan, math.Copysign(0, -1), 0}, Nulls: []uint64{4}}, 3)
	return []Op{
		{Kind: OpCreateTable, Table: "movies", Columns: []Column{{Name: "id", Kind: KindInt}, {Name: "name", Kind: KindText}, col}},
		{Kind: OpCreateTable, Table: ""},
		{Kind: OpDropTable, Table: "movies"},
		{Kind: OpInsert, Table: "ratings", Values: []Value{Int(1), Int(2), Int(3), Float(4)}},
		{Kind: OpInsert, Table: "t", Values: []Value{Null(), Text(""), Text("añb"), Bool(true), Bool(false),
			Float(math.Copysign(0, -1)), Float(nan), Float(math.Inf(-1)), Int(math.MinInt64), Int(math.MaxInt64), Int(0), Int(-1)}},
		{Kind: OpInsert, Table: "t"},
		{Kind: OpSet, Table: "t", Col: 3, Rows: []int{0, 4095, 4096}, Fill: fill},
		{Kind: OpSet, Table: "t", Col: 0, Fill: EncodeColumn(&Vector{Kind: KindNull}, 0)},
		{Kind: OpAddColumn, Table: "movies", Column: &col},
		{Kind: OpFillColumn, Table: "movies", Name: "Comedy", Fill: fill},
		{Kind: OpFillColumn, Table: "movies", Name: "", Fill: []byte{}},
		{Kind: OpTombstone, Table: "t", Rows: []int{7}},
		{Kind: OpTombstone, Table: "t", Rows: []int{0, 1, 2, 1 << 40}},
		{Kind: OpCompact, Table: "t", Rows: []int{3, 900, 901}},
		{Kind: OpCompact, Table: "t"},
	}
}

func mustEncodeOp(t testing.TB, op Op) []byte {
	t.Helper()
	b, err := op.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%s: %v", op.Kind, err)
	}
	return b
}

// checkOpRoundTrip: encode→decode gives the op back (floats by bits) and
// encoding that again gives the same bytes.
func checkOpRoundTrip(t testing.TB, op Op) {
	t.Helper()
	enc := mustEncodeOp(t, op)
	back, err := DecodeOp(enc)
	if err != nil {
		t.Fatalf("%s: %v\n%x", op.Kind, err, enc)
	}
	if again := mustEncodeOp(t, back); !bytes.Equal(again, enc) {
		t.Fatalf("%s: re-encoding differs:\n%x\n%x", op.Kind, enc, again)
	}
	if back.Kind != op.Kind || back.Table != op.Table || back.Name != op.Name || back.Col != op.Col ||
		len(back.Values) != len(op.Values) || !bytes.Equal(back.Fill, op.Fill) ||
		len(back.Rows) != len(op.Rows) || (len(op.Rows) > 0 && !reflect.DeepEqual(back.Rows, op.Rows)) ||
		len(back.Columns) != len(op.Columns) || (len(op.Columns) > 0 && !reflect.DeepEqual(back.Columns, op.Columns)) ||
		(op.Column == nil) != (back.Column == nil) || (op.Column != nil && *op.Column != *back.Column) {
		t.Fatalf("%s: %+v became %+v", op.Kind, op, back)
	}
	for i, v := range op.Values {
		got := back.Values[i]
		if got.kind != v.kind || got.b != v.b || got.i != v.i || got.s != v.s || math.Float64bits(got.f) != math.Float64bits(v.f) {
			t.Fatalf("%s cell %d: %v (%s) became %v (%s)", op.Kind, i, v, v.kind, got, got.kind)
		}
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	for _, op := range opSeeds() {
		checkOpRoundTrip(t, op)
	}
}

// The int/float distinction must survive a cell: Int(1) and Float(1)
// stringify alike but are different kinds. (The JSON wire form this
// replaces needed a kind tag for the same reason.)
func TestCellCodecKeepsKinds(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false), Int(0), Int(-42), Int(1 << 60),
		Float(0), Float(1), Float(3.25), Text(""), Text("quoted \"text\""),
	}
	back, err := DecodeOp(mustEncodeOp(t, Op{Kind: OpInsert, Table: "t", Values: vals}))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := back.Values[i]; got != v {
			t.Errorf("value %d: %s(%s) → %s(%s)", i, v.Kind(), v, got.Kind(), got)
		}
	}
}

// Every strict prefix of a record, and a record with a byte appended, is a
// positioned error — except a prefix that is itself a whole record, which
// only the ops that end in a payload "to the end" have.
func TestDecodeOpRejectsCutAndPaddedRecords(t *testing.T) {
	for _, op := range opSeeds() {
		enc := mustEncodeOp(t, op)
		openEnded := op.Kind == OpSet || op.Kind == OpFillColumn
		for n := 0; n <= len(enc)+1; n++ {
			b := append(append([]byte(nil), enc...), 0)[:n]
			_, err := DecodeOp(b)
			switch {
			case n == len(enc):
				if err != nil {
					t.Fatalf("%s: %v", op.Kind, err)
				}
			case err == nil && !(openEnded && n > len(enc)-len(op.Fill)-1):
				t.Fatalf("%s: %d of %d bytes accepted", op.Kind, n, len(enc))
			case err != nil && !strings.Contains(err.Error(), "offset"):
				t.Fatalf("%s: %d of %d bytes: error without a position: %v", op.Kind, n, len(enc), err)
			}
		}
	}
}

func TestDecodeOpRejectsNonCanonical(t *testing.T) {
	insert := func(cells ...byte) []byte { return append([]byte{3, 1, 't', 1}, cells...) }
	for name, b := range map[string][]byte{
		"kind 0":                   {0, 0},
		"kind 9":                   {9, 0},
		"padded table length":      {2, 0x80, 0},
		"table length over input":  {2, 5, 'a'},
		"cell count over input":    {3, 1, 't', 9},
		"cell kind 5":              insert(5),
		"BOOLEAN 2":                insert(byte(KindBool), 2),
		"padded INTEGER":           insert(byte(KindInt), 0x80, 0),
		"short FLOAT":              insert(byte(KindFloat), 1, 2, 3),
		"repeated row":             {7, 1, 't', 2, 5, 0},
		"row count over input":     {7, 1, 't', 3, 5},
		"row past MaxInt":          {7, 1, 't', 2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"column kind 7":            {5, 1, 't', 1, 'c', 7, 0},
		"column flags 4":           {5, 1, 't', 1, 'c', 1, 4},
		"bytes after a tombstone":  {7, 1, 't', 1, 5, 0},
		"bytes after a drop_table": {2, 1, 't', 0},
	} {
		if _, err := DecodeOp(b); err == nil || !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: err = %v, want a positioned error", name, err)
		}
	}
	if _, err := (Op{Kind: OpTombstone, Table: "t", Rows: []int{4, 4}}).AppendBinary(nil); err == nil {
		t.Error("a repeated row ID must not encode")
	}
	if _, err := (Op{Kind: "delete", Table: "t"}).AppendBinary(nil); err == nil {
		t.Error("an unknown kind must not encode")
	}
}

// randomOp draws an op of any kind from r.
func randomOp(r *rand.Rand) Op {
	text := func() string {
		b := make([]byte, r.Intn(6))
		r.Read(b)
		return string(b)
	}
	column := func() Column {
		return Column{Name: text(), Kind: Kind(r.Intn(5)), Perceptual: r.Intn(2) == 0, Origin: ColumnOrigin(r.Intn(2))}
	}
	rows := func() []int {
		out := make([]int, r.Intn(5))
		next := 0
		for i := range out {
			next += r.Intn(5000)
			out[i] = next
			next++
		}
		return out
	}
	payload := func() []byte {
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return b
	}
	op := Op{Kind: opWire[r.Intn(len(opWire))], Table: text()}
	switch op.Kind {
	case OpCreateTable:
		for i := r.Intn(4); i > 0; i-- {
			op.Columns = append(op.Columns, column())
		}
	case OpInsert:
		for i := r.Intn(6); i > 0; i-- {
			var v Value
			switch Kind(r.Intn(5)) {
			case KindBool:
				v = Bool(r.Intn(2) == 0)
			case KindInt:
				v = Int(int64(r.Uint64()) >> uint(r.Intn(64)))
			case KindFloat:
				v = Float(math.Float64frombits(r.Uint64()))
			case KindText:
				v = Text(text())
			}
			op.Values = append(op.Values, v)
		}
	case OpSet:
		op.Col, op.Rows, op.Fill = r.Intn(300), rows(), payload()
	case OpAddColumn:
		c := column()
		op.Column = &c
	case OpFillColumn:
		op.Name, op.Fill = text(), payload()
	case OpTombstone, OpCompact:
		op.Rows = rows()
	}
	return op
}

// FuzzOpCodec feeds arbitrary bytes to the op decoder — a positioned error
// or an op that encodes back to exactly those bytes, never a panic — and
// uses the same bytes as the seed of a generated op of any kind, which
// must survive encode→decode.
func FuzzOpCodec(f *testing.F) {
	for _, op := range opSeeds() {
		enc := mustEncodeOp(f, op)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if op, err := DecodeOp(b); err == nil {
			if enc := mustEncodeOp(t, op); !bytes.Equal(enc, b) {
				t.Fatalf("accepted bytes are not canonical:\n%x\ndecode to %+v, which encodes to\n%x", b, op, enc)
			}
		} else if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("error without a position: %v", err)
		}
		var seed int64
		for _, x := range b {
			seed = seed*131 + int64(x)
		}
		checkOpRoundTrip(t, randomOp(rand.New(rand.NewSource(seed))))
	})
}
