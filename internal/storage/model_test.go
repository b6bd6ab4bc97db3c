package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// modelRow is one physical row of the plain-slice model.
type modelRow struct {
	vals []Value
	dead bool
}

// modelHarness drives a Table and a plain-slice model through the same
// operations. Row IDs are physical and stable (Delete tombstones instead
// of compacting), so the model is indexed by physical ID; Compact
// renumbers both sides.
type modelHarness struct {
	t    *testing.T
	rng  *rand.Rand
	tbl  *Table
	cols []Column
	rows []modelRow

	patched int // patched chunks seen in snapshots pinned mid-burst
}

var modelKinds = []Kind{KindInt, KindFloat, KindBool, KindText}

func (h *modelHarness) randValue(kind Kind, nullFrac float64) Value {
	if h.rng.Float64() < nullFrac {
		return Null()
	}
	switch kind {
	case KindInt:
		return Int(int64(h.rng.Intn(50)))
	case KindFloat:
		return Float(float64(h.rng.Intn(40)) / 4)
	case KindBool:
		return Bool(h.rng.Intn(2) == 0)
	default:
		return Text(fmt.Sprintf("s%02d", h.rng.Intn(30)))
	}
}

func (h *modelHarness) live() []int { return liveIn(h.rows) }

func liveIn(rows []modelRow) []int {
	var ids []int
	for id, r := range rows {
		if !r.dead {
			ids = append(ids, id)
		}
	}
	return ids
}

func (h *modelHarness) attachIndex() {
	if err := h.tbl.AttachIndex(newFakeIndex("ik", "k")); err != nil {
		h.t.Fatal(err)
	}
}

func (h *modelHarness) insert(n int) {
	for ; n > 0; n-- {
		vals := make([]Value, len(h.cols))
		for c, col := range h.cols {
			vals[c] = h.randValue(col.Kind, 0.15)
		}
		if err := h.tbl.Insert(vals...); err != nil {
			h.t.Fatal(err)
		}
		h.rows = append(h.rows, modelRow{vals: vals})
	}
}

func (h *modelHarness) set(id, col int, val Value) {
	if err := h.tbl.Set(id, col, val); err != nil {
		h.t.Fatal(err)
	}
	h.rows[id].vals[col] = val
}

func (h *modelHarness) deleteSome() {
	live := h.live()
	if len(live) == 0 {
		return
	}
	var ids []int
	for n := 1 + h.rng.Intn(30); n > 0; n-- {
		ids = append(ids, live[h.rng.Intn(len(live))])
	}
	want := 0
	for _, id := range ids {
		if !h.rows[id].dead {
			h.rows[id].dead = true
			want++
		}
	}
	if got := h.tbl.Delete(ids); got != want {
		h.t.Fatalf("Delete removed %d, model says %d", got, want)
	}
	// Deleting again (and out-of-range IDs) must be a no-op.
	if again := h.tbl.Delete(append(ids, -1, len(h.rows)+5)); again != 0 {
		h.t.Fatalf("re-Delete removed %d, want 0", again)
	}
}

// addColumn expands the schema, then writes into the new column's nil
// sealed chunk and nil tail, so Set's nil-chunk path runs every time.
func (h *modelHarness) addColumn() {
	if len(h.cols) >= 9 {
		return
	}
	col := Column{Name: fmt.Sprintf("x%d", len(h.cols)), Kind: modelKinds[len(h.cols)%4], Origin: ColumnExpanded}
	idx, err := h.tbl.AddColumn(col)
	if err != nil {
		h.t.Fatal(err)
	}
	if idx != len(h.cols) {
		h.t.Fatalf("AddColumn returned index %d, want %d", idx, len(h.cols))
	}
	h.cols = append(h.cols, col)
	for id := range h.rows {
		h.rows[id].vals = append(h.rows[id].vals, Null())
	}
	live := h.live()
	if len(live) == 0 {
		return
	}
	h.set(live[0], idx, h.randValue(col.Kind, 0))
	h.set(live[len(live)-1], idx, h.randValue(col.Kind, 0))
	h.set(live[len(live)/2], idx, Null())
}

// fillColumn bulk-assigns a column over the live rows; tombstoned rows
// in between stay NULL and unreadable.
func (h *modelHarness) fillColumn() {
	col := h.rng.Intn(len(h.cols))
	live := h.live()
	vals := make([]Value, len(live))
	for i, id := range live {
		vals[i] = h.randValue(h.cols[col].Kind, 0.1)
		h.rows[id].vals[col] = vals[i]
	}
	if err := h.tbl.FillColumn(h.cols[col].Name, vals); err != nil {
		h.t.Fatal(err)
	}
	if err := h.tbl.FillColumn(h.cols[col].Name, vals[:len(vals)/2]); err == nil && len(vals) > 1 {
		h.t.Fatal("FillColumn accepted a short value list")
	}
}

func (h *modelHarness) compact() {
	res, err := h.tbl.Compact(CompactionPolicy{Force: true})
	if err != nil {
		h.t.Fatal(err)
	}
	dead := len(h.rows) - len(h.live())
	if res.Compacted != (dead > 0) || res.RowsReclaimed != dead {
		h.t.Fatalf("Compact = %+v with %d tombstones", res, dead)
	}
	kept := h.rows[:0]
	for _, r := range h.rows {
		if !r.dead {
			kept = append(kept, r)
		}
	}
	h.rows = kept
}

// restore round-trips the table through the snapshot path: a checkpoint's
// sections, rebuilt in a fresh catalog. Physical IDs and tombstones must
// survive, and the sections must not depend on how the cells were written.
func (h *modelHarness) restore() {
	h.snapshotIsCanonical()
	var snap memSections
	snap.write(h.t, h.tbl)
	c := NewCatalog()
	snap.restore(h.t, c)
	h.tbl, _ = c.Get(h.tbl.Name())
	h.attachIndex()
}

// snapshotIsCanonical asserts that the table's snapshot is byte for byte
// the snapshot of a table holding the same cells written without a patch:
// every column rebuilt cell by cell as it reads (compactApply removing
// nothing), the tombstones kept.
func (h *modelHarness) snapshotIsCanonical() {
	h.t.Helper()
	v := h.tbl.snap.Load()
	plain := NewTable(h.tbl.Name(), v.schema)
	nv, _ := compactApply(v, nil)
	plain.snap.Store(nv)
	var got, want memSections
	got.write(h.t, h.tbl)
	want.write(h.t, plain)
	if len(got.body) != len(want.body) {
		h.t.Fatalf("snapshot has %d sections, the unpatched table's %d", len(got.body), len(want.body))
	}
	for i := range got.body {
		if got.kinds[i] != want.kinds[i] || !bytes.Equal(got.body[i], want.body[i]) {
			h.t.Fatalf("snapshot section %d (kind %d, %d bytes) differs from the unpatched table's (kind %d, %d bytes); %d chunks patched",
				i, got.kinds[i], len(got.body[i]), want.kinds[i], len(want.body[i]), patchedChunks(v))
		}
	}
}

// patchedChunks counts v's chunks and tails that carry a patch.
func patchedChunks(v *version) int {
	n := 0
	for c := 0; c < v.schema.Len(); c++ {
		cd := v.col(c)
		for _, ch := range append(cd.chunks[:len(cd.chunks):len(cd.chunks)], cd.tail) {
			if ch != nil && ch.p != nil {
				n++
			}
		}
	}
	return n
}

// freeze returns a deep copy of the model rows: what a snapshot pinned now
// must keep reading.
func (h *modelHarness) freeze() []modelRow {
	rows := make([]modelRow, len(h.rows))
	for id, r := range h.rows {
		rows[id] = modelRow{vals: append([]Value(nil), r.vals...), dead: r.dead}
	}
	return rows
}

// burst writes into one chunk of one or two columns — a sealed chunk or,
// when tail is set or there is none, the tail — through Set and SetBatch
// calls of one to 40 cells, NULLs and deleted rows among them, 40 to 200
// cells in all: the chunk's patch grows, is read and folds. With seal, the
// patched tail is then filled until it seals. Snapshots pinned before the
// burst and in its middle must still read the cells of their own instant;
// the caller checks the table against the model.
func (h *modelHarness) burst(tail, seal bool) {
	sealed := h.tbl.snap.Load().sealed
	base := sealed
	if !tail && sealed > 0 {
		base = h.rng.Intn(sealed/ChunkRows) * ChunkRows
	}
	var ids []int // every row of the chunk, live or not
	for id := base; id < min(base+ChunkRows, len(h.rows)); id++ {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return
	}
	cols := h.rng.Perm(len(h.cols))[:1+h.rng.Intn(2)]
	pins := []*Snap{h.tbl.Pin()}
	frozen := [][]modelRow{h.freeze()}
	total := 40 + h.rng.Intn(160)
	mid := h.rng.Intn(total)
	for written := 0; written < total; {
		if len(pins) == 1 && written >= mid {
			pins, frozen = append(pins, h.tbl.Pin()), append(frozen, h.freeze())
			h.patched += patchedChunks(pins[1].v)
		}
		n := min(1+h.rng.Intn(40), len(ids))
		if n == 1 && h.rng.Intn(2) == 0 {
			if id := ids[h.rng.Intn(len(ids))]; !h.rows[id].dead {
				h.set(id, cols[0], h.randValue(h.cols[cols[0]].Kind, 0.25))
			}
			written++
			continue
		}
		rows := make([]int, n)
		for j, k := range h.rng.Perm(len(ids))[:n] {
			rows[j] = ids[k]
		}
		vals := make([][]Value, len(cols))
		want := 0
		for k, col := range cols {
			vals[k] = make([]Value, n)
			for j, id := range rows {
				vals[k][j] = h.randValue(h.cols[col].Kind, 0.25)
				if !h.rows[id].dead {
					h.rows[id].vals[col] = vals[k][j]
				}
			}
		}
		for _, id := range rows {
			if !h.rows[id].dead {
				want++
			}
		}
		got, err := h.tbl.SetBatch(rows, cols, vals)
		if err != nil {
			h.t.Fatal(err)
		}
		if got != want {
			h.t.Fatalf("SetBatch wrote %d rows, model says %d", got, want)
		}
		written += n
	}
	if seal {
		h.insert(ChunkRows - (len(h.rows) - sealed) + h.rng.Intn(20))
	}
	for i, pin := range pins {
		h.checkPin(pin, frozen[i])
		pin.Release()
	}
}

// checkPin asserts that a pinned snapshot reads the model rows frozen when
// it was pinned: point reads, plain, range and predicate cursors over the
// pin, and the index form over the rows a key matches there.
func (h *modelHarness) checkPin(snap *Snap, rows []modelRow) {
	h.t.Helper()
	v := snap.v
	if v.nrows != len(rows) {
		h.t.Fatalf("pinned snapshot has %d rows, its model %d", v.nrows, len(rows))
	}
	live := liveIn(rows)
	got := make(Row, v.schema.Len())
	for n := 0; n < 20 && len(live) > 0; n++ {
		id := live[h.rng.Intn(len(live))]
		for c := range got {
			got[c] = v.value(id, c)
		}
		h.expectIn(rows, []int{id}, "pinned row %d", id).row(got)
	}
	cur := NewRangeCursorAt(snap, 0, -1, 0)
	h.expectIn(rows, live, "pinned cursor").drain(cur.Next, cur.Err)

	lo := h.rng.Intn(len(rows))
	hi := lo + h.rng.Intn(len(rows)-lo+1)
	var want []int
	for _, id := range live {
		if id >= lo && id < hi {
			want = append(want, id)
		}
	}
	cur = NewRangeCursorAt(snap, lo, hi, 0)
	h.expectIn(rows, want, "pinned RangeCursor[%d,%d)", lo, hi).drain(cur.Next, cur.Err)

	preds := []Pred{h.randPred(), h.randPred()}[:1+h.rng.Intn(2)]
	want = nil
	for _, id := range live {
		keep := true
		for _, p := range preds {
			keep = keep && predMatch(p, rows[id].vals[p.Col])
		}
		if keep {
			want = append(want, id)
		}
	}
	cur = NewRangeCursorAt(snap, 0, -1, 0)
	cur.SetPreds(preds)
	h.expectIn(rows, want, "pinned pred cursor %+v", preds).drain(cur.Next, cur.Err)

	key := Int(int64(h.rng.Intn(50)))
	want = nil
	for _, id := range live {
		if rows[id].vals[0].Equal(key) {
			want = append(want, id)
		}
	}
	ic := NewIndexCursorAt(snap, want, 0)
	h.expectIn(rows, want, "pinned IndexCursor k=%v", key).drain(ic.Next, ic.Err)
}

// randPred draws a predicate on a random column: every operator, with a
// literal of the column's class (INTEGER columns also meet fractional
// float literals), of another class, or NULL.
func (h *modelHarness) randPred() Pred {
	col := h.rng.Intn(len(h.cols))
	p := Pred{Col: col, Op: PredOp(h.rng.Intn(int(PredNotNull) + 1))}
	switch kind := h.cols[col].Kind; h.rng.Intn(10) {
	case 0:
		p.Val = Null()
	case 1, 2:
		p.Val = h.randValue(modelKinds[h.rng.Intn(4)], 0)
	case 3:
		if kind == KindInt {
			p.Val = Float(float64(h.rng.Intn(100)) / 2)
			break
		}
		fallthrough
	default:
		p.Val = h.randValue(kind, 0)
	}
	return p
}

// rowChecker compares a stream of rows against the model rows with the
// given physical IDs, in order. It compares with ==, so a boxed Value
// carrying anything but its kind and that kind's payload fails too.
type rowChecker struct {
	h    *modelHarness
	rows []modelRow
	what string
	want []int
	n    int
}

func (h *modelHarness) expect(want []int, format string, args ...any) *rowChecker {
	return h.expectIn(h.rows, want, format, args...)
}

// expectIn is expect against model rows other than the live ones: a copy
// frozen when a snapshot was pinned.
func (h *modelHarness) expectIn(rows []modelRow, want []int, format string, args ...any) *rowChecker {
	return &rowChecker{h: h, rows: rows, what: fmt.Sprintf(format, args...), want: want}
}

func (rc *rowChecker) row(got Row) {
	t := rc.h.t // no t.Helper: this runs per row
	if rc.n >= len(rc.want) {
		t.Fatalf("%s: more than the model's %d rows", rc.what, len(rc.want))
	}
	id := rc.want[rc.n]
	want := rc.rows[id].vals
	if len(got) != len(want) {
		t.Fatalf("%s: row %d has width %d, want %d", rc.what, rc.n, len(got), len(want))
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("%s: row %d (id %d) column %s = %#v, model says %#v",
				rc.what, rc.n, id, rc.h.cols[c].Name, got[c], want[c])
		}
	}
	rc.n++
}

func (rc *rowChecker) done() {
	rc.h.t.Helper()
	if rc.n != len(rc.want) {
		rc.h.t.Fatalf("%s: %d rows, model says %d", rc.what, rc.n, len(rc.want))
	}
}

// drain feeds every row of a cursor to the checker.
func (rc *rowChecker) drain(next func() (Row, bool), err func() error) {
	rc.h.t.Helper()
	for {
		row, ok := next()
		if !ok {
			break
		}
		rc.row(row)
	}
	if e := err(); e != nil {
		rc.h.t.Fatal(e)
	}
	rc.done()
}

// check asserts that every read path agrees with the model.
func (h *modelHarness) check() {
	h.t.Helper()
	live := h.live()
	if h.tbl.NumRows() != len(live) {
		h.t.Fatalf("NumRows = %d, model says %d", h.tbl.NumRows(), len(live))
	}
	if dead := len(h.rows) - len(live); h.tbl.Tombstones() != dead {
		h.t.Fatalf("Tombstones = %d, model says %d", h.tbl.Tombstones(), dead)
	}

	rc := h.expect(live, "Scan")
	h.tbl.Scan(func(id int, row Row) bool {
		if rc.n < len(live) && id != live[rc.n] {
			h.t.Fatalf("Scan row %d has physical ID %d, model says %d", rc.n, id, live[rc.n])
		}
		rc.row(row)
		return true
	})
	rc.done()

	batch := []int{1, 7, 64, 0, 5000}[h.rng.Intn(5)]
	cur := h.tbl.NewCursor(batch)
	h.expect(live, "Cursor(batch %d)", batch).drain(cur.Next, cur.Err)

	// A range cursor starting anywhere, word-aligned or not.
	if n := len(h.rows); n > 0 {
		lo := h.rng.Intn(n)
		hi := lo + h.rng.Intn(n-lo+1)
		var want []int
		for _, id := range live {
			if id >= lo && id < hi {
				want = append(want, id)
			}
		}
		cur := h.tbl.NewRangeCursor(lo, hi, batch)
		h.expect(want, "RangeCursor[%d,%d)", lo, hi).drain(cur.Next, cur.Err)
	}

	// Vectorized predicates, with and without a residual filter on top.
	preds := []Pred{h.randPred()}
	if h.rng.Intn(2) == 0 {
		preds = append(preds, h.randPred())
	}
	var survivors []int // rows the predicates keep, in scan order
	for _, id := range live {
		keep := true
		for _, p := range preds {
			keep = keep && predMatch(p, h.rows[id].vals[p.Col])
		}
		if keep {
			survivors = append(survivors, id)
		}
	}
	cur = h.tbl.NewCursor(batch)
	cur.SetPreds(preds)
	h.expect(survivors, "pred cursor %+v", preds).drain(cur.Next, cur.Err)

	h.checkBatches(live)

	// Point reads.
	for n := 0; n < 20 && len(h.rows) > 0; n++ {
		id := h.rng.Intn(len(h.rows))
		row, err := h.tbl.Get(id)
		if h.rows[id].dead {
			if err == nil {
				h.t.Fatalf("Get(%d) on a deleted row succeeded", id)
			}
			if err := h.tbl.Set(id, 0, Int(1)); err == nil {
				h.t.Fatalf("Set(%d) on a deleted row succeeded", id)
			}
			continue
		}
		if err != nil {
			h.t.Fatal(err)
		}
		h.expect([]int{id}, "Get(%d)", id).row(row)
	}

	// Index probes on k: the maintained index, the snapshot pinned with it
	// and the index cursor's rows all agree with the model.
	for n := 0; n < 5; n++ {
		key := Int(int64(h.rng.Intn(50)))
		var want []int
		for _, id := range live {
			if h.rows[id].vals[0].Equal(key) {
				want = append(want, id)
			}
		}
		snap, ids, err := h.tbl.PinIndexProbe("ik", IndexProbe{Point: &key})
		if err != nil {
			h.t.Fatal(err)
		}
		sort.Ints(ids)
		if fmt.Sprint(ids) != fmt.Sprint(want) {
			h.t.Fatalf("index probe k=%v → %v, model says %v", key, ids, want)
		}
		ic := NewIndexCursorAt(snap, ids, batch)
		h.expect(want, "IndexCursor k=%v", key).drain(ic.Next, func() error { return nil })
		snap.Release()
	}
	if pins := h.tbl.LiveSnapshotEpochs(); len(pins) != 0 {
		h.t.Fatalf("leaked snapshot pins: %v", pins)
	}
}

// checkBatches reads the table the way the executor does: NextBatch over
// a random subset of the columns (possibly none), predicates on columns
// inside and outside that subset, one cursor re-aimed morsel by morsel
// over a shared pin. Every batch must select at least one row, every
// selected cell — read from the vector and boxed through AppendRows —
// must equal the model, and the windows together must yield exactly the
// surviving rows. The index form gathers the same subset.
func (h *modelHarness) checkBatches(live []int) {
	var cols []int
	for c := range h.cols {
		if h.rng.Intn(3) == 0 {
			cols = append(cols, c)
		}
	}
	if cols == nil {
		cols = []int{} // nil would ask for every column
	}
	var preds []Pred
	for n := h.rng.Intn(3); n > 0; n-- {
		preds = append(preds, h.randPred())
	}
	keeps := func(id int) bool {
		for _, p := range preds {
			if !predMatch(p, h.rows[id].vals[p.Col]) {
				return false
			}
		}
		return true
	}
	// verify checks b's rows against the model rows want, in order.
	verify := func(what string, b *Batch, want []int) {
		if len(b.Sel) == 0 || len(b.Sel) != len(want) || len(b.Cols) != len(cols) {
			h.t.Fatalf("%s: batch of %d rows × %d columns, model says %d × %d", what, len(b.Sel), len(b.Cols), len(want), len(cols))
		}
		rows := b.AppendRows(nil)
		for n, i := range b.Sel {
			for k, c := range cols {
				model := h.rows[want[n]].vals[c]
				if got := b.Cols[k].Value(int(i)); got != model || rows[n][k] != model {
					h.t.Fatalf("%s: row %d (id %d) column %s = %#v / boxed %#v, model says %#v",
						what, n, want[n], h.cols[c].Name, got, rows[n][k], model)
				}
			}
		}
	}

	snap := h.tbl.Pin()
	defer snap.Release()
	cur := NewRangeCursorAt(snap, 0, 0, 0)
	cur.SetCols(cols)
	cur.SetPreds(preds)
	next := 0 // position in live
	for lo := 0; lo < len(h.rows); lo += ChunkRows {
		hi := min(lo+ChunkRows, len(h.rows))
		cur.Reset(lo, hi)
		for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
			var want []int
			for ; len(want) < len(b.Sel) && next < len(live) && live[next] < hi; next++ {
				if keeps(live[next]) {
					want = append(want, live[next])
				}
			}
			verify(fmt.Sprintf("NextBatch cols %v preds %+v window [%d,%d)", cols, preds, lo, hi), b, want)
		}
		if err := cur.Err(); err != nil {
			h.t.Fatal(err)
		}
		for ; next < len(live) && live[next] < hi; next++ {
			if keeps(live[next]) {
				h.t.Fatalf("NextBatch cols %v preds %+v: window [%d,%d) ended before row %d", cols, preds, lo, hi, live[next])
			}
		}
	}

	// The index form over a scattered ID list, two windows of it.
	var ids []int
	for _, id := range live {
		if h.rng.Intn(4) == 0 {
			ids = append(ids, id)
		}
	}
	h.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ic := NewIndexCursorAt(snap, ids, 100)
	ic.SetCols(cols)
	for _, w := range [][2]int{{0, len(ids) / 2}, {len(ids) / 2, len(ids)}} {
		ic.Reset(w[0], w[1])
		at := w[0]
		for b := ic.NextBatch(); b != nil; b = ic.NextBatch() {
			verify(fmt.Sprintf("index NextBatch cols %v", cols), b, ids[at:min(at+len(b.Sel), w[1])])
			at += len(b.Sel)
		}
		if at != w[1] {
			h.t.Fatalf("index NextBatch: window %v ended at %d", w, at)
		}
	}
}

// TestTableAgainstModel drives a Table with a random operation sequence
// mirrored against a plain-slice model: all four kinds with NULLs, more
// than two sealed chunks, schema expansion, bulk fills over tombstones,
// Set into never-filled chunks, bursts of writes into one chunk that
// patch it and fold it (snapshots pinned across them, a patched tail
// sealed), forced compaction and snapshot→restore, patched chunks
// included. After every structural operation (and every few others) Get,
// Scan, plain, range and predicate cursors and index probes must all
// agree with the model.
func TestTableAgainstModel(t *testing.T) {
	trials, ops := 2, 250
	if testing.Short() {
		trials, ops = 1, 100
	}
	for trial := 0; trial < trials; trial++ {
		h := &modelHarness{t: t, rng: rand.New(rand.NewSource(555 + int64(trial)))}
		h.cols = []Column{
			{Name: "k", Kind: KindInt},
			{Name: "f", Kind: KindFloat},
			{Name: "b", Kind: KindBool},
			{Name: "s", Kind: KindText},
		}
		schema, err := NewSchema(h.cols...)
		if err != nil {
			t.Fatal(err)
		}
		h.tbl = NewTable("m", schema)
		h.attachIndex()
		h.insert(2*ChunkRows + 300 + h.rng.Intn(200))
		h.check()
		// Tombstones straddling both chunk boundaries, the second one also
		// the boundary between the sealed chunks and the tail; and a run
		// long enough to empty whole selection words.
		var straddle []int
		for id := ChunkRows - 70; id < ChunkRows+5; id++ {
			straddle = append(straddle, id, id+ChunkRows)
		}
		for _, id := range straddle {
			h.rows[id].dead = true
		}
		if got := h.tbl.Delete(straddle); got != len(straddle) {
			t.Fatalf("Delete removed %d of %d", got, len(straddle))
		}
		h.check()
		h.burst(false, false)
		h.check()
		h.restore()
		h.check()

		for op := 0; op < ops; op++ {
			structural := true
			switch r := h.rng.Intn(100); {
			case r < 30:
				h.insert(1 + h.rng.Intn(40))
				structural = false
			case r < 36:
				h.burst(h.rng.Intn(2) == 0, false)
				if r := h.rng.Intn(3); r < 2 {
					h.check()
					if r == 0 {
						h.compact()
					} else {
						h.restore()
					}
				}
			case r < 60:
				if live := h.live(); len(live) > 0 {
					col := h.rng.Intn(len(h.cols))
					h.set(live[h.rng.Intn(len(live))], col, h.randValue(h.cols[col].Kind, 0.2))
				}
				structural = false
			case r < 75:
				h.deleteSome()
				structural = false
			case r < 81:
				h.addColumn()
			case r < 89:
				h.fillColumn()
			case r < 95:
				h.compact()
			default:
				h.restore()
			}
			if structural || op%15 == 0 {
				h.check()
			}
		}
		h.burst(true, true)
		h.check()
		h.compact()
		h.check()
		if h.patched == 0 {
			t.Fatal("no snapshot pinned mid-burst held a patched chunk")
		}
	}
}
