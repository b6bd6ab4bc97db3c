package storage

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ColumnOrigin records how a column came to exist. Query-driven schema
// expansion (the paper's contribution) creates ColumnExpanded columns; the
// provenance matters for quality accounting and for the REPL's \d output.
type ColumnOrigin uint8

const (
	// ColumnDeclared columns come from CREATE TABLE.
	ColumnDeclared ColumnOrigin = iota
	// ColumnExpanded columns were added at query time by a schema
	// expansion strategy.
	ColumnExpanded
)

func (o ColumnOrigin) String() string {
	if o == ColumnExpanded {
		return "expanded"
	}
	return "declared"
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind Kind
	// Perceptual marks attributes that rely on human judgment (genre,
	// humor, …) as opposed to factual attributes (year, director). Only
	// perceptual attributes can be filled from a perceptual space; factual
	// ones must be crowd-sourced individually (paper §2).
	Perceptual bool
	Origin     ColumnOrigin
}

func normName(name string) string { return strings.ToLower(name) }

// Row is a tuple; the i-th entry corresponds to schema column i.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory MVCC column store.
//
// Data lives in an immutable *version reached through one atomic
// pointer (see version.go). Readers — streaming cursors, parallel
// morsels, point Gets — load the pointer and proceed with zero locks,
// so long scans never contend with the bulk crowd-fill landing path.
// Writers serialize on mu, build the next version copy-on-write, and
// publish it together with the matching index updates under idxMu, so
// an index probe and the snapshot it resolves against are always
// mutually consistent.
//
// Row IDs are physical and stable for the table's lifetime: Delete
// tombstones rows instead of compacting, which is what makes open
// cursors immune to concurrent deletes.
//
// When a Journal is attached (via Catalog.SetJournal), every mutation
// emits a typed Op record before it is applied, under mu — the
// write-ahead discipline the durability layer replays from.
type Table struct {
	name string

	mu       sync.Mutex // serializes writers; readers never take it
	snap     atomic.Pointer[version]
	journal  Journal
	observer Observer
	// keyCols, keyNames and images are notifyRows' buffers, reused under
	// mu: the watched columns' positions and names, and their cells;
	// written is notify's.
	keyCols  []int
	keyNames []string
	images   []Value
	written  [1]string

	// idxMu couples snapshot publication with index maintenance: every
	// commit stores the new version and patches the indexes inside
	// idxMu.Lock, and index-cursor creation reads both under idxMu.RLock.
	// Plain table scans never touch it.
	idxMu   sync.RWMutex
	indexes map[string]ColumnIndex

	// pinMu guards the snapshot-pin registry (see version.go) and the
	// compaction admission state below (see compact.go).
	pinMu sync.Mutex
	pins  map[uint64]int

	// compacting is set for the duration of a compaction's build+publish;
	// write fences wait on it via fenceCond. fences counts callers that
	// hold physical row IDs across a scan→mutate window — compaction
	// admission is refused while any are live.
	compacting bool
	fences     int
	fenceCond  *sync.Cond

	// Compaction counters, readable lock-free via CompactionStats.
	compactRuns      atomic.Int64
	compactRows      atomic.Int64
	compactChunks    atomic.Int64
	compactBytes     atomic.Int64
	compactLastEpoch atomic.Uint64
}

// logOp emits op to the attached journal. Caller holds t.mu; validation
// must already have passed, so applying after a successful log cannot
// fail and the log never diverges from memory.
func (t *Table) logOp(op Op) error {
	if t.journal == nil {
		return nil
	}
	return t.journal.LogOp(op)
}

// notify reports an applied mutation that carries no row images — a
// compaction, an added or a filled column — to the attached observer,
// with the column it wrote ("" for none). Caller holds t.mu; the mutation
// has already been published.
func (t *Table) notify(kind OpKind, col string) {
	if t.observer == nil {
		return
	}
	w := Write{Kind: kind, Table: t.name}
	if col != "" {
		t.written[0] = col
		w.Cols = t.written[:]
	}
	t.observer.Observe(w)
}

// notifyRows reports a row write to the attached observer: the rows
// removed from v and those added in nv (nil when none are), written
// through cols (nil for whole rows). The cells of the watched columns in
// their images are gathered only when the observer watches some, into
// buffers the table reuses. Caller holds t.mu; nv has been published.
func (t *Table) notifyRows(kind OpKind, cols []string, v *version, removed []int, nv *version, added []int) {
	if t.observer == nil {
		return
	}
	w := Write{Kind: kind, Table: t.name, Cols: cols}
	if watched := t.observer.Watched(t.name); len(watched) > 0 {
		t.keyCols, t.keyNames = t.keyCols[:0], t.keyNames[:0]
		for _, name := range watched {
			if col, ok := v.schema.Lookup(name); ok {
				t.keyCols = append(t.keyCols, col)
				t.keyNames = append(t.keyNames, name)
			}
		}
		t.images = t.appendCells(t.images[:0], v, removed)
		n := len(t.images)
		t.images = t.appendCells(t.images, nv, added)
		w.Keys, w.Old, w.New = t.keyNames, t.images[:n:n], t.images[n:]
	}
	t.observer.Observe(w)
	if cap(t.images) > maxKeptImages {
		t.images = nil // a bulk write's cells are not kept for the next
	}
}

// maxKeptImages bounds the cells notifyRows keeps for reuse.
const maxKeptImages = 4096

// appendCells appends the watched columns' cells of v's rows to dst.
func (t *Table) appendCells(dst []Value, v *version, rows []int) []Value {
	for _, row := range rows {
		for _, col := range t.keyCols {
			dst = append(dst, v.value(row, col))
		}
	}
	return dst
}

// publish installs nv as the current version, holding idxMu so index
// updates ride in the same critical section when the caller needs them.
// apply may be nil.
func (t *Table) publish(nv *version, apply func()) {
	t.idxMu.Lock()
	t.snap.Store(nv)
	if apply != nil {
		apply()
	}
	t.idxMu.Unlock()
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{name: name}
	t.snap.Store(newVersion(schema))
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's current schema. A published Schema is
// immutable — AddColumn installs an extended one — so the result is a
// stable snapshot that later expansions never widen.
func (t *Table) Schema() *Schema { return t.snap.Load().schema }

// NumRows returns the live row count (tombstoned rows excluded).
func (t *Table) NumRows() int {
	return t.snap.Load().live()
}

// NumCols returns the column count.
func (t *Table) NumCols() int {
	return t.snap.Load().schema.Len()
}

// Insert appends a row after validating arity and coercing each value to
// its column kind.
func (t *Table) Insert(vals ...Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	clk := startPhaseClock()
	v := t.snap.Load()
	if len(vals) != v.schema.Len() {
		return fmt.Errorf("storage: table %s expects %d values, got %d", t.name, v.schema.Len(), len(vals))
	}
	row := make(Row, len(vals))
	for i, val := range vals {
		cv, err := val.Coerce(v.schema.Column(i).Kind)
		if err != nil {
			return fmt.Errorf("storage: column %s: %w", v.schema.Column(i).Name, err)
		}
		row[i] = cv
	}
	clk.lap(phaseApply)
	if err := t.logOp(Op{Kind: OpInsert, Table: t.name, Values: row}); err != nil {
		return err
	}
	clk.lap(phaseWAL)
	nv := v.clone()
	nv.ownAll()
	tailLen := v.nrows - v.sealed
	for i := range row {
		cd := nv.col(i)
		cd.tail = appendTail(v.schema.cols[i].Kind, cd.tail, tailLen, row[i])
	}
	nv.nrows++
	if nv.nrows-nv.sealed == ChunkRows {
		// Seal: the full tails become immutable chunks, their null flags
		// packed. In-place append into a shared chunks backing array is
		// safe — published versions only read their own (shorter) length.
		for i := range row {
			cd := nv.col(i)
			cd.chunks = append(cd.chunks, sealTail(cd.tail))
			cd.tail = nil
		}
		nv.sealed += ChunkRows
		mChunkSeals.Inc()
	}
	rowID := v.nrows
	clk.lap(phaseApply)
	t.publish(nv, func() {
		for _, idx := range t.indexes {
			if key, ok := indexKeyOf(idx, nv, rowID); ok {
				idx.Add(rowID, key)
			}
		}
	})
	clk.lap(phaseIndex)
	t.notifyRows(OpInsert, nil, v, nil, nv, []int{rowID})
	clk.observe(&mInsertPhases)
	return nil
}

// Get returns a copy of row i (a physical row ID). Tombstoned rows are
// an error.
func (t *Table) Get(i int) (Row, error) {
	v := t.snap.Load()
	if i < 0 || i >= v.nrows {
		return nil, fmt.Errorf("storage: row %d out of range [0,%d)", i, v.nrows)
	}
	if v.isDead(i) {
		return nil, fmt.Errorf("storage: row %d is deleted", i)
	}
	row := make(Row, v.schema.Len())
	for c := range row {
		row[c] = v.value(i, c)
	}
	return row, nil
}

// Set overwrites the value at (row, col) after coercion: SetBatch for
// one cell, except that a row out of range or deleted is an error.
func (t *Table) Set(row, col int, val Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.snap.Load()
	if row < 0 || row >= v.nrows {
		return fmt.Errorf("storage: row %d out of range [0,%d)", row, v.nrows)
	}
	if v.isDead(row) {
		return fmt.Errorf("storage: row %d is deleted", row)
	}
	_, err := t.setLocked(v, []int{row}, []int{col}, [][]Value{{val}})
	return err
}

// SetBatch writes vals[k][j] to column cols[k] of physical row rows[j] —
// the whole effect of an UPDATE — as one commit, and returns the number
// of rows written. The rows are distinct and may come in any order; a row
// that is out of range or tombstoned (deleted since the caller's scan
// found it) is skipped. Every cell is coerced to its column's kind, in
// place in vals, before anything is journaled or written, so a statement
// whose last row cannot be coerced changes nothing. The journal then
// receives one OpSet per column, in cols order — the rows written,
// ascending whatever order they arrived in, and their new cells as one
// typed column payload; the write patches each touched column chunk (or
// tail) once — its payload is shared, only the chunk struct and a patch of
// at most patchCells cells are new, and a write that would pass that bound
// folds the chunk into a fresh one (see chunk) — and publishes one
// version; and each index on a written column is maintained in one pass. Should the journal refuse a record the error
// is returned with nothing applied: the records before it are a logged
// prefix of a statement that was never acknowledged, and the journal has
// latched its failure.
func (t *Table) SetBatch(rows, cols []int, vals [][]Value) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.setLocked(t.snap.Load(), rows, cols, vals)
}

// setLocked is SetBatch against the current version v; the caller holds
// t.mu.
func (t *Table) setLocked(v *version, rows, cols []int, vals [][]Value) (int, error) {
	clk := startPhaseClock()
	names := make([]string, len(cols))
	for k, col := range cols {
		if col < 0 || col >= v.schema.Len() {
			return 0, fmt.Errorf("storage: column %d out of range [0,%d)", col, v.schema.Len())
		}
		def := v.schema.Column(col)
		names[k] = def.Name
		for j, val := range vals[k] {
			cv, err := val.Coerce(def.Kind)
			if err != nil {
				return 0, err
			}
			vals[k][j] = cv
		}
	}
	// order lists the positions of the rows still there, by ascending row.
	order := make([]int, 0, len(rows))
	sorted := true
	for j, row := range rows {
		if row < 0 || row >= v.nrows || v.isDead(row) {
			continue
		}
		sorted = sorted && (len(order) == 0 || rows[order[len(order)-1]] < row)
		order = append(order, j)
	}
	if len(order) == 0 {
		return 0, nil
	}
	if !sorted {
		sort.Slice(order, func(a, b int) bool { return rows[order[a]] < rows[order[b]] })
	}
	written := make([]int, len(order))
	for n, j := range order {
		written[n] = rows[j]
	}
	clk.lap(phaseApply)
	if t.journal != nil {
		for k, col := range cols {
			kind := v.schema.Column(col).Kind
			vec, c := newFillVector(kind, len(order))
			for n, j := range order {
				if val := vals[k][j]; val.IsNull() {
					vec.MarkNull(n)
				} else {
					c.put(n, val)
				}
			}
			if err := t.logOp(Op{Kind: OpSet, Table: t.name, Col: col, Rows: written, Fill: EncodeColumn(vec, len(order))}); err != nil {
				return 0, err
			}
		}
	}
	clk.lap(phaseWAL)
	nv := v.clone()
	for k, col := range cols {
		cd := *nv.col(col)
		kind := v.schema.Column(col).Kind
		ownChunks := false // cd.chunks is copied when the first sealed chunk is replaced
		for lo := 0; lo < len(order); {
			ci := rows[order[lo]] / ChunkRows
			hi := lo + 1
			for hi < len(order) && rows[order[hi]]/ChunkRows == ci {
				hi++
			}
			if base := ci * ChunkRows; base >= v.sealed {
				cd.tail = withCells(kind, cd.tail, v.nrows-v.sealed, base, rows, vals[k], order[lo:hi], false)
			} else {
				if !ownChunks {
					cd.chunks, ownChunks = append([]*chunk(nil), cd.chunks...), true
				}
				cd.chunks[ci] = withCells(kind, cd.chunks[ci], ChunkRows, base, rows, vals[k], order[lo:hi], true)
			}
			lo = hi
		}
		nv.setCol(v, col, cd)
	}
	clk.lap(phaseApply)
	t.publish(nv, func() {
		for _, idx := range t.indexesOn(names...) {
			idx.RemoveRows(written, func(row int) ([]Value, bool) { return indexKeyOf(idx, v, row) })
			for _, row := range written {
				if key, ok := indexKeyOf(idx, nv, row); ok {
					idx.Add(row, key)
				}
			}
		}
	})
	clk.lap(phaseIndex)
	t.notifyRows(OpSet, names, v, written, nv, written)
	clk.observe(&mUpdatePhases)
	return len(order), nil
}

// Value returns the value at (row, col); row is a physical row ID.
func (t *Table) Value(row, col int) (Value, error) {
	v := t.snap.Load()
	if row < 0 || row >= v.nrows {
		return Null(), fmt.Errorf("storage: row %d out of range [0,%d)", row, v.nrows)
	}
	if col < 0 || col >= v.schema.Len() {
		return Null(), fmt.Errorf("storage: column %d out of range [0,%d)", col, v.schema.Len())
	}
	if v.isDead(row) {
		return Null(), fmt.Errorf("storage: row %d is deleted", row)
	}
	return v.value(row, col), nil
}

// AddColumn appends a new column (schema expansion). Every existing row
// receives NULL for it — represented as nil chunks, so the column costs
// nothing until filled. The new schema extends the old one in place and
// the new version copies only its last header page, so the cost does not
// grow with the width of the table. Returns the new column's index.
func (t *Table) AddColumn(c Column) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.snap.Load()
	// Validate before logging so the journal never records a rejected op.
	if err := v.schema.validate(c); err != nil {
		return 0, err
	}
	if err := t.logOp(Op{Kind: OpAddColumn, Table: t.name, Column: &c}); err != nil {
		return 0, err
	}
	nv := v.clone()
	nv.schema = v.schema.with(c)
	nv.addCol(colData{chunks: make([]*chunk, v.sealed/ChunkRows)})
	t.publish(nv, nil)
	t.notify(OpAddColumn, c.Name)
	return nv.schema.Len() - 1, nil
}

// FillColumnFrom replaces the named column with the cells fill computes —
// the one bulk write path: expansion strategies land their labels through
// it, FillColumn boxes into it, and replay decodes a fill_column record
// into it. fill runs under the table's write lock and is handed the very
// version the cells are applied to, so what it reads there (through
// NewRangeCursorAt and SetCols — its item ids, say) cannot go stale
// before the column is published; it must not call back into the table's
// mutators. It returns a typed vector of the column's kind, or of
// KindNull for an all-NULL column, holding one cell per live row of at in
// scan order; the vector's memory becomes the column's. The column is
// laid out in fresh chunks in one commit, tombstoned rows NULL, and
// snapshots pinned before the fill keep reading the old chunks.
func (t *Table) FillColumnFrom(name string, fill func(at *Snap) (*Vector, error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.snap.Load()
	col, ok := v.schema.Lookup(name)
	if !ok {
		return fmt.Errorf("storage: table %s has no column %q", t.name, name)
	}
	vec, err := fill(&Snap{t: t, v: v, released: true}) // a view, not a pin: nothing to release
	if err != nil {
		return err
	}
	if err := conformFill(vec, v.schema.Column(col).Kind, v.live()); err != nil {
		return fmt.Errorf("storage: FillColumn %s: %w", name, err)
	}
	if t.journal != nil {
		if err := t.logOp(Op{Kind: OpFillColumn, Table: t.name, Name: name, Fill: EncodeColumn(vec, v.live())}); err != nil {
			return err
		}
	}
	nv := v.clone()
	nv.setCol(v, col, v.layOut(vec))
	t.publish(nv, func() {
		// Bulk rebuild beats nrows incremental Replace calls — this is
		// the crowd-fill landing path for expanded columns.
		for _, idx := range t.indexesOn(name) {
			t.rebuildIndex(idx, nv)
		}
	})
	t.notify(OpFillColumn, name)
	return nil
}

// FillColumn assigns vals (one per live row, in scan order) to the named
// column, each coerced to the column's kind: the boxing adapter over
// FillColumnFrom, as Cursor.Next is over NextBatch.
func (t *Table) FillColumn(name string, vals []Value) error {
	return t.FillColumnFrom(name, func(at *Snap) (*Vector, error) {
		col, _ := at.v.schema.Lookup(name)
		kind := at.v.schema.Column(col).Kind
		vec, c := newFillVector(kind, len(vals))
		for i, val := range vals {
			cv, err := val.Coerce(kind)
			if err != nil {
				return nil, fmt.Errorf("storage: FillColumn %s row %d: %w", name, i, err)
			}
			if cv.IsNull() {
				vec.MarkNull(i)
			} else {
				c.put(i, cv)
			}
		}
		return vec, nil
	})
}

// newFillVector returns a typed vector of n zero cells of the given kind
// and the chunk view through which boxed values are put into it.
func newFillVector(kind Kind, n int) (*Vector, *chunk) {
	c := newChunk(kind, n)
	vec := &Vector{Kind: kind, Ints: c.ints, Floats: c.floats, Bools: c.bools, Strs: c.strs}
	if kind == KindNull {
		vec.nullCells = n
	}
	return vec, c
}

// conformFill checks that vec can become a column of the given kind over
// n live rows and zeroes the payload under its NULL cells — the chunk
// invariant the typed kernels and the column codec both assume.
func conformFill(vec *Vector, kind Kind, n int) error {
	if vec.Vals != nil {
		return fmt.Errorf("boxed vector for a %s column", kind)
	}
	if vec.Kind != kind && vec.Kind != KindNull {
		return fmt.Errorf("%s vector for a %s column", vec.Kind, kind)
	}
	if vec.Len() != n {
		return fmt.Errorf("%d values for %d rows", vec.Len(), n)
	}
	if vec.Kind == KindNull {
		return nil
	}
	cells := vec.payload()
	for wi, w := range vec.Nulls {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i >= n {
				return fmt.Errorf("null bit %d beyond %d rows", i, n)
			}
			cells.put(i, Value{})
		}
	}
	return nil
}

// ScanFunc is invoked once per live row during Scan with the row's
// physical ID. Returning false stops the scan early. The row must not be
// mutated or retained — the buffer is reused between calls.
type ScanFunc func(rowIdx int, row Row) bool

// Scan iterates over all live rows of the current snapshot, lock-free,
// boxing one row at a time: the row-at-a-time view of a table for tools,
// examples and tests. It reads through an unpinned cursor, so it hands
// out physical IDs without taking part in compaction admission (a caller
// that keeps them holds a write fence).
func (t *Table) Scan(f ScanFunc) {
	v := t.snap.Load()
	c := newCursorOn(&Snap{t: t, v: v}, 0, -1, 0)
	row := make(Row, v.schema.Len())
	for b := c.NextBatch(); b != nil; b = c.NextBatch() {
		for _, i := range b.Sel {
			for k := range b.Cols {
				row[k] = b.Cols[k].Value(int(i))
			}
			if !f(b.RowID(int(i)), row) {
				return
			}
		}
	}
}

// Delete tombstones the rows whose physical IDs appear in idx, in any
// order. IDs outside the valid range, already deleted or repeated are
// ignored. Each index drops the doomed rows' entries in one pass
// (RemoveRows); no data moves, so open snapshots and cursors are
// unaffected. Returns the newly-dead count.
func (t *Table) Delete(idx []int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(idx) == 0 {
		return 0
	}
	clk := startPhaseClock()
	v := t.snap.Load()
	killed := make([]int, 0, len(idx))
	for _, i := range idx {
		if i >= 0 && i < v.nrows && !v.isDead(i) {
			killed = append(killed, i)
		}
	}
	if !sort.IntsAreSorted(killed) {
		sort.Ints(killed)
	}
	killed = slices.Compact(killed)
	if len(killed) == 0 {
		return 0
	}
	// Delete's signature cannot surface a journal failure; the durability
	// layer latches it (wal.Err) and reports at the next Snapshot/Close.
	clk.lap(phaseApply)
	_ = t.logOp(Op{Kind: OpTombstone, Table: t.name, Rows: killed})
	clk.lap(phaseWAL)
	nv := v.clone()
	nv.dead = v.withDead(killed)
	clk.lap(phaseApply)
	t.publish(nv, func() {
		for _, idx := range t.indexes {
			idx.RemoveRows(killed, func(row int) ([]Value, bool) { return indexKeyOf(idx, v, row) })
		}
	})
	clk.lap(phaseIndex)
	t.notifyRows(OpTombstone, nil, v, killed, nil, nil)
	mTombstones.Add(int64(len(killed)))
	clk.observe(&mDeletePhases)
	return len(killed)
}

// Catalog maps table names to tables, case-insensitively.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	journal  Journal
	observer Observer
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new table. Duplicate names are an error.
func (c *Catalog) Create(name string, schema *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := normName(name)
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	if c.journal != nil {
		if err := c.journal.LogOp(Op{Kind: OpCreateTable, Table: name, Columns: schema.Columns()}); err != nil {
			return nil, err
		}
	}
	t := NewTable(name, schema)
	t.journal = c.journal
	t.observer = c.observer
	c.tables[key] = t
	if c.observer != nil {
		c.observer.Observe(Write{Kind: OpCreateTable, Table: name})
	}
	return t, nil
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[normName(name)]
	return t, ok
}

// Drop removes the named table, reporting whether it existed.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := normName(name)
	_, ok := c.tables[key]
	if ok && c.journal != nil {
		// Drop's signature cannot surface a journal failure; see Delete.
		_ = c.journal.LogOp(Op{Kind: OpDropTable, Table: name})
	}
	delete(c.tables, key)
	if ok && c.observer != nil {
		c.observer.Observe(Write{Kind: OpDropTable, Table: name})
	}
	return ok
}

// Names returns the sorted list of table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}
