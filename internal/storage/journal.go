package storage

import "fmt"

// OpKind enumerates the typed mutation records a table or catalog emits.
type OpKind string

const (
	OpCreateTable OpKind = "create_table"
	OpDropTable   OpKind = "drop_table"
	OpInsert      OpKind = "insert"
	OpSet         OpKind = "set"
	OpAddColumn   OpKind = "add_column"
	OpFillColumn  OpKind = "fill_column"
	// OpTombstone is the MVCC delete: Rows lists the physical row IDs
	// tombstoned. Row IDs are stable, so replay order is insensitive to
	// interleaved mutations.
	OpTombstone OpKind = "tombstone"
	// OpCompact records one compaction: Rows lists the tombstoned
	// physical row IDs the compactor removed, in ascending order. Replay
	// removes exactly those rows and shifts survivors down, so physical
	// IDs in records logged after the compaction resolve identically on
	// recovery. The record is logged only after the pin/fence admission
	// gate has passed — a logged OpCompact always applied.
	OpCompact OpKind = "compact"
)

// Op is one typed storage mutation — the unit a durability layer logs
// (in the binary form of opcodec.go) and replays. Which fields are
// meaningful depends on Kind:
//
//	create_table  Table, Columns
//	drop_table    Table
//	insert        Table, Values (one full row, post-coercion)
//	set           Table, Col, Rows, Fill: one statement's new cells of one
//	              column — Fill is the typed column payload of colcodec.go,
//	              cell k for physical row Rows[k], Rows ascending
//	add_column    Table, Column
//	fill_column   Table, Name, Fill (one cell per live row, in scan order)
//	tombstone     Table, Rows (physical row IDs, ascending)
//	compact       Table, Rows (removed physical row IDs, ascending)
type Op struct {
	Kind    OpKind
	Table   string
	Columns []Column
	Column  *Column
	Name    string
	Col     int
	Rows    []int
	Values  []Value
	Fill    []byte
}

// Journal receives every mutation applied to a catalog's tables, in apply
// order (records for one table are emitted under that table's lock; DDL
// under the catalog lock). Implementations must be safe for concurrent
// use. A LogOp error is propagated to the mutating caller where the
// method signature allows it (Insert, Set, AddColumn, FillColumn, Create);
// Delete and Drop cannot surface it — durability layers latch such
// failures internally (see wal.Err).
type Journal interface {
	LogOp(op Op) error
}

// SetJournal attaches j to the catalog and every current table; tables
// created afterwards inherit it. Pass nil to detach (used during replay,
// when mutations are re-applied and must not be re-logged).
func (c *Catalog) SetJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
	for _, t := range c.tables {
		t.mu.Lock()
		t.journal = j
		t.mu.Unlock()
	}
}

// Apply applies one typed mutation — the replay entry point. The catalog
// must have no journal attached (replay must not re-log).
func (c *Catalog) Apply(op Op) error {
	switch op.Kind {
	case OpCreateTable:
		schema, err := NewSchema(op.Columns...)
		if err != nil {
			return err
		}
		_, err = c.Create(op.Table, schema)
		return err
	case OpDropTable:
		c.Drop(op.Table)
		return nil
	}
	tbl, ok := c.Get(op.Table)
	if !ok {
		return fmt.Errorf("storage: op %s targets unknown table %q", op.Kind, op.Table)
	}
	switch op.Kind {
	case OpInsert:
		return tbl.Insert(op.Values...)
	case OpSet:
		vec, err := DecodeColumn(op.Fill)
		if err != nil {
			return err
		}
		if vec.Len() != len(op.Rows) {
			return fmt.Errorf("storage: set op carries %d cells for %d rows", vec.Len(), len(op.Rows))
		}
		vals := make([]Value, len(op.Rows))
		for i := range vals {
			vals[i] = vec.Value(i)
		}
		_, err = tbl.SetBatch(op.Rows, []int{op.Col}, [][]Value{vals})
		return err
	case OpAddColumn:
		if op.Column == nil {
			return fmt.Errorf("storage: add_column op without column")
		}
		_, err := tbl.AddColumn(*op.Column)
		return err
	case OpFillColumn:
		return tbl.FillColumnFrom(op.Name, func(*Snap) (*Vector, error) { return DecodeColumn(op.Fill) })
	case OpTombstone:
		tbl.Delete(op.Rows)
		return nil
	case OpCompact:
		tbl.ReplayCompact(op.Rows)
		return nil
	default:
		return fmt.Errorf("storage: unknown op kind %q", op.Kind)
	}
}

// Observer is notified after a mutation has been applied — journaled,
// validated, and visible in memory. Both methods run under the mutated
// table's write lock (DDL under the catalog lock), so implementations
// must be fast and must never call back into the table or catalog. The
// result cache is the consumer: a write kills the cached answers it can
// change, and only those (see Write).
//
// Unlike Journal, an observer cannot veto or fail a mutation; it sees
// the write strictly after it is published.
type Observer interface {
	// Watched names the columns of table whose cells the observer wants
	// in a row write's images (Write.Keys): nil for none, and then the
	// write gathers nothing. It is asked after the write is published, so
	// whoever starts watching later reads the written version. The slice
	// is the observer's, and is never written.
	Watched(table string) []string
	// Observe reports one applied mutation. Its slices are valid only
	// during the call.
	Observe(w Write)
}

// Write is one applied mutation as an Observer sees it.
type Write struct {
	Kind  OpKind
	Table string
	// Cols names the columns written in rows that stay: an UPDATE's SET
	// columns, or the filled or added column. Nil for the other kinds.
	Cols []string
	// Keys are the watched columns the table has, and Old and New hold
	// their cells in every row image a row write removes and adds: a
	// deleted row, an UPDATE's row before and after, an inserted row.
	// Image i's cell of Keys[j] is at i*len(Keys)+j. Only insert, set and
	// tombstone report images; the other kinds change rows, columns or
	// the table in ways no image describes.
	Keys     []string
	Old, New []Value
}

// ObserverFunc is an Observer that watches no columns.
type ObserverFunc func(Write)

// Watched returns nil.
func (ObserverFunc) Watched(string) []string { return nil }

// Observe calls f.
func (f ObserverFunc) Observe(w Write) { f(w) }

// SetObserver attaches f to the catalog and every current table; tables
// created afterwards inherit it. Pass nil to detach. Like SetJournal it
// is wired after replay, so recovered mutations are not re-observed.
func (c *Catalog) SetObserver(f Observer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observer = f
	for _, t := range c.tables {
		t.mu.Lock()
		t.observer = f
		t.mu.Unlock()
	}
}
