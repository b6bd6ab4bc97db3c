package storage

import (
	"encoding/json"
	"fmt"
)

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

// Op is one typed storage mutation — the unit a durability layer logs and
// replays. Every field is wire-serializable; which fields are meaningful
// depends on Kind:
//
//	create_table  Table, Columns
//	drop_table    Table
//	insert        Table, Values (one full row, post-coercion)
//	set           Table, Row, Col, Values[0]
//	add_column    Table, Column
//	fill_column   Table, Name, Fill (the typed column payload of colcodec.go:
//	              one cell per live row, in scan order)
//	tombstone     Table, Rows (physical row IDs)
//	compact       Table, Rows (removed physical row IDs, ascending)
type Op struct {
	Kind    OpKind   `json:"kind"`
	Table   string   `json:"table"`
	Columns []Column `json:"columns,omitempty"`
	Column  *Column  `json:"column,omitempty"`
	Name    string   `json:"name,omitempty"`
	Row     int      `json:"row,omitempty"`
	Col     int      `json:"col,omitempty"`
	Rows    []int    `json:"rows,omitempty"`
	Values  []Value  `json:"values,omitempty"`
	Fill    []byte   `json:"fill,omitempty"`
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

// Observer is notified after a mutation has been successfully applied —
// journaled, validated, and visible in memory. It runs under the mutated
// table's write lock (DDL under the catalog lock), so implementations
// must be fast and must never call back into the table or catalog. The
// result-cache invalidation hook is the motivating consumer: it only
// bumps a per-table sequence number.
//
// Unlike Journal, an observer cannot veto or fail a mutation; it sees
// the op strictly after the fact.
type Observer func(Op)

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

// valueJSON is Value's wire form. The kind tag disambiguates; absent
// payload fields decode to the kind's zero value, which round-trips
// correctly (e.g. Int(0) → {"k":2} → Int(0)).
type valueJSON struct {
	K Kind    `json:"k"`
	B bool    `json:"b,omitempty"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
}

// MarshalJSON encodes the value in a kind-tagged wire form that preserves
// the int/float distinction JSON numbers would lose.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(valueJSON{K: v.kind, B: v.b, I: v.i, F: v.f, S: v.s})
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var w valueJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.K {
	case KindNull:
		*v = Null()
	case KindBool:
		*v = Bool(w.B)
	case KindInt:
		*v = Int(w.I)
	case KindFloat:
		*v = Float(w.F)
	case KindText:
		*v = Text(w.S)
	default:
		return fmt.Errorf("storage: unknown value kind %d", w.K)
	}
	return nil
}
