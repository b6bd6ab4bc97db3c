package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is the storage-engine contract under the journal: everything
// internal/core needs from an engine, and nothing more. The durability
// layer logs typed Ops above this seam and replays them through
// ApplyOp; snapshots flow through Capture/Restore; the compactor and
// index machinery are reached through per-table hooks. Swapping the
// in-memory chunk store for an LSM/KV engine means implementing this
// interface — core, the SQL engine, and the HTTP surface don't change.
//
// The serving representation is always a *Catalog of MVCC tables (the
// SQL engine executes against it directly); a Backend owns how that
// state is (re)built, persisted out-of-line, and compacted.
type Backend interface {
	// Name is the backend's registry key ("mem", "file", ...).
	Name() string
	// Open prepares the backend. dir is the database's data directory
	// (empty for a purely in-memory database); backends with out-of-line
	// state root it here.
	Open(dir string) error
	// Catalog exposes the serving tables. The engine binds to it once at
	// database open.
	Catalog() *Catalog
	// ApplyOp applies one typed mutation — the WAL replay entry point.
	// The catalog has no journal attached during replay, so nothing is
	// re-logged.
	ApplyOp(op Op) error
	// Capture serializes every table's durable state for a snapshot.
	// Backends may externalize row payloads (TableState.External) and
	// return only a reference.
	Capture() ([]TableState, error)
	// Restore rebuilds tables from captured state (inline rows or
	// external references). Called once, before replay, on an empty
	// catalog.
	Restore(states []TableState) error
	// Compact reclaims tombstoned rows of the named table under the
	// given policy (see Table.Compact for the admission gates).
	Compact(table string, policy CompactionPolicy) (CompactionResult, error)
	// RebuildIndexes bulk-rebuilds the named table's secondary indexes
	// from its current snapshot.
	RebuildIndexes(table string) error
	// Close releases backend resources. The WAL is owned above the seam
	// and closed separately.
	Close() error
}

// TableState is one table's full contents inside a snapshot. Columns
// keep their Origin, so expanded columns recover as expanded. Rows
// carries every PHYSICAL row — tombstoned ones included — and Deleted
// lists the tombstoned IDs: restore re-inserts everything then
// re-deletes, so physical row IDs (which WAL records replayed on top
// reference) survive the round trip. Legacy snapshots have no Deleted
// field and decode as all-live.
//
// A backend that stores row payloads out-of-line sets External and
// File; Rows is then empty and Restore resolves the reference.
type TableState struct {
	Name     string   `json:"name"`
	Columns  []Column `json:"columns"`
	Rows     []Row    `json:"rows,omitempty"`
	Deleted  []int    `json:"deleted,omitempty"`
	External bool     `json:"external,omitempty"`
	File     string   `json:"file,omitempty"`
}

// --- registry ---

var (
	backendsMu sync.RWMutex
	backends   = map[string]func() Backend{}
)

// RegisterBackend installs a backend factory under name. Typically
// called from an implementation package's init; re-registering a name
// panics (it is a wiring bug, not a runtime condition).
func RegisterBackend(name string, factory func() Backend) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("storage: backend %q registered twice", name))
	}
	backends[name] = factory
}

// NewBackend instantiates the named backend. The caller still Opens it.
func NewBackend(name string) (Backend, error) {
	backendsMu.RLock()
	factory, ok := backends[name]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown backend %q (registered: %v)", name, BackendNames())
	}
	return factory(), nil
}

// BackendNames returns the sorted list of registered backend names.
func BackendNames() []string {
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// --- shared op application ---

// ApplyCatalogOp applies one typed mutation to a catalog — the replay
// switch every catalog-backed Backend shares. The catalog must have no
// journal attached (replay must not re-log).
func ApplyCatalogOp(c *Catalog, op Op) error {
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
		if len(op.Values) != 1 {
			return fmt.Errorf("storage: set op carries %d values", len(op.Values))
		}
		return tbl.Set(op.Row, op.Col, op.Values[0])
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

// CaptureCatalog serializes every table of c inline — the shared
// Capture path for catalog-backed backends without out-of-line storage.
func CaptureCatalog(c *Catalog) []TableState {
	var out []TableState
	for _, name := range c.Names() {
		tbl, ok := c.Get(name)
		if !ok {
			continue
		}
		ts := TableState{Name: tbl.Name(), Columns: tbl.Schema().Columns()}
		ts.Rows, ts.Deleted = tbl.CaptureState()
		out = append(out, ts)
	}
	return out
}

// RestoreCatalogTable rebuilds one inline table state into c.
func RestoreCatalogTable(c *Catalog, ts TableState) error {
	schema, err := NewSchema(ts.Columns...)
	if err != nil {
		return fmt.Errorf("storage: table %s: %w", ts.Name, err)
	}
	tbl, err := c.Create(ts.Name, schema)
	if err != nil {
		return err
	}
	for i, row := range ts.Rows {
		if err := tbl.Insert(row...); err != nil {
			return fmt.Errorf("storage: table %s row %d: %w", ts.Name, i, err)
		}
	}
	if len(ts.Deleted) > 0 {
		tbl.Delete(ts.Deleted)
	}
	return nil
}
