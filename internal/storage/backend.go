package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is the storage-engine contract under the journal: everything
// internal/core needs from an engine, and nothing more. The durability
// layer logs typed Ops above this seam and replays them through
// ApplyOp; snapshots flow through Checkpoint/RestoreTable; the compactor
// and index machinery are reached through per-table hooks. Swapping the
// in-memory chunk store for an LSM/KV engine means implementing this
// interface — core, the SQL engine, and the HTTP surface don't change.
//
// The serving representation is always a *Catalog of MVCC tables (the
// SQL engine executes against it directly); a Backend owns how that
// state is (re)built, checkpointed, and compacted.
type Backend interface {
	// Name is the backend's registry key ("mem").
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
	// Checkpoint pins every table's current version for a snapshot; the
	// caller writes the pinned state out (Checkpoint.Write) without
	// holding anything and releases it.
	Checkpoint() *Checkpoint
	// RestoreTable rebuilds one table from its snapshot sections: header
	// is the body of the SectionTable section, the sections after it come
	// from r. Called before replay, on an empty catalog.
	RestoreTable(header []byte, r SectionReader) error
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
