// Package membackend is the storage.Backend: the MVCC columnar in-memory
// engine, checkpointed chunk by chunk into the snapshot above the seam
// (where the WAL provides crash recovery). It is a thin
// binding of the shared catalog machinery to the Backend contract —
// deliberately so, since the contract was extracted from it.
package membackend

import (
	"fmt"

	"crowddb/internal/storage"
)

func init() {
	storage.RegisterBackend("mem", func() storage.Backend { return New() })
}

// Backend serves tables from memory.
type Backend struct {
	catalog *storage.Catalog
}

// New returns an unopened in-memory backend.
func New() *Backend {
	return &Backend{catalog: storage.NewCatalog()}
}

// Name implements storage.Backend.
func (b *Backend) Name() string { return "mem" }

// Open implements storage.Backend. The data directory is unused: the
// WAL and snapshot files above the seam own all on-disk state.
func (b *Backend) Open(dir string) error { return nil }

// Catalog implements storage.Backend.
func (b *Backend) Catalog() *storage.Catalog { return b.catalog }

// ApplyOp implements storage.Backend.
func (b *Backend) ApplyOp(op storage.Op) error {
	return storage.ApplyCatalogOp(b.catalog, op)
}

// Checkpoint implements storage.Backend.
func (b *Backend) Checkpoint() *storage.Checkpoint { return b.catalog.Checkpoint() }

// RestoreTable implements storage.Backend.
func (b *Backend) RestoreTable(header []byte, r storage.SectionReader) error {
	return storage.RestoreTable(b.catalog, header, r)
}

// Compact implements storage.Backend.
func (b *Backend) Compact(table string, policy storage.CompactionPolicy) (storage.CompactionResult, error) {
	tbl, ok := b.catalog.Get(table)
	if !ok {
		return storage.CompactionResult{}, fmt.Errorf("membackend: no such table %q", table)
	}
	return tbl.Compact(policy)
}

// RebuildIndexes implements storage.Backend.
func (b *Backend) RebuildIndexes(table string) error {
	tbl, ok := b.catalog.Get(table)
	if !ok {
		return fmt.Errorf("membackend: no such table %q", table)
	}
	tbl.RebuildIndexes()
	return nil
}

// Close implements storage.Backend.
func (b *Backend) Close() error { return nil }
