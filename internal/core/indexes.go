package core

import (
	"errors"
	"fmt"
	"strings"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// ErrIndexOnVirtualColumn marks a CREATE INDEX against a column that is
// registered for query-driven expansion but has not been materialized
// yet: there is nothing to index until the crowd fills it. The HTTP layer
// maps it to 400 — it is the client's sequencing mistake, not a server
// fault, and it must never trigger (or charge for) the expansion itself.
var ErrIndexOnVirtualColumn = errors.New("core: cannot index a not-yet-expanded column")

// execCreateIndex handles CREATE INDEX on the crowd-enabled layer: it
// rejects indexes on virtual (registered-but-unexpanded) columns with a
// typed error, delegates the build to the engine, and journals a
// create_index record so the index is rebuilt on recovery. Caller holds
// db.gate.RLock (the execEngine path), so the record lands atomically
// with respect to Snapshot.
func (db *DB) execCreateIndex(ci *sqlparse.CreateIndexStmt) (*Result, error) {
	if tbl, ok := db.Catalog().Get(ci.Table); ok {
		for _, col := range ci.Columns {
			if _, exists := tbl.Schema().Lookup(col.Name); exists {
				continue
			}
			if _, registered := db.expandableSpec(ci.Table, col.Name); registered {
				return nil, fmt.Errorf("%w: %s.%s is registered for query-driven expansion but holds no data yet; EXPAND it (or query it) first",
					ErrIndexOnVirtualColumn, ci.Table, col.Name)
			}
		}
	}
	res, err := db.engine.Exec(ci)
	if err != nil {
		return nil, err
	}
	// Index DDL emits no storage.Op, so the result cache's observer never
	// fires — kill the table's entries here. The rows are unchanged, but an
	// index can change the row order of an answer without ORDER BY, and a
	// plan-shape change is cheap to over-invalidate.
	if db.rcache != nil {
		db.rcache.InvalidateTable(strings.ToLower(ci.Table))
	}
	if db.wal != nil {
		// Logged after a successful attach: the record describes derived
		// state (rebuildable from rows), so a crash in the window loses
		// only the index, never data. An append failure latches in the WAL
		// and surfaces at the next Snapshot/Close.
		names := make([]string, len(ci.Columns))
		dirs := make([]bool, len(ci.Columns))
		for i, c := range ci.Columns {
			names[i], dirs[i] = c.Name, c.Desc
		}
		_ = db.logJSON(recIndex, indexRecord{Name: ci.Name, Table: ci.Table, Columns: names, Dirs: dirs, Kind: ci.Kind}, false)
	}
	return res, nil
}

// execDropIndex handles DROP INDEX on the crowd-enabled layer: delegate
// the detach to the engine, invalidate cached plans over the table, and
// journal a drop_index record so the removal survives recovery (replay
// re-creates then re-drops; the snapshot simply omits dropped indexes).
// Caller holds db.gate.Lock (see DB.open).
func (db *DB) execDropIndex(di *sqlparse.DropIndexStmt) (*Result, error) {
	res, err := db.engine.Exec(di)
	if err != nil {
		return nil, err
	}
	if db.rcache != nil {
		db.rcache.InvalidateTable(strings.ToLower(di.Table))
	}
	_ = db.logJSON(recDropIndex, indexRecord{Name: di.Name, Table: di.Table}, false) // a failure latches in the WAL
	return res, nil
}

// applyIndexRecord rebuilds one persisted index from the (already
// restored or replayed) table rows. Used by snapshot restore and WAL
// replay; the journal is not attached yet, so nothing is re-logged.
func (db *DB) applyIndexRecord(ir indexRecord) error {
	if len(ir.Columns) == 0 {
		return fmt.Errorf("index record %s on %s names no column", ir.Name, ir.Table)
	}
	cols := make([]sqlparse.IndexCol, len(ir.Columns))
	for i, name := range ir.Columns {
		cols[i] = sqlparse.IndexCol{Name: name, Desc: i < len(ir.Dirs) && ir.Dirs[i]}
	}
	_, err := db.engine.Exec(&sqlparse.CreateIndexStmt{
		Name: ir.Name, Table: ir.Table, Columns: cols, Kind: ir.Kind,
	})
	return err
}

// TableIndexes returns the index inventory of one table — a convenience
// for embedders and tests. The HTTP and REPL surfaces hold the *Table
// already and read tbl.IndexMetas() directly.
func (db *DB) TableIndexes(table string) []storage.IndexMeta {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return nil
	}
	return tbl.IndexMetas()
}
