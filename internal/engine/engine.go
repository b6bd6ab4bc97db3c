// Package engine executes parsed SQL statements against the storage layer.
//
// Since the planner/executor split, the engine is a thin shell over two
// subpackages: internal/engine/plan lowers SELECTs — and the WHERE and SET
// of UPDATE and DELETE — into a logical plan tree (alias resolution,
// predicate/projection pushdown, join key extraction, plan-time column
// validation), and internal/engine/exec runs that tree as iterators
// passing column batches up from the storage cursor. OpenPlan hands the
// root's batches up one at a time (StreamResult) — internal/core reads
// every SELECT so, straight into the server's encoders, copying a batch
// only for the result cache — and RunPlan copies them once into a result
// (Result.Batches); rows are boxed only for the callers of the row-typed
// entry points. Dispatch and DDL stay here; dml.go drains a DML plan and
// hands the rows and cells it found to the table in one batch; SELECT,
// EXPLAIN and OpenPlan live in select.go.
//
// The engine deliberately knows nothing about crowds: when a statement
// references a column the schema lacks, planning fails with a
// *MissingColumnError before any row is read. The crowd-enabled layer in
// internal/core catches that error, performs schema expansion, and
// re-runs the query — this is exactly the "query-driven" part of the
// paper's title.
package engine

import (
	"fmt"
	"runtime"
	"strings"

	"crowddb/internal/engine/plan"
	"crowddb/internal/index"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// MissingColumnError reports that a query referenced a column that the
// table's schema does not (yet) contain. It is produced at plan time and
// re-exported here so callers keep matching it as engine.MissingColumnError.
type MissingColumnError = plan.MissingColumnError

// Result is the outcome of executing one statement.
type Result struct {
	// Columns are the output column names (SELECT only).
	Columns []string
	// Batches are the output tuples (SELECT and EXPLAIN only) as a list of
	// owned column batches (storage.AppendOwned): immutable, holding no pin,
	// and possibly shared with the result cache and with other requests.
	// The row-typed entry points of internal/core, which box a SELECT's
	// rows as they read them from the executor, may leave it nil.
	Batches []storage.Batch
	// Rows are the same tuples boxed, fresh memory the caller owns. Only
	// the entry points embedded callers read rows from fill it in; Run
	// and RunPlan leave it nil.
	Rows []storage.Row
	// Affected counts rows inserted/updated/deleted for DML, or rows in
	// the result set for SELECT.
	Affected int
	// Message is a human-readable summary for DDL.
	Message string
}

// Boxed fills in Rows from Batches and returns r (nil stays nil): the one
// step between the columnar result and the row-typed API.
func (r *Result) Boxed() *Result {
	if r != nil && r.Rows == nil {
		r.Rows = storage.RowsOf(r.Batches)
	}
	return r
}

// Engine executes statements against a catalog.
type Engine struct {
	catalog *storage.Catalog

	// execWorkers is the degree of intra-query parallelism; 0 means
	// GOMAXPROCS, 1 means fully serial plans.
	execWorkers int
}

// New creates an engine over catalog.
func New(catalog *storage.Catalog) *Engine { return &Engine{catalog: catalog} }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.catalog }

// SetExecWorkers sets the degree of intra-query parallelism for SELECT
// execution: 0 picks GOMAXPROCS, 1 keeps plans fully serial. Call before
// serving queries — the setting is read at plan time.
func (e *Engine) SetExecWorkers(n int) { e.execWorkers = n }

// Dop resolves the effective degree of parallelism: the workers a SELECT's
// morsel chains get, and the goroutines an expansion predicts on.
func (e *Engine) Dop() int {
	if e.execWorkers > 0 {
		return e.execWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// ExecSQL parses and executes a single statement.
func (e *Engine) ExecSQL(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Exec(stmt)
}

// Exec executes a parsed statement and boxes its rows. ExpandStmt is not
// handled here — it requires crowd machinery and is executed by
// internal/core, which owns an Engine.
func (e *Engine) Exec(stmt sqlparse.Statement) (*Result, error) {
	res, err := e.Run(stmt)
	return res.Boxed(), err
}

// Run is Exec with the result left columnar (Result.Batches).
func (e *Engine) Run(stmt sqlparse.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		return e.execSelect(s)
	case *sqlparse.ExplainStmt:
		return e.execExplain(s)
	case *sqlparse.CreateTableStmt:
		return e.execCreate(s)
	case *sqlparse.CreateIndexStmt:
		return e.execCreateIndex(s)
	case *sqlparse.DropIndexStmt:
		return e.execDropIndex(s)
	case *sqlparse.InsertStmt:
		return e.execInsert(s)
	case *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		return e.execDML(s)
	case *sqlparse.DropTableStmt:
		if !e.catalog.Drop(s.Table) {
			return nil, fmt.Errorf("engine: no such table %q", s.Table)
		}
		return &Result{Message: fmt.Sprintf("dropped table %s", s.Table)}, nil
	case *sqlparse.ExpandStmt:
		return nil, fmt.Errorf("engine: EXPAND requires a crowd-enabled database (use crowddb.DB)")
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func kindOf(typeName string) (storage.Kind, error) {
	switch typeName {
	case "INTEGER":
		return storage.KindInt, nil
	case "FLOAT":
		return storage.KindFloat, nil
	case "TEXT":
		return storage.KindText, nil
	case "BOOLEAN":
		return storage.KindBool, nil
	default:
		return storage.KindNull, fmt.Errorf("engine: unknown type %q", typeName)
	}
}

// ColumnDefToStorage converts a parsed column definition into a storage
// column. Exported for internal/core, which creates expanded columns from
// EXPAND statements.
func ColumnDefToStorage(def sqlparse.ColumnDef, origin storage.ColumnOrigin) (storage.Column, error) {
	kind, err := kindOf(def.Type)
	if err != nil {
		return storage.Column{}, err
	}
	return storage.Column{Name: def.Name, Kind: kind, Perceptual: def.Perceptual, Origin: origin}, nil
}

// execCreateIndex builds the requested secondary index and bulk-loads it
// from the table's current rows, under the table's write lock. The error
// for a missing column is deliberately NOT a *MissingColumnError: CREATE
// INDEX must never trigger (and pay for) an implicit crowd expansion —
// the crowd-enabled layer adds its own typed rejection for
// registered-but-unexpanded columns before delegating here.
func (e *Engine) execCreateIndex(s *sqlparse.CreateIndexStmt) (*Result, error) {
	tbl, ok := e.catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	cols, dirs := indexKeySpec(s)
	idx, err := index.NewComposite(index.Kind(s.Kind), s.Name, cols, dirs)
	if err != nil {
		return nil, err
	}
	if err := tbl.AttachIndex(idx); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created %s index %s on %s (%s), %d entries",
		s.Kind, s.Name, s.Table, strings.Join(cols, ", "), idx.Entries())}, nil
}

// indexKeySpec splits a CreateIndexStmt's key columns into names and
// directions.
func indexKeySpec(s *sqlparse.CreateIndexStmt) (cols []string, dirs []bool) {
	cols = make([]string, len(s.Columns))
	dirs = make([]bool, len(s.Columns))
	for i, c := range s.Columns {
		cols[i], dirs[i] = c.Name, c.Desc
	}
	return cols, dirs
}

// execDropIndex detaches the named index from its table. Plans built
// afterwards fall back to scans; the rows themselves are untouched.
func (e *Engine) execDropIndex(s *sqlparse.DropIndexStmt) (*Result, error) {
	tbl, ok := e.catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	if err := tbl.DetachIndex(s.Name); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("dropped index %s on %s", s.Name, s.Table)}, nil
}

func (e *Engine) execCreate(s *sqlparse.CreateTableStmt) (*Result, error) {
	cols := make([]storage.Column, 0, len(s.Columns))
	for _, def := range s.Columns {
		col, err := ColumnDefToStorage(def, storage.ColumnDeclared)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if _, err := e.catalog.Create(s.Table, schema); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created table %s (%d columns)", s.Table, len(cols))}, nil
}
