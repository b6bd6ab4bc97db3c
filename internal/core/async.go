package core

import (
	"errors"
	"fmt"
	"strings"

	"crowddb/internal/engine"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

// ErrExpansionFailed marks errors from an expansion job's execution (as
// opposed to rejection at submission or plain query errors); the HTTP
// layer maps it to a 5xx status.
var ErrExpansionFailed = errors.New("core: expansion failed")

// ErrExpansionInFlight marks an explicit expansion rejected because the
// same column's expansion is already queued or running (HTTP 409: the
// statement's own options would be discarded by a silent join).
var ErrExpansionInFlight = errors.New("core: expansion already in flight")

// ErrNoSuchTable marks a request against an unknown table (HTTP 404).
var ErrNoSuchTable = errors.New("core: no such table")

// Expansion scheduler sizing. Crowd jobs spend their time waiting on
// (simulated) humans, not on CPU, so a small pool is plenty; the queue is
// deep enough that a burst of distinct expandable columns does not bounce.
const (
	defaultExpansionWorkers = 4
	defaultExpansionQueue   = 64
)

// Jobs returns status snapshots of every expansion job ever submitted, in
// submission order.
func (db *DB) Jobs() []jobs.Status { return db.sched.Jobs() }

// Job returns the status of one expansion job by ID.
func (db *DB) Job(id string) (jobs.Status, bool) {
	j, ok := db.sched.Get(id)
	if !ok {
		return jobs.Status{}, false
	}
	return j.Status(), true
}

// JobHandle returns the live job handle for Wait/Done composition.
func (db *DB) JobHandle(id string) (*jobs.Job, bool) { return db.sched.Get(id) }

// ExecSQLAsync parses and executes one statement without ever blocking on
// the crowd. Three outcomes:
//
//   - the statement needs no expansion: result is non-nil, job is nil;
//   - the statement triggers (or joins) an expansion: result is nil and
//     job is the handle to poll or Wait on — re-issue the query once the
//     job is done;
//   - anything else is an error.
//
// This is the serving-path API: an HTTP frontend returns 202 + job ID
// instead of holding a connection open for crowd minutes.
func (db *DB) ExecSQLAsync(sql string) (*Result, *jobs.Job, error) {
	res, key := db.cachedResult(sql, false, nil)
	if res != nil {
		return res.Boxed(), nil, nil
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if ex, ok := stmt.(*sqlparse.ExpandStmt); ok {
		job, err := db.submitExpandStmt(ex)
		return nil, job, err
	}
	res, err = db.execEngine(stmt, key, nil)
	if err == nil {
		return res.Boxed(), nil, nil
	}
	job, err := db.submitMissingColumn(stmt, err)
	return nil, job, err
}

// expansionKey is the singleflight identity of an expansion.
func expansionKey(table, column string) string {
	return strings.ToLower(table) + "." + strings.ToLower(column)
}

// submitExpansion schedules (or joins) the expansion of table.column.
// When implicit is true the job is a query-driven expansion and skips the
// crowd run if a completed job already filled the column — closing the
// race where a query observed the column as missing, lost the CPU, and
// resubmitted after the original job finished. Explicit EXPAND statements
// pass implicit=false: re-expanding an existing column re-elicits it by
// design.
//
// The expansion joins its table's open batch (see batch.go), tagged with
// its origin from the start.
func (db *DB) submitExpansion(table, column string, kind storage.Kind, opts ExpandOptions, implicit bool) (*jobs.Job, bool, error) {
	if opts.Origin == "" {
		opts.Origin = OriginDemand
	}
	job, created, err := db.sched.Submit(batchGroupKey(table), expansionKey(table, column), opts.Origin, expansionWork{
		table: table, column: column, kind: kind, opts: opts, implicit: implicit,
	})
	if err != nil || !created {
		return job, created, err
	}
	db.observe(workload.Observation{Table: table, Columns: []string{column}, Kind: workload.KindExpand})
	// A freshly admitted demand expansion is the predictor's trigger:
	// speculate NOW, while the table's batch window is still open, so
	// speculative members merge into the demand member's HIT group. The
	// origin guard stops speculation from cascading off itself (and off
	// admin pre-warms, which carry no "a user will query next" signal).
	if opts.Origin == OriginDemand {
		db.speculate(table, column)
	}
	return job, created, nil
}

// submitExpandStmt schedules an explicit EXPAND statement. An expansion
// of the same column already in flight is an error rather than a silent
// join: the statement's own BUDGET/SAMPLES options would be discarded,
// and "re-elicit" semantics demand a fresh run — retry once the current
// job finishes.
func (db *DB) submitExpandStmt(ex *sqlparse.ExpandStmt) (*jobs.Job, error) {
	col, err := engine.ColumnDefToStorage(ex.Column, storage.ColumnExpanded)
	if err != nil {
		return nil, err
	}
	opts := ExpandOptions{Method: ex.Method, Budget: ex.Budget}
	if ex.Samples > 0 {
		opts.SamplesPerClass = int(ex.Samples)
	}
	job, created, err := db.submitExpansion(ex.Table, ex.Column.Name, col.Kind, opts, false)
	if err != nil {
		return nil, err
	}
	if !created {
		return nil, fmt.Errorf("%w: %s.%s (%s); retry after it completes",
			ErrExpansionInFlight, ex.Table, ex.Column.Name, job.ID())
	}
	return job, nil
}

// SubmitExpand schedules an explicit expansion programmatically — the
// POST /v1/admin/expand path: pre-warm a column before queries need it,
// attributed to an API key whose budget cap is checked up front. The
// projected sampling cost is reserved against opts.APIKey at submission
// (ErrBudgetExceeded maps to 402 at the HTTP layer); the job re-checks
// authoritatively before issuing HITs. Like EXPAND statements, a same-
// column expansion already in flight is an error, not a silent join.
func (db *DB) SubmitExpand(table, column string, kind storage.Kind, opts ExpandOptions) (*jobs.Job, error) {
	if err := db.preflight(table, column, opts); err != nil {
		return nil, err
	}
	job, created, err := db.submitExpansion(table, column, kind, opts, false)
	if err != nil {
		return nil, err
	}
	if !created {
		return nil, fmt.Errorf("%w: %s.%s (%s); retry after it completes",
			ErrExpansionInFlight, table, column, job.ID())
	}
	return job, nil
}

// preflight checks an expansion's projected sampling cost against its
// API key's budget before it is submitted; an unknown table is
// ErrNoSuchTable. Best-effort: HYBRID is estimated by its first round,
// and a plan that cannot be built yet (a missing space) defers entirely
// to the authoritative reservation inside the job.
func (db *DB) preflight(table, column string, opts ExpandOptions) error {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	opts.fillDefaults(db.defaultMethod(table))
	if opts.Method == sqlparse.ExpandHybrid {
		opts.Method = sqlparse.ExpandCrowd
	}
	e, err := db.planElicitation(tbl, column, opts, true)
	if err != nil {
		return nil
	}
	return db.checkBudget(opts.APIKey, e.projected())
}

// columnFilled reports whether table.column exists and holds at least one
// non-NULL value — the signature of an expansion that already ran. It
// reads that one column, and of an unfilled one (nil chunks) nothing.
func (db *DB) columnFilled(table, column string) bool {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return false
	}
	colIdx, ok := tbl.Schema().Lookup(column)
	if !ok {
		return false
	}
	cur := tbl.NewCursor(0)
	defer cur.Close()
	cur.SetCols([]int{colIdx})
	cur.SetPreds([]storage.Pred{{Col: colIdx, Op: storage.PredNotNull}})
	return cur.NextBatch() != nil
}
