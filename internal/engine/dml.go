package engine

import (
	"fmt"
	"strconv"
	"time"

	"crowddb/internal/engine/exec"
	"crowddb/internal/engine/plan"
	"crowddb/internal/obs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// UPDATE and DELETE are "plan → drain row IDs and new cells → apply": the
// WHERE is planned and run like a SELECT's (PlanDML, exec.Build), and what
// it found is handed to the table as one batch (Table.SetBatch, Delete),
// which journals, writes and maintains the indexes under its write lock.
// The engine times planning and the scan; storage times the rest
// (crowddb_dml_phase_seconds).
var (
	mInsertPlan = storage.DMLPhase("insert", "plan")
	// By plan.DML.Verb.
	mDMLPhases = map[string]struct{ plan, scan *obs.Histogram }{
		"Update": {storage.DMLPhase("update", "plan"), storage.DMLPhase("update", "scan")},
		"Delete": {storage.DMLPhase("delete", "plan"), storage.DMLPhase("delete", "scan")},
	}
)

// noColumns is the environment of an expression that stands alone: the
// VALUES of an INSERT are constants, and a column reference among them
// has no row to read.
type noColumns struct{}

func (noColumns) Lookup(ref *sqlparse.ColumnRef) (storage.Value, error) {
	return storage.Null(), fmt.Errorf("engine: column reference %q in INSERT VALUES", ref.Name)
}

func (e *Engine) execInsert(s *sqlparse.InsertStmt) (*Result, error) {
	start := time.Now()
	tbl, ok := e.catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	schema := tbl.Schema()

	// Map the statement's column list onto schema positions.
	var stack [16]int
	positions := stack[:0]
	if s.Columns == nil {
		for i := 0; i < schema.Len(); i++ {
			positions = append(positions, i)
		}
	} else {
		for _, name := range s.Columns {
			idx, ok := schema.Lookup(name)
			if !ok {
				return nil, &MissingColumnError{Table: s.Table, Column: name}
			}
			positions = append(positions, idx)
		}
	}

	// Every row is evaluated before the first is inserted, into one slice
	// of width cells per row.
	width := schema.Len()
	cells := make([]storage.Value, len(s.Rows)*width) // the zero Value is NULL
	for r, rowExprs := range s.Rows {
		if len(rowExprs) != len(positions) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(rowExprs), len(positions))
		}
		vals := cells[r*width : (r+1)*width]
		for i, expr := range rowExprs {
			v, err := exec.EvalValue(expr, noColumns{})
			if err != nil {
				return nil, err
			}
			vals[positions[i]] = v
		}
	}
	mInsertPlan.Observe(time.Since(start).Seconds())
	for r := range s.Rows {
		if err := tbl.Insert(cells[r*width : (r+1)*width]...); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(s.Rows), Message: rowsMessage("inserted", len(s.Rows))}, nil
}

// rowsMessage is a DML statement's message, "<verb> <n> rows"; that of a
// statement of one row, the common case, is a constant.
func rowsMessage(verb string, n int) string {
	if n == 1 {
		switch verb {
		case "inserted":
			return "inserted 1 rows"
		case "updated":
			return "updated 1 rows"
		case "deleted":
			return "deleted 1 rows"
		}
	}
	return verb + " " + strconv.Itoa(n) + " rows"
}

// PlanDML lowers an UPDATE or DELETE into its plan without running it:
// a plan.DML root over the access path that finds the rows, parallelized
// like a SELECT's. EXPLAIN renders it; execDML runs it.
func (e *Engine) PlanDML(stmt sqlparse.Statement) (*plan.SelectPlan, error) {
	p, err := plan.BuildDML(stmt, e.catalog)
	if err != nil {
		return nil, err
	}
	plan.Parallelize(p, e.Dop())
	return p, nil
}

// execDML plans and runs an UPDATE or DELETE. The plan is drained to the
// end before anything is written: an error on any row — in the WHERE, in
// a SET expression, in coercing a new cell to its column — fails the
// statement with the table untouched.
func (e *Engine) execDML(stmt sqlparse.Statement) (*Result, error) {
	start := time.Now()
	p, err := e.PlanDML(stmt)
	if err != nil {
		return nil, err
	}
	root := p.Root.(*plan.DML)
	phases := mDMLPhases[root.Verb]
	phases.plan.Observe(time.Since(start).Seconds())

	// The scan collects physical row IDs that the apply below writes
	// through; the fence keeps the compactor from remapping them in
	// between. Another writer may still get in: a row it deleted is
	// skipped by the apply, a row it updated is overwritten.
	tbl := root.Table
	tbl.AcquireWriteFence()
	defer tbl.ReleaseWriteFence()
	start = time.Now()
	ids, cells, err := drainDML(root)
	if err != nil {
		return nil, err
	}
	phases.scan.Observe(time.Since(start).Seconds())

	var n int
	if root.Verb == "Delete" {
		n = tbl.Delete(ids)
		return &Result{Affected: n, Message: rowsMessage("deleted", n)}, nil
	}
	if n, err = tbl.SetBatch(ids, root.Targets, cells); err != nil {
		return nil, err
	}
	return &Result{Affected: n, Message: rowsMessage("updated", n)}, nil
}

// drainDML runs a DML plan to the end and returns the physical IDs of the
// rows it found with, per SET target, the new cell of each.
func drainDML(root *plan.DML) (ids []int, cells [][]storage.Value, err error) {
	it, err := exec.Build(root)
	if err != nil {
		return nil, nil, err
	}
	if err := it.Open(); err != nil {
		_ = it.Close()
		return nil, nil, err
	}
	defer it.Close()
	cells = make([][]storage.Value, len(root.Targets))
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return ids, cells, nil
		}
		ids = append(ids, b.IDs...)
		for k := range cells {
			cells[k] = append(cells[k], b.Cols[k].Vals...)
		}
	}
}
