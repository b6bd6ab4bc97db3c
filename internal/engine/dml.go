package engine

import (
	"fmt"
	"strings"

	"crowddb/internal/engine/exec"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// dmlEnv resolves column references for one row of a single table during
// INSERT/UPDATE/DELETE evaluation. A table qualifier, when present, must
// name the statement's target table.
type dmlEnv struct {
	table  string
	schema *storage.Schema
	row    storage.Row
}

func (env *dmlEnv) Lookup(ref *sqlparse.ColumnRef) (storage.Value, error) {
	table, name := ref.Table, ref.Name
	if table != "" && !strings.EqualFold(table, env.table) {
		return storage.Null(), fmt.Errorf("engine: unknown table or alias %q in reference %s.%s", table, table, name)
	}
	idx, ok := env.schema.Lookup(name)
	if !ok {
		return storage.Null(), &MissingColumnError{Table: env.table, Column: name}
	}
	return env.row[idx], nil
}

func (e *Engine) execInsert(s *sqlparse.InsertStmt) (*Result, error) {
	tbl, ok := e.catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	schema := tbl.Schema()

	// Map the statement's column list onto schema positions.
	positions := make([]int, 0, schema.Len())
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

	inserted := 0
	for _, rowExprs := range s.Rows {
		if len(rowExprs) != len(positions) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(rowExprs), len(positions))
		}
		vals := make([]storage.Value, schema.Len())
		for i := range vals {
			vals[i] = storage.Null()
		}
		env := &dmlEnv{table: s.Table, schema: schema, row: make(storage.Row, schema.Len())}
		for i, expr := range rowExprs {
			v, err := exec.EvalValue(expr, env)
			if err != nil {
				return nil, err
			}
			vals[positions[i]] = v
		}
		if err := tbl.Insert(vals...); err != nil {
			return nil, err
		}
		inserted++
	}
	return &Result{Affected: inserted, Message: fmt.Sprintf("inserted %d rows", inserted)}, nil
}

func (e *Engine) execUpdate(s *sqlparse.UpdateStmt) (*Result, error) {
	tbl, ok := e.catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	schema := tbl.Schema()

	type change struct {
		row, col int
		val      storage.Value
	}
	var changes []change
	var scanErr error
	// The physical row IDs collected by the scan are written back below;
	// the fence keeps the compactor from remapping them in between.
	tbl.AcquireWriteFence()
	defer tbl.ReleaseWriteFence()
	env := &dmlEnv{table: s.Table, schema: schema} // one per statement, re-pointed per row
	tbl.Scan(func(i int, row storage.Row) bool {
		env.row = row
		if s.Where != nil {
			t, err := exec.EvalPredicate(s.Where, env)
			if err != nil {
				scanErr = err
				return false
			}
			if t != exec.TriTrue {
				return true
			}
		}
		for _, asg := range s.Set {
			col, ok := schema.Lookup(asg.Column)
			if !ok {
				scanErr = &MissingColumnError{Table: s.Table, Column: asg.Column}
				return false
			}
			v, err := exec.EvalValue(asg.Expr, env)
			if err != nil {
				scanErr = err
				return false
			}
			changes = append(changes, change{row: i, col: col, val: v})
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	touched := map[int]bool{}
	for _, c := range changes {
		if err := tbl.Set(c.row, c.col, c.val); err != nil {
			return nil, err
		}
		touched[c.row] = true
	}
	return &Result{Affected: len(touched), Message: fmt.Sprintf("updated %d rows", len(touched))}, nil
}

func (e *Engine) execDelete(s *sqlparse.DeleteStmt) (*Result, error) {
	tbl, ok := e.catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	schema := tbl.Schema()
	var doomed []int
	var scanErr error
	// Fence the scan→Delete window: the collected physical IDs must not
	// be remapped by a concurrent compaction before Delete resolves them.
	tbl.AcquireWriteFence()
	defer tbl.ReleaseWriteFence()
	env := &dmlEnv{table: s.Table, schema: schema} // one per statement, re-pointed per row
	tbl.Scan(func(i int, row storage.Row) bool {
		if s.Where == nil {
			doomed = append(doomed, i)
			return true
		}
		env.row = row
		t, err := exec.EvalPredicate(s.Where, env)
		if err != nil {
			scanErr = err
			return false
		}
		if t == exec.TriTrue {
			doomed = append(doomed, i)
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	n := tbl.Delete(doomed)
	return &Result{Affected: n, Message: fmt.Sprintf("deleted %d rows", n)}, nil
}
