package engine

import (
	"fmt"

	"crowddb/internal/engine/exec"
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// execSelect plans and executes a SELECT, materializing the full result.
// Column validation happens at plan time, so schema expansion triggers
// before any row work (and regardless of row contents).
func (e *Engine) execSelect(s *sqlparse.SelectStmt) (*Result, error) {
	p, err := e.PlanSelect(s)
	if err != nil {
		return nil, err
	}
	return ExecPlan(p)
}

// PlanSelect lowers a SELECT into its logical plan without executing it.
// The split from ExecPlan exists for the result cache in internal/core:
// the plan's fingerprint (plan.SelectPlan.Fingerprint) is the cache key,
// so core plans first, consults the cache, and only executes on a miss.
// The parallelism pass runs here so the fingerprint covers the physical
// shape (a dop-8 plan and a serial plan produce identical rows, but
// EXPLAIN must render what will actually run).
func (e *Engine) PlanSelect(s *sqlparse.SelectStmt) (*plan.SelectPlan, error) {
	p, err := plan.Build(s, e.catalog)
	if err != nil {
		return nil, err
	}
	plan.Parallelize(p, e.Dop())
	return p, nil
}

// ExecPlan runs a previously built SELECT plan and materializes the
// result.
func ExecPlan(p *plan.SelectPlan) (*Result, error) {
	it, err := exec.Build(p.Root)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(it)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: p.Columns, Rows: rows, Affected: len(rows)}, nil
}

// ExecPlanTraced runs a SELECT plan with per-operator instrumentation on
// and returns the result alongside the populated trace. The trace times
// every NextBatch call, so this path is reserved for EXPLAIN ANALYZE,
// ?trace=1 requests, and the slow-query log.
func ExecPlanTraced(p *plan.SelectPlan) (*Result, *exec.Trace, error) {
	tr := exec.NewTrace()
	it, err := exec.BuildTraced(p.Root, tr)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.Drain(it)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Columns: p.Columns, Rows: rows, Affected: len(rows)}, tr, nil
}

// execExplain handles EXPLAIN over a SELECT, UPDATE or DELETE and EXPLAIN
// ANALYZE over a SELECT. Plain EXPLAIN plans without executing and says,
// on a range access path, what the plan-time count was (plan.AccessNote);
// ANALYZE executes the query with tracing on, discards its rows, and
// annotates each operator line with actual rows-out and wall time — which
// for an UPDATE or DELETE would mean changing the table, so it is refused.
// Neither form ever triggers schema expansion — plan errors (missing
// columns included) surface directly.
func (e *Engine) execExplain(x *sqlparse.ExplainStmt) (*Result, error) {
	var p *plan.SelectPlan
	var err error
	switch s := x.Stmt.(type) {
	case *sqlparse.SelectStmt:
		p, err = e.PlanSelect(s)
	case *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		if x.Analyze {
			return nil, fmt.Errorf("engine: EXPLAIN ANALYZE supports SELECT statements only, got %T", x.Stmt)
		}
		p, err = e.PlanDML(s)
	default:
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT, UPDATE and DELETE statements only, got %T", x.Stmt)
	}
	if err != nil {
		return nil, err
	}
	lines := p.ExplainWith(plan.AccessNote)
	if x.Analyze {
		_, tr, err := ExecPlanTraced(p)
		if err != nil {
			return nil, err
		}
		lines = p.ExplainWith(tr.Annotate)
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range lines {
		res.Rows = append(res.Rows, storage.Row{storage.Text(line)})
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// StreamResult is a pull-based SELECT result: batches are produced on
// demand by the iterator tree and boxed into rows one batch at a time —
// the streaming counterpart of exec.Drain. Rows are fresh memory the
// caller may keep; Close must be called when done.
type StreamResult struct {
	// Columns are the output column names.
	Columns []string
	it      exec.Iterator
	rows    []storage.Row // the current batch, boxed
	pos     int
	err     error // what follows the rows of the current batch
	done    bool
}

// Stream plans and opens a SELECT for row-at-a-time consumption.
// Blocking operators (sort, aggregation, a join's build side) still do
// their work inside this call; pure scan/filter/project/limit pipelines
// stream end to end.
func (e *Engine) Stream(s *sqlparse.SelectStmt) (*StreamResult, error) {
	p, err := e.PlanSelect(s)
	if err != nil {
		return nil, err
	}
	it, err := exec.Build(p.Root)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		_ = it.Close()
		return nil, err
	}
	return &StreamResult{Columns: p.Columns, it: it}, nil
}

// Next returns the next row, or ok=false at end of stream.
func (r *StreamResult) Next() (storage.Row, bool, error) {
	for r.pos >= len(r.rows) {
		if r.done || r.err != nil {
			err := r.err
			r.done, r.err = true, nil
			return nil, false, err
		}
		b, err := r.it.NextBatch()
		r.rows, r.pos, r.err = r.rows[:0], 0, err
		if b != nil {
			r.rows = b.AppendRows(r.rows)
		}
		r.done = b == nil
	}
	r.pos++
	return r.rows[r.pos-1], true, nil
}

// Close releases the stream's resources (idempotent).
func (r *StreamResult) Close() error {
	if r.it == nil {
		return nil
	}
	it := r.it
	r.it, r.done = nil, true
	return it.Close()
}
