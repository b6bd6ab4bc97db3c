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
	return RunPlan(p, nil)
}

// PlanSelect lowers a SELECT into its logical plan without executing it:
// internal/core plans a statement the result cache did not answer, feeds
// the workload tracker, and only then executes; a traced cache hit is
// planned for its trace's plan tree alone. The parallelism pass runs here
// so the plan is the physical shape (a dop-8 plan and a serial plan
// produce identical rows, but EXPLAIN must render what will actually run).
func (e *Engine) PlanSelect(s *sqlparse.SelectStmt) (*plan.SelectPlan, error) {
	p, err := plan.Build(s, e.catalog)
	if err != nil {
		return nil, err
	}
	plan.Parallelize(p, e.Dop())
	return p, nil
}

// RunPlan runs a previously built SELECT plan and materializes the result
// as owned batches; a non-nil tr additionally records per-operator rows
// and wall time (every NextBatch call is timed, so that is reserved for
// EXPLAIN ANALYZE, ?trace=1 requests and the slow-query log).
func RunPlan(p *plan.SelectPlan, tr *exec.Trace) (*Result, error) {
	it, err := exec.BuildTraced(p.Root, tr)
	if err != nil {
		return nil, err
	}
	batches, err := exec.Drain(it)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: p.Columns, Batches: batches, Affected: storage.RowCount(batches)}, nil
}

// ExecPlan is RunPlan with the rows boxed.
func ExecPlan(p *plan.SelectPlan) (*Result, error) {
	res, err := RunPlan(p, nil)
	return res.Boxed(), err
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
		tr := exec.NewTrace()
		if _, err := RunPlan(p, tr); err != nil {
			return nil, err
		}
		lines = p.ExplainWith(tr.Annotate)
	}
	rows := make([]storage.Row, len(lines))
	for i, line := range lines {
		rows[i] = storage.Row{storage.Text(line)}
	}
	return &Result{Columns: []string{"plan"}, Batches: storage.BatchesOf(rows), Affected: len(rows)}, nil
}

// StreamResult is a pull-based SELECT result: batches are produced on
// demand by the iterator tree and handed up under exec.Iterator's
// ownership rule — a batch is the stream's until the next NextBatch or
// Close, read-only, and what the caller keeps it copies. Close must be
// called when done.
type StreamResult struct {
	// Columns are the output column names.
	Columns []string
	it      exec.Iterator
	done    bool
}

// OpenPlan opens a previously built SELECT plan for consumption a batch
// at a time. Blocking operators (sort, aggregation, a join's
// build side) still do their work inside this call; pure
// scan/filter/project/limit pipelines stream end to end. A non-nil tr
// records per-operator rows and wall time, as RunPlan's does.
func OpenPlan(p *plan.SelectPlan, tr *exec.Trace) (*StreamResult, error) {
	it, err := exec.BuildTraced(p.Root, tr)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		_ = it.Close()
		return nil, err
	}
	return &StreamResult{Columns: p.Columns, it: it}, nil
}

// NextBatch returns the next batch of rows, nil at end of stream. As with
// exec.Iterator, a batch and an error may come together: the batch's rows
// precede the error, and the stream is over.
func (r *StreamResult) NextBatch() (*storage.Batch, error) {
	if r.done {
		return nil, nil
	}
	b, err := r.it.NextBatch()
	r.done = b == nil || err != nil
	return b, err
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
