package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// OpStats is the per-operator actuals a traced execution records: rows
// emitted by the operator and inclusive wall time spent inside it
// (Open + every NextBatch + Close, children included — the PostgreSQL
// EXPLAIN ANALYZE convention), in nanoseconds. An operator of a chain
// runs once per worker, and its workers add to the one OpStats of its
// node: rows are exact, and time is the sum over workers.
type OpStats struct {
	Rows atomic.Int64
	Wall atomic.Int64
}

// Trace collects one OpStats per plan node: a built operator's is
// registered when build() wraps it, a chain's nodes' when build() lowers
// the chain, and the stacks every worker makes over the chain measure
// into them (measure). So every node reports actuals, at any dop.
// Registration happens during build(), before any worker runs; the mutex
// orders it against Stats readers.
type Trace struct {
	mu  sync.Mutex
	ops map[plan.Node]*OpStats
}

// NewTrace returns an empty trace to pass to BuildTraced.
func NewTrace() *Trace {
	return &Trace{ops: map[plan.Node]*OpStats{}}
}

// Stats returns the recorded actuals for n, or nil if build() never
// lowered n.
func (t *Trace) Stats(n plan.Node) *OpStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[n]
}

// register gives n its OpStats.
func (t *Trace) register(n plan.Node) *OpStats {
	st := &OpStats{}
	t.mu.Lock()
	t.ops[n] = st
	t.mu.Unlock()
	return st
}

// wrap registers n and returns it wrapped in a measuring iterator.
func (t *Trace) wrap(n plan.Node, it Iterator) Iterator {
	return &tracedIter{inner: it, st: t.register(n)}
}

// measure registers the chain node n and returns the constructor of its
// measuring wrapper, one per worker's stack.
func (t *Trace) measure(n plan.Node) func(Iterator) Iterator {
	st := t.register(n)
	return func(it Iterator) Iterator { return &tracedIter{inner: it, st: st} }
}

// Annotate is the plan.ExplainWith hook rendering one node's actuals,
// e.g. " (actual rows=42 time=1.3ms)", after the planner's own note on an
// access path (plan.AccessNote).
func (t *Trace) Annotate(n plan.Node) string {
	st := t.Stats(n)
	wall := time.Duration(st.Wall.Load()).Round(time.Microsecond)
	return fmt.Sprintf("%s (actual rows=%d time=%s)", plan.AccessNote(n), st.Rows.Load(), wall)
}

// tracedIter measures one operator: wall time across Open/NextBatch/
// Close and rows handed upward — the selected rows of every batch, so
// the counts are exact whatever the batch boundaries. Batches pass
// through untouched.
type tracedIter struct {
	inner Iterator
	st    *OpStats
}

func (t *tracedIter) Open() error {
	start := time.Now()
	err := t.inner.Open()
	t.st.Wall.Add(int64(time.Since(start)))
	return err
}

func (t *tracedIter) NextBatch() (*storage.Batch, error) {
	start := time.Now()
	b, err := t.inner.NextBatch()
	t.st.Wall.Add(int64(time.Since(start)))
	if b != nil {
		t.st.Rows.Add(int64(len(b.Sel)))
	}
	return b, err
}

func (t *tracedIter) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.st.Wall.Add(int64(time.Since(start)))
	return err
}
