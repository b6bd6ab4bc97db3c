package exec

import (
	"fmt"
	"sync"
	"time"

	"crowddb/internal/engine/plan"
	"crowddb/internal/storage"
)

// OpStats is the per-operator actuals a traced execution records: rows
// emitted by the operator and inclusive wall time spent inside it
// (Open + every NextBatch + Close, children included — the PostgreSQL
// EXPLAIN ANALYZE convention).
type OpStats struct {
	Rows int64
	Wall time.Duration
}

// Trace collects OpStats for the plan nodes build() lowers into
// iterators: every node of a serial plan and, at dop > 1, everything but
// the interior of marked morsel chains (under a Gather, or a marked side
// of a HashJoin/Aggregate). A chain is lowered into one operator
// stack per worker when its consumer opens (chainSource), not by
// build(), so its nodes carry no stats; Annotate marks them as such. The root operator always has an
// iterator, so root row counts are exact at any dop.
//
// A traced iterator is only ever driven by the goroutine running the
// query: a built child reaches its parent as a one-morsel source, which
// every consumer drains inline. Each OpStats therefore has one writer;
// the mutex orders registration during build() against Stats readers.
type Trace struct {
	mu  sync.Mutex
	ops map[plan.Node]*OpStats
}

// NewTrace returns an empty trace to pass to BuildTraced.
func NewTrace() *Trace {
	return &Trace{ops: map[plan.Node]*OpStats{}}
}

// Stats returns the recorded actuals for n, or nil if build() never
// lowered n (morsel-chain interior node).
func (t *Trace) Stats(n plan.Node) *OpStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[n]
}

// wrap registers n and returns it wrapped in a measuring iterator.
func (t *Trace) wrap(n plan.Node, it Iterator) Iterator {
	st := &OpStats{}
	t.mu.Lock()
	t.ops[n] = st
	t.mu.Unlock()
	return &tracedIter{inner: it, st: st}
}

// Annotate is the plan.ExplainWith hook rendering one node's actuals,
// e.g. " (actual rows=42 time=1.3ms)", after the planner's own note on an
// access path (plan.AccessNote). Nodes executed inside a morsel chain
// report no per-operator actuals.
func (t *Trace) Annotate(n plan.Node) string {
	st := t.Stats(n)
	if st == nil {
		return plan.AccessNote(n) + " (in parallel chain)"
	}
	return fmt.Sprintf("%s (actual rows=%d time=%s)", plan.AccessNote(n), st.Rows, st.Wall.Round(time.Microsecond))
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
	t.st.Wall += time.Since(start)
	return err
}

func (t *tracedIter) NextBatch() (*storage.Batch, error) {
	start := time.Now()
	b, err := t.inner.NextBatch()
	t.st.Wall += time.Since(start)
	if b != nil {
		t.st.Rows += int64(len(b.Sel))
	}
	return b, err
}

func (t *tracedIter) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.st.Wall += time.Since(start)
	return err
}
