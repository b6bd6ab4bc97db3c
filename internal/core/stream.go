package core

import (
	"context"
	"fmt"
	"time"

	"crowddb/internal/engine"
	"crowddb/internal/engine/exec"
	"crowddb/internal/engine/plan"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	rescache "crowddb/internal/workload/cache"
)

// RowStream is a statement's answer, read a batch or a row at a time. Do
// opens it on the caller's stream, and ExecSQL and ExecSQLNoCache drain
// it into a Result, so there is one path from the text to the answer:
// probe the result cache with the text, parse, plan and open under the
// snapshot gate's read side, and on a missing expandable column expand
// and open again (DB.run).
//
// A SELECT the cache did not answer is read from the executor: a
// RowStream holds no locks between calls, the storage cursors underneath
// pin an immutable MVCC snapshot at open and read it lock-free, so a
// client slowly draining a large result never blocks snapshots, writers,
// or expansions. The stream sees the tables as of open; concurrent
// mutations land in later versions it never reads. While the cache could
// still store the answer, each batch is also copied for it
// (rescache.Fill); the copy is offered to the cache when the last batch
// has been read. A hit is read from the entry's shared batches, and any
// other statement's answer — DML, DDL, EXPLAIN, EXPAND — is in hand when
// the stream opens.
//
// Ownership is exec.Iterator's rule: a batch from NextBatch belongs to
// the stream — read it until the next NextBatch or Close, never write
// through it, copy what is kept. Next is the boxed view of the same rows,
// one at a time, each fresh memory the caller may keep; use one or the
// other on a stream. The statement is accounted — the execute phase, the
// end-to-end latency, the trace and the slow-query log — when the last
// batch has been read, or at Close if it is closed first. Close must be
// called when done (it is idempotent).
type RowStream struct {
	db *DB
	// reading says x reads a SELECT the cache missed from the executor;
	// otherwise the answer is in hand — a hit's shared batches, a
	// statement's that is not a SELECT — which done holds, and next walks.
	// done is also what the drains return.
	reading bool
	x       selectExec
	done    Result
	next    int
	report  *ExpansionReport
	rows    int

	// The statement's start (parse included), its trace — nil when
	// untraced — and whether the trace is the caller's or only the
	// slow-query log's.
	start    time.Time
	qt       *QueryTrace
	traced   bool
	finished bool

	view *rowView // Next's, made at its first call
}

// selectExec is a RowStream's SELECT the cache missed: the executor's
// answer, the cache's copy of it (rescache.Fill), the time spent in the
// executor — the open, then every batch and its copy — and the plan and
// operator trace a traced statement's tree is annotated from.
type selectExec struct {
	res      *engine.StreamResult // nil until opened, or when the open failed
	fill     rescache.Fill
	plan     *plan.SelectPlan
	tr       *exec.Trace
	exec     time.Duration
	failed   error // an executor error, which ends the answer
	closeErr error
}

// rowView is Next's view of the current batch, and the error that follows
// it.
type rowView struct {
	boxed []storage.Row
	pos   int
	err   error
}

// Columns returns the output column names.
func (s *RowStream) Columns() []string {
	if s.reading {
		return s.x.res.Columns
	}
	return s.done.Columns
}

// Expansion reports the schema expansion this query triggered, if any.
func (s *RowStream) Expansion() *ExpansionReport { return s.report }

// Rows returns the number of rows streamed so far.
func (s *RowStream) Rows() int { return s.rows }

// Affected is Result.Affected: the rows a SELECT answered — those read so
// far, all of them once the stream is over — or the rows DML changed.
func (s *RowStream) Affected() int {
	if s.reading {
		return s.rows
	}
	return s.done.Affected
}

// Message is Result.Message: the summary of DDL and EXPAND.
func (s *RowStream) Message() string { return s.done.Message }

// Trace returns the statement's trace when it was opened traced (nil
// otherwise); it is complete once the last batch has been read.
func (s *RowStream) Trace() *QueryTrace {
	if !s.traced {
		return nil
	}
	return s.qt
}

// NextBatch returns the next batch of rows, nil at end of stream; a batch
// and an error may come together, the rows first. No gate acquisition:
// the cursors read a pinned snapshot, and the gate only orders mutations
// against WAL capture — a pure reader needs neither.
func (s *RowStream) NextBatch() (*storage.Batch, error) {
	b, err := s.nextBatch()
	if b != nil {
		s.rows += len(b.Sel)
	}
	return b, err
}

func (s *RowStream) nextBatch() (*storage.Batch, error) {
	x := &s.x
	if !s.reading {
		if s.next < len(s.done.Batches) {
			s.next++
			return &s.done.Batches[s.next-1], nil
		}
		s.finish(true, nil)
		return nil, nil
	}
	start := time.Now()
	b, err := x.res.NextBatch()
	if b != nil {
		x.fill.Add(b)
	}
	x.exec += time.Since(start)
	if err != nil {
		x.failed = err
	}
	if b == nil {
		s.finish(x.failed == nil, x.failed)
	}
	return b, err
}

// Next returns the next row, or ok=false at end of stream.
func (s *RowStream) Next() (storage.Row, bool, error) {
	if s.view == nil {
		s.view = &rowView{}
	}
	v := s.view
	for v.pos >= len(v.boxed) {
		if err := v.err; err != nil {
			v.err = nil
			return nil, false, err
		}
		b, err := s.nextBatch()
		if b == nil {
			return nil, false, err
		}
		v.boxed, v.pos, v.err = b.AppendRows(v.boxed[:0]), 0, err
	}
	v.pos++
	s.rows++
	return v.boxed[v.pos-1], true, nil
}

// Close releases the stream's resources and accounts a statement whose
// answer was not read to its end.
func (s *RowStream) Close() error {
	s.finish(false, s.x.failed)
	return s.x.closeErr
}

// finish ends the statement once: it closes the executor's answer —
// releasing its pin the moment the last batch is read — hands a complete
// answer's copy to the cache (a partial one is dropped and its capture
// given back: no entry, and no sighting for the doorkeeper), and does the
// accounting.
func (s *RowStream) finish(complete bool, err error) {
	if s.finished {
		return
	}
	s.finished = true
	var execDur time.Duration
	if x := &s.x; s.reading {
		if x.res != nil {
			x.closeErr = x.res.Close()
		}
		if complete {
			x.fill.Finish()
		} else {
			x.fill.Abandon()
		}
		execDur = x.exec
		mQueryPhase.With("execute").Observe(execDur.Seconds())
	}
	total := time.Since(s.start)
	mQuerySeconds.Observe(total.Seconds())
	if qt := s.qt; qt != nil {
		qt.TotalUS = total.Microseconds()
		qt.ExecUS += execDur.Microseconds()
		qt.Rows = s.Affected()
		if s.x.tr != nil && err == nil {
			qt.Plan = s.x.plan.ExplainWith(s.x.tr.Annotate)
		}
		s.db.logSlow(qt, total, err)
	}
}

// Mode is what Do does about a query-driven expansion, and which
// statements it answers.
type Mode uint8

const (
	// ModeWait waits for the expansion and answers any statement.
	ModeWait Mode = iota
	// ModeAsync hands back the expansion's job instead of waiting.
	ModeAsync
	// ModeStream waits and answers SELECTs only, never through the
	// result cache.
	ModeStream
)

// Request is one statement as a client asks for it: the text, the mode,
// and whether to bypass the result cache — neither served from it nor
// stored into it — and to attach the statement's QueryTrace
// (RowStream.Trace).
type Request struct {
	SQL     string
	Mode    Mode
	NoCache bool
	Trace   bool
}

// Do opens req's answer on s: the one way into a statement. It probes the
// result cache with the text (unless NoCache, or ModeStream), and on a
// miss parses the text and runs it (DB.run). A traced statement — or
// every statement, when a slow-query threshold is set (autoTrace) —
// assembles a QueryTrace, which a traced hit fills in by planning the
// text after the fact.
//
// A statement that needs a schema expansion submits it, or joins the one
// in flight. ModeAsync returns its job at once: poll it or Wait on it,
// then issue the request again. The other modes wait for it until ctx is
// done; a caller that gives up gets ctx's error, and the job runs on, so
// a later request is answered from the column it filled.
//
// s is the caller's — the server recycles them, so a request allocates
// no stream — and is overwritten: the caller must have closed what it
// held, and must Close it again when done with this answer. An error, or
// a job, leaves s finished.
func (db *DB) Do(ctx context.Context, s *RowStream, req Request) (*jobs.Job, error) {
	*s = RowStream{db: db, start: time.Now(), traced: req.Trace}
	if req.Trace || db.autoTrace() {
		s.qt = &QueryTrace{SQL: req.SQL}
	}
	key, hit := db.cachedResult(s, req.SQL, req.NoCache || req.Mode == ModeStream)
	if hit {
		if req.Trace {
			db.explainHit(req.SQL, s.qt)
		}
		return nil, nil
	}
	parseStart := time.Now()
	stmt, err := sqlparse.Parse(req.SQL)
	parse := time.Since(parseStart)
	mQueryPhase.With("parse").Observe(parse.Seconds())
	if s.qt != nil {
		s.qt.ParseUS = parse.Microseconds()
	}
	if _, ok := stmt.(*sqlparse.SelectStmt); err == nil && !ok && req.Mode == ModeStream {
		err = fmt.Errorf("core: streaming supports SELECT statements only, got %T", stmt)
	}
	if err != nil {
		s.finished = true // a statement that never ran is not accounted
		return nil, err
	}
	job, err := db.run(ctx, s, stmt, key, req.Mode == ModeAsync)
	if err != nil || job != nil {
		s.finish(false, err)
	}
	return job, err
}

// drain answers req through Do on a stream of its own, waiting for any
// expansion to its end (ExecSQL's signature carries no context), and
// reads the answer into a Result with a SELECT's rows boxed: fresh memory
// the caller owns. A hit's Result also carries the entry's shared batches.
func (db *DB) drain(req Request) (*Result, *ExpansionReport, error) {
	var s RowStream
	if _, err := db.Do(context.TODO(), &s, req); err != nil {
		return nil, nil, err
	}
	defer s.Close()
	r := new(Result)
	*r = s.done
	if !s.reading {
		s.finish(true, nil)
		return r.Boxed(), s.report, nil
	}
	for {
		b, err := s.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			break
		}
		r.Rows = b.AppendRows(r.Rows)
	}
	r.Columns, r.Affected = s.x.res.Columns, s.rows
	return r, s.report, nil
}

// run opens stmt's answer on s: the one loop "open, and on a missing
// expandable column expand and open again". The expansion is submitted
// (or joined) on the job scheduler; async hands its job back instead of
// waiting for it, as it does an EXPAND's, and otherwise it is waited for
// until ctx is done. A SELECT's answer is stored in the result cache
// under key, its text ("" stores nothing: NoCache, or a stream).
func (db *DB) run(ctx context.Context, s *RowStream, stmt sqlparse.Statement, key string, async bool) (*jobs.Job, error) {
	if ex, ok := stmt.(*sqlparse.ExpandStmt); ok {
		job, err := db.submitExpandStmt(ex)
		if err != nil || async {
			return job, err
		}
		if s.report, err = waitReport(ctx, job); err != nil {
			return nil, err
		}
		s.done.Message = fmt.Sprintf("expanded %s.%s via %s: %d filled, %d unfilled, $%.2f",
			ex.Table, ex.Column.Name, s.report.Method, s.report.Filled, s.report.Unfilled, s.report.Cost)
		return nil, nil
	}
	err := db.open(s, stmt, key)
	if err == nil {
		return nil, nil
	}
	job, err := db.submitMissingColumn(stmt, err)
	if job == nil || async {
		return job, err
	}
	if s.report, err = waitReport(ctx, job); err != nil {
		return nil, err
	}
	return nil, db.open(s, stmt, key)
}

// open opens stmt's answer on s under the snapshot gate, so DML lands
// atomically with respect to Snapshot; SELECT-heavy workloads are not
// serialized, since statements take the gate's read side. A SELECT is
// planned and opened (openSelect), then read without the gate; every
// other statement runs to its end here. DROP INDEX takes the gate's write
// side: a statement planned over an index finds it by name when it
// opens, so no statement may sit between the two while it goes.
func (db *DB) open(s *RowStream, stmt sqlparse.Statement, key string) error {
	if _, ok := stmt.(*sqlparse.DropIndexStmt); ok {
		db.gate.Lock()
		defer db.gate.Unlock()
	} else {
		db.gate.RLock()
		defer db.gate.RUnlock()
	}
	var res *Result
	var err error
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return db.openSelect(s, st, key)
	// Index DDL takes a detour for the virtual-column check, its
	// durability record, and cache invalidation (see indexes.go).
	case *sqlparse.CreateIndexStmt:
		res, err = db.execCreateIndex(st)
	case *sqlparse.DropIndexStmt:
		res, err = db.execDropIndex(st)
	default:
		res, err = db.engine.Run(stmt)
	}
	if err == nil {
		s.done = *res
	}
	return err
}
