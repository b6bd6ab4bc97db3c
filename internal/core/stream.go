package core

import (
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

// RowStream is a statement's answer, read a batch or a row at a time. It
// is what every entry point opens — QueryStream, ExecSQLStream and
// ExecSQLAsync hand it over, Query, Exec and the ExecSQL variants drain it
// into a Result — so there is one path from the text to the answer: probe
// the result cache with the text, parse, plan and open under the
// snapshot gate's read side, and on a missing expandable column expand and
// open again (DB.run).
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
// answer's copy to the cache (a partial one is dropped: no entry, and no
// sighting for the doorkeeper), and does the accounting.
func (s *RowStream) finish(complete bool, err error) {
	if s.finished {
		return
	}
	s.finished = true
	var execDur time.Duration
	if x := &s.x; s.reading {
		if x.res != nil {
			x.closeErr = x.res.Close()
			if complete {
				x.fill.Finish()
			}
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

// result drains the stream into a Result of its own: the rows boxed,
// fresh memory the caller owns, or the answer as owned batches — a hit's
// shared ones, or a copy of the executor's. The stream is closed, and not
// referenced by the Result: a drain's stream can live on its caller's
// stack.
func (s *RowStream) result(boxed bool) (*Result, error) {
	defer s.Close()
	r := new(Result)
	*r = s.done
	if !s.reading {
		s.finish(true, nil)
		if boxed {
			r.Boxed()
		}
		return r, nil
	}
	for {
		b, err := s.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if boxed {
			r.Rows = b.AppendRows(r.Rows)
		} else {
			r.Batches = storage.AppendOwned(r.Batches, b)
		}
	}
	r.Columns, r.Affected = s.x.res.Columns, s.rows
	return r, nil
}

// queryMode is what an entry point does about a query-driven expansion,
// and which answers it takes.
type queryMode uint8

const (
	// modeWait waits for the expansion and answers any statement.
	modeWait queryMode = iota
	// modeAsync hands back the expansion's job instead of waiting.
	modeAsync
	// modeStream waits and answers SELECTs only.
	modeStream
)

// query is the text's side of every entry point: probe the result cache
// with the text (unless nocache) and on a miss parse it and run it (DB.run).
// A traced statement — or every statement, when the database traces
// everything (autoTrace) — assembles a QueryTrace, which a traced hit
// fills in by planning the text after the fact. The answer is opened on
// s, the caller's, which is overwritten; an error, or a job (modeAsync),
// leaves s finished.
func (db *DB) query(s *RowStream, sql string, mode queryMode, nocache, traced bool) (*jobs.Job, error) {
	*s = RowStream{db: db, start: time.Now(), traced: traced}
	if traced || db.autoTrace() {
		s.qt = &QueryTrace{SQL: sql}
	}
	key, hit := db.cachedResult(s, sql, nocache)
	if hit {
		if traced {
			db.explainHit(sql, s.qt)
		}
		return nil, nil
	}
	parseStart := time.Now()
	stmt, err := sqlparse.Parse(sql)
	parse := time.Since(parseStart)
	mQueryPhase.With("parse").Observe(parse.Seconds())
	if s.qt != nil {
		s.qt.ParseUS = parse.Microseconds()
	}
	if _, ok := stmt.(*sqlparse.SelectStmt); err == nil && !ok && mode == modeStream {
		err = fmt.Errorf("core: streaming supports SELECT statements only, got %T", stmt)
	}
	if err != nil {
		s.finished = true // a statement that never ran is not accounted
		return nil, err
	}
	job, err := db.run(s, stmt, key, mode == modeAsync)
	if err != nil || job != nil {
		s.finish(false, err)
	}
	return job, err
}

// run opens stmt's answer on s: the one loop "open, and on a missing
// expandable column expand and open again" of every entry point. The
// expansion is submitted (or joined) on the job scheduler; async hands
// its job back instead of waiting for it, as it does an EXPAND's. A
// SELECT's answer is stored in the result cache under key, its text (""
// stores nothing: nocache, a stream, or a statement handed over parsed).
func (db *DB) run(s *RowStream, stmt sqlparse.Statement, key string, async bool) (*jobs.Job, error) {
	if ex, ok := stmt.(*sqlparse.ExpandStmt); ok {
		job, err := db.submitExpandStmt(ex)
		if err != nil || async {
			return job, err
		}
		if s.report, err = waitReport(job); err != nil {
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
	if s.report, err = waitReport(job); err != nil {
		return nil, err
	}
	return nil, db.open(s, stmt, key)
}

// open opens stmt's answer on s under the snapshot gate, so DML lands
// atomically with respect to Snapshot; SELECT-heavy workloads are not
// serialized, since statements take the gate's read side. A SELECT is
// planned and opened (openSelect), then read without the gate; every
// other statement runs to its end here.
func (db *DB) open(s *RowStream, stmt sqlparse.Statement, key string) error {
	db.gate.RLock()
	defer db.gate.RUnlock()
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

// QueryStream opens one statement's answer on s for the server's
// buffered path: probe the result cache with the text (unless nocache),
// and on a miss parse, plan and open it, waiting for any expansion it
// triggers. traced attaches the statement's QueryTrace (RowStream.Trace),
// which ?trace=1 encodes after the rows. s is the caller's — the server
// recycles them, so a request allocates no stream — and is overwritten:
// the caller must have closed what it held, and must Close it again when
// done with this answer, error or not.
func (db *DB) QueryStream(s *RowStream, sql string, nocache, traced bool) error {
	_, err := db.query(s, sql, modeWait, nocache, traced)
	return err
}

// ExecSQLStream parses sql and opens a SELECT for consumption a batch or
// a row at a time. Like ExecSQL, a query referencing a registered
// expandable column triggers (or joins) the expansion job and blocks
// until it completes — the stream only starts producing rows once the
// column is filled, so a client never observes a half-expanded answer.
// Like ExecSQL's SELECTs it feeds the workload tracker and the query
// metrics; unlike them it neither reads nor fills the result cache.
// Statements other than SELECT are not streamable.
func (db *DB) ExecSQLStream(sql string) (*RowStream, error) {
	s := new(RowStream)
	if _, err := db.query(s, sql, modeStream, true, false); err != nil {
		return nil, err
	}
	return s, nil
}
