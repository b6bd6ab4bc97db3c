package core

import (
	"fmt"
	"time"

	"crowddb/internal/engine"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// RowStream is a pull-based SELECT result over a crowd-enabled database.
//
// Unlike Exec, which materializes the whole answer under one read-side
// acquisition of the snapshot gate, a RowStream holds no locks at all
// between calls: the storage cursors underneath pin an immutable MVCC
// snapshot at open and read it lock-free, so a client slowly draining a
// large result never blocks snapshots, writers, or expansions for the
// duration of the transfer. The stream sees the table as of open;
// concurrent mutations land in later versions it never reads.
//
// Ownership is exec.Iterator's rule: a batch from NextBatch belongs to
// the stream — read it until the next NextBatch or Close, never write
// through it, copy what is kept. Next is the boxed view of the same rows,
// one at a time, each fresh memory the caller may keep; use one or the
// other on a stream. Close must be called when done (it is idempotent):
// it releases the pin and accounts the statement's execute phase and
// end-to-end latency.
type RowStream struct {
	res    *engine.StreamResult
	report *ExpansionReport
	rows   int
	start  time.Time     // of the statement, parse included
	exec   time.Duration // in the executor: the open, then every batch

	// Next's view of the current batch, and the error that follows it.
	boxed []storage.Row
	pos   int
	err   error
}

// Columns returns the output column names.
func (s *RowStream) Columns() []string { return s.res.Columns }

// Expansion reports the schema expansion this query triggered, if any.
func (s *RowStream) Expansion() *ExpansionReport { return s.report }

// Rows returns the number of rows streamed so far.
func (s *RowStream) Rows() int { return s.rows }

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
	start := time.Now()
	b, err := s.res.NextBatch()
	s.exec += time.Since(start)
	return b, err
}

// Next returns the next row, or ok=false at end of stream.
func (s *RowStream) Next() (storage.Row, bool, error) {
	for s.pos >= len(s.boxed) {
		if err := s.err; err != nil {
			s.err = nil
			return nil, false, err
		}
		b, err := s.nextBatch()
		if b == nil {
			return nil, false, err
		}
		s.boxed, s.pos, s.err = b.AppendRows(s.boxed[:0]), 0, err
	}
	s.pos++
	s.rows++
	return s.boxed[s.pos-1], true, nil
}

// Close releases the stream's resources.
func (s *RowStream) Close() error {
	if !s.start.IsZero() {
		mQueryPhase.With("execute").Observe(s.exec.Seconds())
		mQuerySeconds.Observe(time.Since(s.start).Seconds())
		s.start = time.Time{}
	}
	return s.res.Close()
}

// ExecSQLStream parses sql and opens a SELECT for consumption a batch or
// a row at a time. Like ExecSQL, a query referencing a registered
// expandable column triggers (or joins) the expansion job and blocks
// until it completes — the stream only starts producing rows once the
// column is filled, so a client never observes a half-expanded answer.
// Like ExecSQL's SELECTs it feeds the workload tracker and the query
// metrics. Statements other than SELECT are not streamable.
func (db *DB) ExecSQLStream(sql string) (*RowStream, error) {
	start := time.Now()
	stmt, err := sqlparse.Parse(sql)
	mQueryPhase.With("parse").Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: streaming supports SELECT statements only, got %T", stmt)
	}

	s := &RowStream{start: start}
	open := func() error {
		// Planning validates columns and opening the iterators pins the
		// snapshot (blocking operators do their work here), both under the
		// gate's read side; the batches are then read without it.
		db.gate.RLock()
		defer db.gate.RUnlock()
		p, _, err := db.planSelect(sel, nil)
		if err != nil {
			return err
		}
		execStart := time.Now()
		s.res, err = engine.OpenPlan(p)
		s.exec += time.Since(execStart)
		return err
	}

	err = open()
	if err == nil {
		return s, nil
	}
	// Plan-time detection of a missing expandable column: the job runs
	// (or is joined) before a single row is produced.
	job, err := db.submitMissingColumn(stmt, err)
	if job == nil {
		return nil, err
	}
	if s.report, err = waitReport(job); err != nil {
		return nil, err
	}
	if err := open(); err != nil {
		return nil, err
	}
	return s, nil
}
