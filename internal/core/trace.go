package core

import (
	"log/slog"
	"time"
	"unicode/utf8"

	"crowddb/internal/sqlparse"
)

// QueryTrace is one query's phase breakdown, produced by ExecSQLTraced
// (the POST /v1/query?trace=1 payload and the slow-query log record).
// Durations are microseconds; Plan carries the operator tree annotated
// with per-operator actuals when the query executed (un-annotated when
// the answer came from the result cache — nothing ran).
type QueryTrace struct {
	SQL     string `json:"sql,omitempty"`
	ParseUS int64  `json:"parse_us"`
	PlanUS  int64  `json:"plan_us"`
	// CacheUS is the result-cache probe time (0 when the cache is
	// disabled or bypassed).
	CacheUS  int64 `json:"cache_lookup_us"`
	ExecUS   int64 `json:"execute_us"`
	TotalUS  int64 `json:"total_us"`
	CacheHit bool  `json:"cache_hit"`
	// Rows is the statement's Result.Affected: rows returned by a SELECT,
	// rows changed by DML.
	Rows int      `json:"rows"`
	Plan []string `json:"plan,omitempty"`
}

// ExecSQLTraced is ExecSQL with per-phase and per-operator tracing on:
// the returned QueryTrace carries the phase split and, for SELECTs that
// actually executed, the plan tree annotated with actual rows and wall
// time per operator. nocache additionally bypasses the result cache
// (?trace=1&nocache=1 composes). Tracing slows the executor's row path,
// so this is the ?trace=1 / slow-query path, not the default.
func (db *DB) ExecSQLTraced(sql string, nocache bool) (*Result, *ExpansionReport, *QueryTrace, error) {
	res, rep, qt, err := db.Query(sql, nocache, true)
	return res.Boxed(), rep, qt, err
}

// autoTrace reports whether untraced statements should run traced anyway:
// a slow-query threshold needs the operator breakdown in hand *before*
// it knows the query was slow, so configuring -slow-query (or -trace)
// prices every SELECT at traced cost. The ≤2% overhead contract of
// BenchmarkInstrumentedSelect applies only with both off.
func (db *DB) autoTrace() bool { return db.traceAll || db.slowQuery > 0 }

// Query is the spine under every ExecSQL variant and the HTTP server:
// probe the result cache with the text (unless nocache), and on a miss
// parse and execute (expansions included, see Exec); record the end-to-end
// and phase metrics, and — when traced, or when the database traces
// everything (autoTrace) — assemble the QueryTrace and feed the slow-query
// log. A hit is neither parsed nor planned, except that a traced one is,
// after the fact, for its trace's plan tree. The result is columnar:
// Result.Batches, possibly shared with the result cache, and no Rows. The
// server encodes from it; the ExecSQL variants box it (Result.Boxed) for
// callers that want rows.
func (db *DB) Query(sql string, nocache, traced bool) (*Result, *ExpansionReport, *QueryTrace, error) {
	var qt *QueryTrace
	if traced || db.autoTrace() {
		qt = &QueryTrace{SQL: sql}
	}
	start := time.Now()
	res, key := db.cachedResult(sql, nocache, qt)
	var rep *ExpansionReport
	var execErr error
	if res == nil {
		parseStart := time.Now()
		stmt, err := sqlparse.Parse(sql)
		parse := time.Since(parseStart)
		mQueryPhase.With("parse").Observe(parse.Seconds())
		if qt != nil {
			qt.ParseUS = parse.Microseconds()
		}
		if err != nil {
			return nil, nil, nil, err
		}
		res, rep, execErr = db.execQT(stmt, key, qt)
	} else if traced {
		db.explainHit(sql, qt)
	}
	total := time.Since(start)
	mQuerySeconds.Observe(total.Seconds())
	if qt != nil {
		qt.TotalUS = total.Microseconds()
		if res != nil {
			qt.Rows = res.Affected
		}
		db.logSlow(qt, total, execErr)
	}
	if !traced {
		qt = nil // assembled for the slow-query log only
	}
	return res, rep, qt, execErr
}

// logSlow emits the slow-query log record when the threshold is set and
// exceeded. Structured (slog) so it is machine-collectable; the format
// contract is DESIGN.md §17.
func (db *DB) logSlow(qt *QueryTrace, total time.Duration, execErr error) {
	if db.slowQuery <= 0 || total < db.slowQuery {
		return
	}
	mSlowQueries.Inc()
	attrs := []any{
		"sql", truncateSQL(qt.SQL),
		"total_us", qt.TotalUS,
		"parse_us", qt.ParseUS,
		"plan_us", qt.PlanUS,
		"cache_lookup_us", qt.CacheUS,
		"execute_us", qt.ExecUS,
		"cache_hit", qt.CacheHit,
		"rows", qt.Rows,
		"threshold", db.slowQuery.String(),
	}
	if len(qt.Plan) > 0 {
		attrs = append(attrs, "plan", qt.Plan)
	}
	if execErr != nil {
		attrs = append(attrs, "error", execErr.Error())
	}
	slog.Warn("slow query", attrs...)
}

// truncateSQL bounds the SQL text in a log record; a multi-megabyte
// INSERT must not become a multi-megabyte log line. The cut backs off to
// a rune boundary, so the record stays valid UTF-8.
func truncateSQL(sql string) string {
	const max = 512
	if len(sql) <= max {
		return sql
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(sql[cut]) {
		cut--
	}
	return sql[:cut] + "…"
}
