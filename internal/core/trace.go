package core

import (
	"log/slog"
	"time"
	"unicode/utf8"
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
	return db.drain(sql, nocache, true, true)
}

// autoTrace reports whether untraced statements should run traced anyway:
// a slow-query threshold needs the operator breakdown in hand *before*
// it knows the query was slow, so configuring -slow-query (or -trace)
// prices every SELECT at traced cost. The ≤2% overhead contract of
// BenchmarkInstrumentedSelect applies only with both off.
func (db *DB) autoTrace() bool { return db.traceAll || db.slowQuery > 0 }

// Query is ExecSQL with the answer left columnar: Result.Batches — a
// hit's, shared with the result cache, or an owned copy of the executor's
// — and no Rows. nocache bypasses the
// cache, traced returns the statement's QueryTrace (see QueryStream, which
// leaves the answer to be read from the executor instead).
func (db *DB) Query(sql string, nocache, traced bool) (*Result, *ExpansionReport, *QueryTrace, error) {
	return db.drain(sql, nocache, traced, false)
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
