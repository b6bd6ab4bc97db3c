package core

import (
	"log/slog"
	"time"
	"unicode/utf8"
)

// QueryTrace is one query's phase breakdown, produced by a traced
// request (Request.Trace: the POST /v1/query?trace=1 payload) and for the
// slow-query log record.
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

// autoTrace reports whether untraced statements should run traced anyway:
// a slow-query threshold needs the operator breakdown in hand *before*
// it knows the query was slow, so configuring -slow-query prices every
// SELECT at traced cost. The ≤2% overhead contract of
// BenchmarkInstrumentedSelect applies only with it off.
func (db *DB) autoTrace() bool { return db.slowQuery > 0 }

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
