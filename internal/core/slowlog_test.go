package core

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// lockedBuffer is a bytes.Buffer a log handler may write from any goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns the records written since the last take, decoded.
func (b *lockedBuffer) take(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	b.buf.Reset()
	return out
}

// captureLog sends the default slog logger's records to a buffer, as JSON,
// until the test ends.
func captureLog(t *testing.T) *lockedBuffer {
	t.Helper()
	buf := new(lockedBuffer)
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(buf, nil)))
	t.Cleanup(func() { slog.SetDefault(old) })
	return buf
}

// slowRecords returns the "slow query" records among recs.
func slowRecords(recs []map[string]any) []map[string]any {
	var out []map[string]any
	for _, r := range recs {
		if r["msg"] == "slow query" {
			out = append(out, r)
		}
	}
	return out
}

// slowQueryKeys are the keys of DESIGN.md §17's slow-query record that
// every record carries.
var slowQueryKeys = []string{"sql", "total_us", "parse_us", "plan_us",
	"cache_lookup_us", "execute_us", "cache_hit", "rows", "threshold"}

// The slow-query log (DESIGN.md §17): one WARN record per statement at or
// over the threshold, none under it, with the stable keys, a plan for a
// miss and none for a hit, the SQL cut at 512 bytes on a rune boundary,
// and crowddb_slow_queries_total counting the records. Logging it traces
// the statement internally, but RowStream.Trace stays the caller's to ask
// for.
func TestSlowQueryLog(t *testing.T) {
	logs := captureLog(t)
	slow, err := Open(Options{SlowQuery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	for _, sql := range []string{
		`CREATE TABLE nums (n INTEGER, s TEXT)`,
		`INSERT INTO nums VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e')`,
	} {
		if _, _, err := slow.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	logs.take(t)

	// exactlyOne runs sql on slow and returns the one slow-query record it
	// logged, checking the counter moved by one.
	exactlyOne := func(sql string) map[string]any {
		t.Helper()
		before := mSlowQueries.Value()
		if _, _, err := slow.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		recs := slowRecords(logs.take(t))
		if len(recs) != 1 {
			t.Fatalf("%s: %d slow-query records, want 1: %v", sql, len(recs), recs)
		}
		if got := mSlowQueries.Value() - before; got != 1 {
			t.Fatalf("%s: crowddb_slow_queries_total moved by %d, want 1", sql, got)
		}
		rec := recs[0]
		if rec["level"] != "WARN" {
			t.Fatalf("%s: level %v, want WARN", sql, rec["level"])
		}
		for _, k := range slowQueryKeys {
			if _, ok := rec[k]; !ok {
				t.Fatalf("%s: record %v has no %q", sql, rec, k)
			}
		}
		if rec["threshold"] != "1ns" {
			t.Fatalf("%s: threshold %v, want 1ns", sql, rec["threshold"])
		}
		return rec
	}

	const query = `SELECT n FROM nums WHERE n >= 2`
	miss := exactlyOne(query)
	if miss["sql"] != query || miss["cache_hit"] != false || miss["rows"] != float64(4) {
		t.Fatalf("miss record %v", miss)
	}
	if plan, ok := miss["plan"].([]any); !ok || len(plan) == 0 {
		t.Fatalf("a miss's record carries its plan, got %v", miss["plan"])
	}
	hit := exactlyOne(query)
	if hit["cache_hit"] != true || hit["rows"] != float64(4) {
		t.Fatalf("hit record %v", hit)
	}
	if _, ok := hit["plan"]; ok {
		t.Fatalf("a hit parsed nothing, so its record has no plan: %v", hit)
	}

	// A long statement: the 512th byte falls inside a two-byte rune.
	long := `SELECT n FROM nums WHERE s <> 'xy` + strings.Repeat("é", 300) + `'`
	if utf8.RuneStart(long[512]) {
		t.Fatalf("byte 512 of the long statement starts a rune; the test needs it mid-rune")
	}
	cut, _ := exactlyOne(long)["sql"].(string)
	head, ok := strings.CutSuffix(cut, "…")
	if !ok || !utf8.ValidString(cut) || !strings.HasPrefix(long, head) || len(head) != 511 {
		t.Fatalf("long SQL logged as %d bytes %q, want its first 511 bytes and …", len(cut), cut)
	}

	// Logging traces the statement, yet the stream's trace is only the
	// caller's when it asks.
	for _, traced := range []bool{false, true} {
		s, _, err := do(slow, Request{SQL: `SELECT n FROM nums WHERE n < 3`, Trace: traced, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		batchRows(t, s, nil)
		if got := s.Trace() != nil; got != traced {
			t.Fatalf("Request.Trace %v: RowStream.Trace() non-nil = %v", traced, got)
		}
		if recs := slowRecords(logs.take(t)); len(recs) != 1 {
			t.Fatalf("Request.Trace %v: %d slow-query records, want 1", traced, len(recs))
		}
	}

	fast, err := Open(Options{SlowQuery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	before := mSlowQueries.Value()
	for _, sql := range []string{`CREATE TABLE t (a INTEGER)`, `INSERT INTO t VALUES (1)`, `SELECT a FROM t`} {
		if _, _, err := fast.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if recs := slowRecords(logs.take(t)); len(recs) != 0 {
		t.Fatalf("statements under the threshold logged %v", recs)
	}
	if got := mSlowQueries.Value() - before; got != 0 {
		t.Fatalf("crowddb_slow_queries_total moved by %d under the threshold", got)
	}
}
