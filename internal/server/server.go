// Package server exposes a crowd-enabled database over HTTP/JSON, making
// the system network-servable: queries, async expansion-job polling,
// schema introspection, and ledger accounting.
//
// The API is versioned under /v1/:
//
//	POST /v1/query           {"sql": "...", "mode": "sync"|"async"}
//	POST /v1/query?stream=1  NDJSON row streaming for SELECTs (not async)
//	POST /v1/query?nocache=1 bypass the result cache (any mode)
//	POST /v1/query?trace=1   attach the per-phase/per-operator trace
//	GET  /v1/metrics         Prometheus text exposition of all subsystems
//	GET  /v1/jobs            all expansion jobs, submission order
//	GET  /v1/jobs/{id}       one job (add ?wait=1 to block until terminal)
//	GET  /v1/schema          table names + storage engine
//	GET  /v1/schema/{table}  column/index inventory + storage health
//	GET  /v1/ledger          cumulative crowd spend + per-job breakdown
//	GET  /v1/budgets         per-API-key budget caps and spend
//	GET  /v1/workload        workload trace + result-cache effectiveness
//	POST /v1/admin/expand    explicit pre-warm expansion with budget/key
//	POST /v1/admin/snapshot  persist a snapshot and truncate the WAL
//	POST /v1/admin/compact   force a tombstone-compaction sweep
//	GET  /v1/healthz         liveness (also unversioned: /healthz)
//
// Nothing else answers except, with Config.EnablePprof, net/http/pprof
// under /debug/pprof/*. Every route is wrapped in the observability
// middleware: per-route request counters, latency histograms, an
// in-flight gauge, and a structured request log line with an
// X-Request-Id (inbound IDs propagate). Errors share one envelope —
// {"error":{"code","message","status"}} — with stable machine-readable
// codes (see errors.go and DESIGN.md §16).
//
// Sync queries block until the answer is complete — including any crowd
// expansion they trigger — which can take simulated crowd minutes, or
// until their client hangs up; async queries return 202 with a job handle
// instead. Every mode is one core.Request, answered by one DB.Do. A
// bounded admission semaphore sheds load with 503 + Retry-After once
// MaxInflight queries are in flight, so a burst of expensive queries
// degrades loudly rather than queueing without bound.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Config tunes the HTTP layer.
type Config struct {
	// MaxInflight bounds concurrently admitted /query requests
	// (default 64). Excess requests receive 503 + Retry-After.
	MaxInflight int
	// WaitTimeout caps how long GET /v1/jobs/{id}?wait=1 blocks
	// (default 30s).
	WaitTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — the
	// profiling companion to the storage metrics on
	// GET /v1/schema/{table}. Off by default: profiles expose internals
	// and cost CPU to collect.
	EnablePprof bool
}

func (c *Config) fillDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 30 * time.Second
	}
}

// Server serves one crowd-enabled database over HTTP.
type Server struct {
	db   *core.DB
	cfg  Config
	sem  chan struct{}
	mux  *http.ServeMux
	http *http.Server
}

// New builds a server around db.
func New(db *core.DB, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		db:  db,
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInflight),
		mux: http.NewServeMux(),
	}
	// Every route lives under /v1/; its metric label is the path without
	// the prefix.
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"POST", "/query", s.handleQuery},
		{"GET", "/jobs", s.handleJobs},
		{"GET", "/jobs/{id}", s.handleJob},
		{"GET", "/schema", s.handleSchemaList},
		{"GET", "/schema/{table}", s.handleSchema},
		{"GET", "/ledger", s.handleLedger},
		{"GET", "/budgets", s.handleBudgets},
		{"GET", "/workload", s.handleWorkload},
		{"POST", "/admin/expand", s.handleAdminExpand},
		{"POST", "/admin/snapshot", s.handleSnapshot},
		{"POST", "/admin/compact", s.handleAdminCompact},
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" /v1"+rt.path, s.instrument(rt.path, rt.h))
	}
	// Registered without a method so non-GETs get the error envelope
	// (the mux's own 405 is plain text); the handler enforces GET.
	s.mux.HandleFunc("/v1/metrics", s.instrument("/metrics", s.handleMetrics))
	// Liveness also answers unversioned: load balancers hardcode it.
	healthz := s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /healthz", healthz)
	s.mux.HandleFunc("GET /v1/healthz", healthz)
	if cfg.EnablePprof {
		// net/http/pprof registers on DefaultServeMux as an import side
		// effect; route our mux's /debug/pprof/ — the path go tool pprof
		// expects — straight to the handlers so the profiles come up on
		// the same port as the API.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Built here, not in Serve, so a Shutdown racing (or preceding)
	// Serve still closes the listener instead of silently no-opping.
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the routing handler (exported for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the HTTP listener, letting in-flight requests
// finish. The database (and its expansion scheduler) is owned by the
// caller and is not closed here.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// --- handlers ---

type queryRequest struct {
	SQL string `json:"sql"`
	// Mode is "sync" (default: block until the answer, expansions
	// included) or "async" (return 202 + job when an expansion is
	// needed): core.ModeWait or core.ModeAsync.
	Mode string `json:"mode"`
}

// queryTail is every member of the /v1/query envelope after "columns" and
// "rows" — which writeQueryResponse encodes from the result's vectors —
// in the envelope's member order.
type queryTail struct {
	Affected  int                   `json:"affected"`
	Message   string                `json:"message,omitempty"`
	Expansion *core.ExpansionReport `json:"expansion,omitempty"`
	Job       *jobs.Status          `json:"job,omitempty"`
	// Trace is the per-phase and per-operator breakdown, present only
	// for ?trace=1 requests.
	Trace *core.QueryTrace `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		writeError(w, http.StatusServiceUnavailable, CodeQueueFull,
			fmt.Errorf("server: admission queue full (%d in flight)", s.cfg.MaxInflight))
		return
	}

	x := w.(*exchange) // every route is served through instrument
	body := &x.query
	if !x.decodeBody(r, body) {
		return
	}
	if body.SQL == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("server: empty sql"))
		return
	}

	// ?nocache=1 bypasses the semantic result cache for this statement —
	// the escape hatch for clients that must observe the live rows (e.g.
	// verifying an invalidation bug) without disabling the cache globally.
	// ?trace=1 executes with per-phase and per-operator tracing on and
	// attaches the annotated plan tree to the answer.
	params := queryParams(r)
	req := core.Request{SQL: body.SQL, NoCache: boolParam(params, "nocache"), Trace: boolParam(params, "trace")}
	switch body.Mode {
	case "", "sync":
	case "async":
		req.Mode = core.ModeAsync
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("server: unknown mode %q", body.Mode))
		return
	}
	if boolParam(params, "stream") {
		if req.Mode == core.ModeAsync {
			writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("server: stream=1 is incompatible with mode=async"))
			return
		}
		req.Mode = core.ModeStream
	}

	// A client that hangs up while its query waits for the crowd ends
	// the wait — and frees its admission slot — but not the expansion.
	ans := &x.ans
	defer ans.Close() // the answer was read to its end, or the request failed
	job, err := s.db.Do(r.Context(), ans, req)
	switch {
	case err != nil:
		writeQueryError(w, err)
	case job != nil:
		st := job.Status()
		x.writeQueryResponse(http.StatusAccepted, nil, queryTail{Job: &st})
	case req.Mode == core.ModeStream:
		x.streamQuery(r)
	default:
		x.writeQueryResponse(http.StatusOK, ans, queryTail{Expansion: ans.Expansion(), Trace: ans.Trace()})
	}
}

// streamQuery serves an opened SELECT as NDJSON (one JSON object per
// line): a header line {"columns": […]}, then {"row": […]} per result
// row, and finally a trailer {"done": true, "rows": n, "expansion": …,
// "trace": …} — or {"error": "…"} at whatever point the query failed, or
// at the first row holding a value JSON cannot carry (NaN, ±Inf). Rows
// are encoded from the stream's batches as they are produced and the
// response is flushed as it goes, so a client sees data while the scan
// is still running; the stream holds a snapshot pin, never a lock, for
// the duration of the transfer.
func (x *exchange) streamQuery(r *http.Request) {
	w, stream, rows := x, &x.ans, &x.rows
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := w.Flush

	_ = enc.Encode(map[string]any{"columns": stream.Columns()})
	flush()
	// Flush once flushEvery rows are written: responsive without one
	// syscall per row.
	const flushEvery = 64
	unflushed := 0
	ctx := r.Context()
	for {
		// A disconnected client must stop the scan, not leave it running
		// to exhaustion against a dead connection.
		if ctx.Err() != nil {
			return
		}
		b, err := stream.NextBatch()
		if b != nil {
			lines, encErr := rows.lines(b)
			if _, werr := w.Write(lines); werr != nil {
				return // the client is gone
			}
			if encErr != nil {
				err = encErr // the rows before it are out
			} else if unflushed += len(b.Sel); unflushed >= flushEvery {
				flush()
				unflushed = 0
			}
		}
		if err != nil {
			_ = enc.Encode(map[string]any{"error": err.Error()})
			flush()
			return
		}
		if b == nil {
			break
		}
	}
	trailer := map[string]any{"done": true, "rows": stream.Rows()}
	if rep := stream.Expansion(); rep != nil {
		trailer["expansion"] = rep
	}
	if qt := stream.Trace(); qt != nil {
		trailer["trace"] = qt
	}
	_ = enc.Encode(trailer)
	flush()
}

// rowEncoder writes result rows as JSON arrays straight from column
// vectors into one reused buffer — the {"row":[…]} lines of an NDJSON
// stream and the "rows" member of the buffered envelope — byte for byte
// what json.Encoder makes of []any{…} of the cells, without the []any and
// the boxed cell: numbers through strconv, in encoding/json's float
// format, and only text through encoding/json itself.
type rowEncoder struct {
	buf  []byte
	text bytes.Buffer
	enc  *json.Encoder // into text
	str  string        // the text cell being encoded: a *string boxes without allocating
	cols []string      // the column names being encoded, likewise
	tail queryTail     // and the envelope's tail
}

// cell appends cell i of v. NaN and ±Inf have no JSON form and are an
// error, as they are to json.Encoder.
func (e *rowEncoder) cell(b []byte, v *storage.Vector, i int) ([]byte, error) {
	switch val := v.Value(i); val.Kind() {
	case storage.KindBool:
		t, _ := val.AsBool()
		b = strconv.AppendBool(b, t)
	case storage.KindInt:
		n, _ := val.AsInt()
		b = strconv.AppendInt(b, n, 10)
	case storage.KindFloat:
		f, _ := val.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("%v has no JSON form", f)
		}
		// encoding/json's float64 format: the shortest digits that
		// round-trip, in exponent form outside [1e-6, 1e21), the
		// exponent's leading zero dropped.
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, f, format, -1, 64)
		if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	case storage.KindText:
		e.str, _ = val.AsText()
		return e.json(b, &e.str)
	default:
		b = append(b, "null"...)
	}
	return b, nil
}

// json appends encoding/json's form of v, without Encode's newline.
func (e *rowEncoder) json(b []byte, v any) ([]byte, error) {
	e.text.Reset()
	if err := e.enc.Encode(v); err != nil {
		return b, err
	}
	return append(b, e.text.Bytes()[:e.text.Len()-1]...), nil
}

// row appends the array of row i's cells; with an error it says which
// column's cell has no JSON form.
func (e *rowEncoder) row(b []byte, cols []storage.Vector, i int) (_ []byte, col int, err error) {
	b = append(b, '[')
	for c := range cols {
		if c > 0 {
			b = append(b, ',')
		}
		if b, err = e.cell(b, &cols[c], i); err != nil {
			return b, c, err
		}
	}
	return append(b, ']'), 0, nil
}

// lines returns the {"row":[…]} lines of a batch's rows, valid until the
// encoder's next call. A cell without a JSON form is an error, and what
// is returned with it is the lines of the rows before.
func (e *rowEncoder) lines(batch *storage.Batch) ([]byte, error) {
	b := e.buf[:0]
	for _, i := range batch.Sel {
		start := len(b)
		b = append(b, `{"row":`...)
		var err error
		if b, _, err = e.row(b, batch.Cols, int(i)); err != nil {
			e.buf = b[:start]
			return e.buf, err
		}
		b = append(b, "}\n"...)
	}
	e.buf = b
	return b, nil
}

// answer is a statement's answer as the envelope reads it: a
// *core.RowStream — the executor's batches, a cache entry's, or an
// answer in hand — read to its end, after which Affected and Message are
// final.
type answer interface {
	Columns() []string
	NextBatch() (*storage.Batch, error)
	Affected() int
	Message() string
}

// unencodableError is an answer the envelope cannot carry: a cell without
// a JSON form.
type unencodableError struct{ error }

// envelope returns the /v1/query response body, valid until the
// encoder's next call — byte for byte json.Encoder's encoding of
//
//	struct {
//		Columns []string `json:"columns,omitempty"`
//		Rows    [][]any  `json:"rows,omitempty"`
//		queryTail
//	}
//
// with ans's rows encoded from its batches as they are read, and its
// Affected and Message in the tail. ans may be nil (an answer that is
// only a job handle). An error reading ans is returned as it is; one
// encoding it is an unencodableError.
func (e *rowEncoder) envelope(ans answer, tail queryTail) ([]byte, error) {
	b := append(e.buf[:0], '{')
	if ans != nil {
		e.cols = ans.Columns()
		defer func() { e.cols = nil }()
		if len(e.cols) > 0 {
			b = append(b, `"columns":`...)
			var err error
			if b, err = e.json(b, &e.cols); err != nil {
				e.buf = b
				return nil, unencodableError{err}
			}
			b = append(b, ',')
		}
		ordinal := 0
		for {
			batch, err := ans.NextBatch()
			if err != nil {
				e.buf = b
				return nil, err
			}
			if batch == nil {
				break
			}
			for _, i := range batch.Sel {
				if ordinal == 0 {
					b = append(b, `"rows":[`...)
				} else {
					b = append(b, ',')
				}
				var col int
				if b, col, err = e.row(b, batch.Cols, int(i)); err != nil {
					e.buf = b
					return nil, unencodableError{fmt.Errorf("server: row %d, column %q: %w", ordinal, e.cols[col], err)}
				}
				ordinal++
			}
		}
		if ordinal > 0 {
			b = append(b, "],"...)
		}
		tail.Affected, tail.Message = ans.Affected(), ans.Message()
	}
	e.text.Reset()
	e.tail = tail
	err := e.enc.Encode(&e.tail)
	e.tail = queryTail{}
	if err != nil {
		e.buf = b
		return nil, unencodableError{err}
	}
	e.buf = append(b, e.text.Bytes()[1:]...) // the tail's members, its closing brace and newline
	return e.buf, nil
}

// writeQueryResponse answers a statement: the envelope of ans and tail,
// encoded whole before the status line is sent — an answer that fails
// while it is read is answered with its error's envelope, and one JSON
// cannot carry with unencodable_value, not with half a body.
func (x *exchange) writeQueryResponse(status int, ans answer, tail queryTail) {
	body, err := x.rows.envelope(ans, tail)
	if err != nil {
		if errors.As(err, new(unencodableError)) {
			writeError(x, http.StatusInternalServerError, CodeUnencodableValue, err)
		} else {
			writeQueryError(x, err)
		}
		return
	}
	x.Header()["Content-Type"] = jsonContentType
	x.WriteHeader(status)
	_, _ = x.Write(body)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.db.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if boolParam(queryParams(r), "wait") {
		if job, ok := s.db.JobHandle(id); ok {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.WaitTimeout)
			defer cancel()
			// Result/error surface through the status below; a wait
			// timeout simply returns the still-running snapshot.
			_, _ = job.Wait(ctx)
		}
	}
	st, ok := s.db.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("server: no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSchemaList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"tables":  s.db.Catalog().Names(),
		"backend": core.BackendName,
	})
}

type columnInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Perceptual bool   `json:"perceptual"`
	Origin     string `json:"origin"`
}

// indexInfo is one secondary index in the schema inventory. Column is
// the first key column (kept for pre-composite clients); Columns carries
// the full key.
type indexInfo struct {
	Name    string   `json:"name"`
	Column  string   `json:"column"`
	Columns []string `json:"columns,omitempty"`
	Kind    string   `json:"kind"` // "hash" or "ordered"
	Entries int      `json:"entries"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("table")
	tbl, ok := s.db.Catalog().Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("server: no table %q", name))
		return
	}
	schema := tbl.Schema()
	cols := make([]columnInfo, 0, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		c := schema.Column(i)
		cols = append(cols, columnInfo{
			Name: c.Name, Kind: c.Kind.String(),
			Perceptual: c.Perceptual, Origin: c.Origin.String(),
		})
	}
	metas := tbl.IndexMetas()
	indexes := make([]indexInfo, 0, len(metas))
	for _, m := range metas {
		indexes = append(indexes, indexInfo{
			Name: m.Name, Column: m.Column, Columns: m.Columns,
			Kind: m.Kind(), Entries: m.Entries,
		})
	}
	epochs := tbl.LiveSnapshotEpochs()
	if epochs == nil {
		epochs = []uint64{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":   tbl.Name(),
		"rows":    tbl.NumRows(),
		"columns": cols,
		"indexes": indexes,
		// MVCC storage health: sealed chunk count, tombstoned rows not yet
		// compacted (this goes back DOWN when the compactor reclaims them),
		// the epochs readers currently hold pinned (a stuck reader shows up
		// here as an old epoch that never goes away), and cumulative
		// compaction accounting.
		"chunks":               tbl.ChunkCount(),
		"tombstones":           tbl.Tombstones(),
		"live_snapshot_epochs": epochs,
		"compaction":           tbl.CompactionStats(),
	})
}

// jobCost is one job's line in the ledger breakdown.
type jobCost struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	State     jobs.State `json:"state"`
	Origin    string     `json:"origin,omitempty"`
	Judgments int        `json:"judgments"`
	Cost      float64    `json:"cost"`
	Minutes   float64    `json:"minutes"`
	Charges   int        `json:"charges"`
}

// ledgerResponse extends the cumulative totals with a per-job cost
// breakdown (every retained expansion job, submission order — restored
// jobs included after a restart).
type ledgerResponse struct {
	core.LedgerTotals
	PerJob []jobCost `json:"per_job"`
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	resp := ledgerResponse{LedgerTotals: s.db.Ledger(), PerJob: []jobCost{}}
	for _, st := range s.db.Jobs() {
		resp.PerJob = append(resp.PerJob, jobCost{
			ID: st.ID, Key: st.Key, State: st.State, Origin: st.Origin,
			Judgments: st.Ledger.Judgments, Cost: st.Ledger.Cost,
			Minutes: st.Ledger.Minutes, Charges: st.Ledger.Charges,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// adminExpandRequest is the POST /v1/admin/expand body: an explicit
// pre-warm expansion attributed to an API key, with an optional budget
// cap installed for that key in the same call.
type adminExpandRequest struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	// Kind is the column type; only BOOLEAN is crowd-expandable.
	// Defaults to BOOLEAN.
	Kind string `json:"kind,omitempty"`
	// Method is CROWD, SPACE, or HYBRID; empty picks the table default.
	Method string `json:"method,omitempty"`
	// Samples overrides SamplesPerClass for SPACE expansions.
	Samples int `json:"samples,omitempty"`
	// Key attributes the crowd spend to a per-key budget.
	Key string `json:"key,omitempty"`
	// Budget, with Key, installs (or replaces) the key's dollar cap
	// before the expansion is considered.
	Budget float64 `json:"budget,omitempty"`
}

// handleAdminExpand schedules an explicit pre-warm expansion. The
// projected crowd cost is checked against the key's budget cap BEFORE
// any HIT is issued; a request the cap cannot cover is rejected with
// 402 Payment Required (cap and recorded spend are durable, so the
// rejection is reproducible across restarts). Success returns 202 with
// the job handle to poll.
func (s *Server) handleAdminExpand(w http.ResponseWriter, r *http.Request) {
	x := w.(*exchange)
	var req adminExpandRequest
	if !x.decodeBody(r, &req) {
		return
	}
	if req.Table == "" || req.Column == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("server: expand requires table and column"))
		return
	}
	switch req.Kind {
	case "", "BOOLEAN", "boolean", "BOOL", "bool":
		// KindBool — the only crowd-expandable kind.
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("server: unsupported kind %q (only BOOLEAN is crowd-expandable)", req.Kind))
		return
	}
	if req.Budget != 0 && req.Key == "" {
		// A budget with no key to bind it to would silently run the
		// expansion uncapped — the opposite of what the caller asked.
		writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("server: budget requires a key to attribute it to"))
		return
	}
	if req.Budget != 0 {
		// SetBudget rejects a negative cap before anything is submitted.
		if err := s.db.SetBudget(req.Key, req.Budget); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
	}
	opts := core.ExpandOptions{
		Method: sqlparse.ExpandMethod(strings.ToUpper(req.Method)),
		APIKey: req.Key,
		Origin: core.OriginAdmin,
	}
	if req.Samples > 0 {
		opts.SamplesPerClass = req.Samples
	}
	job, err := s.db.SubmitExpand(req.Table, req.Column, storage.KindBool, opts)
	if err != nil {
		status, code := classifyErr(err, http.StatusBadRequest, CodeBadRequest)
		writeError(w, status, code, err)
		return
	}
	st := job.Status()
	x.writeQueryResponse(http.StatusAccepted, nil, queryTail{Job: &st})
}

// handleBudgets lists every API key's cap and cumulative spend.
func (s *Server) handleBudgets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"budgets": s.db.Budgets()})
}

// handleWorkload exposes the workload subsystem's state: durable
// co-access counters, the recent observation trace, result-cache
// effectiveness, and the speculative budget account.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.db.Workload())
}

// handleSnapshot persists a snapshot on demand — the operator's lever for
// bounding recovery time (and WAL disk) between restarts.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seq, err := s.db.Snapshot()
	if err != nil {
		status, code := classifyErr(err, http.StatusInternalServerError, CodeInternal)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"seq": seq})
}

// handleAdminCompact forces a tombstone-compaction sweep over every
// table, bypassing the density threshold (pin/fence gates still apply),
// and reports each table's outcome — the operator's lever to reclaim
// DELETE debris without waiting for the background compactor.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.db.CompactNow()})
}

// --- helpers ---

// queryParams parses r's query string, once per request, and not at
// all when there is none.
func queryParams(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

// boolParam reports whether query parameter name is on: "1" or "true".
// Anything else, "0" and "false" included, is off.
func boolParam(params url.Values, name string) bool {
	v := params.Get(name)
	return v == "1" || v == "true"
}

// jsonContentType is the Content-Type of every JSON reply, one slice for
// all of them: net/http copies a header's values when the status line is
// written and never writes into them, and a handler that adds a value
// appends to a full slice, which copies it.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
