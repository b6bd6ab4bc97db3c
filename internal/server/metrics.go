package server

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime/metrics"
	"time"

	"crowddb/internal/obs"
)

// HTTP-layer metric families (catalog: DESIGN.md §17). Routes are
// labeled by their canonical pattern (the /v1-relative path), never the
// raw URL — label cardinality stays bounded by the route table.
var (
	mHTTPRequests = obs.Default.CounterVec("crowdserve_http_requests_total",
		"HTTP requests by route, method, and status class.", "route", "method", "status_class")
	mHTTPSeconds = obs.Default.HistogramVec("crowdserve_http_request_seconds",
		"HTTP request latency by route, in seconds.", nil, "route")
	mHTTPInflight = obs.Default.Gauge("crowdserve_http_inflight",
		"HTTP requests currently being served.")
)

// statusRecorder captures the response status for metrics and logs.
// Flush passes through so NDJSON streaming (POST /v1/query?stream=1) keeps
// its per-batch flushes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newRequestID mints a 16-hex-char random request ID.
func newRequestID() string {
	var b [16]byte
	hex.Encode(b[:], binary.BigEndian.AppendUint64(b[8:8], rand.Uint64()))
	return string(b[:])
}

// statusClasses are the status_class label values, by status / 100
// (net/http's status codes are 100–999).
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// instrument wraps a handler with the per-route observability envelope:
// in-flight gauge, request counter by status class, latency histogram,
// and one structured request log line carrying the request ID. An
// inbound X-Request-Id is propagated; otherwise one is minted. route is
// the label the metrics carry: the path without its /v1 prefix. The
// handler writes to the request's exchange, taken from exchanges here and
// given back once the request is counted and logged.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mHTTPInflight.Inc()
		defer mHTTPInflight.Dec()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		x := exchanges.Get().(*exchange)
		defer exchanges.Put(x)
		defer x.reset()
		x.statusRecorder = statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(x, r)
		dur := time.Since(start)
		mHTTPRequests.With(route, r.Method, statusClasses[x.status/100]).Inc()
		mHTTPSeconds.With(route).Observe(dur.Seconds())
		x.logTail = [2]slog.Attr{slog.Int("status", x.status), slog.Int64("duration_us", dur.Microseconds())}
		slog.LogAttrs(r.Context(), slog.LevelInfo, "http request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			// An unnamed group's attributes are the line's own.
			slog.Attr{Value: slog.GroupValue(x.logTail[:]...)},
		)
	}
}

// handleMetrics serves the process-wide registry in Prometheus text
// exposition format. Registered without a method in the pattern so that
// a non-GET lands here (not the mux's plain-text 405) and gets the
// standard error envelope.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest,
			fmt.Errorf("server: %s not allowed on /v1/metrics (GET only)", r.Method))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	err := obs.Default.WriteText(w)
	if err == nil {
		err = writeRuntimeMetrics(w)
	}
	if err != nil {
		// Headers are gone by now; all we can do is log.
		slog.Error("metrics scrape failed", "error", err)
	}
}

// runtimeFamilies are the Go runtime's figures a scrape carries beside
// the registry's, each under the runtime/metrics name it is read from.
// The heap-allocation counter's rate is the process's allocation rate —
// the figure an expansion's reused workspace lowers — without a gctrace
// session.
var runtimeFamilies = [...]struct{ name, kind, help, key string }{
	{"go_gc_heap_allocs_bytes_total", "counter", "Cumulative bytes allocated on the heap by the process.", "/gc/heap/allocs:bytes"},
	{"go_gc_cycles_total", "counter", "Completed garbage-collection cycles.", "/gc/cycles/total:gc-cycles"},
	{"go_goroutines", "gauge", "Goroutines that currently exist.", "/sched/goroutines:goroutines"},
}

// gcPausesKey is the runtime/metrics histogram of the stop-the-world
// pauses of the garbage collector, scraped as go_gc_pauses_seconds.
const gcPausesKey = "/sched/pauses/total/gc:seconds"

// writeRuntimeMetrics reads runtimeFamilies and the GC pause histogram
// from runtime/metrics — when /v1/metrics is scraped, never on a query
// path — and writes them in the registry's text format.
func writeRuntimeMetrics(w io.Writer) error {
	var samples [len(runtimeFamilies) + 1]metrics.Sample
	for i, f := range runtimeFamilies {
		samples[i].Name = f.key
	}
	samples[len(runtimeFamilies)].Name = gcPausesKey
	metrics.Read(samples[:])
	for i, f := range runtimeFamilies {
		var v uint64
		if samples[i].Value.Kind() == metrics.KindUint64 {
			v = samples[i].Value.Uint64()
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", f.name, f.help, f.name, f.kind, f.name, v); err != nil {
			return err
		}
	}
	return obs.WriteHistogram(w, "go_gc_pauses_seconds",
		"Stop-the-world pauses of the garbage collector, in seconds (the runtime's own histogram, read at the scrape).",
		gcPauses(samples[len(runtimeFamilies)].Value))
}

// gcPauses maps the runtime's pause histogram onto the registry's bucket
// layout. Each runtime bucket [lo, hi) is counted at hi, so a pause lands
// under the first bound at or above its bucket's upper edge — never under
// a bound it may exceed — and the sum is an estimate from those edges
// (the runtime's buckets are a few percent wide; an unbounded last
// bucket is counted at its lower edge).
func gcPauses(v metrics.Value) *obs.Histogram {
	h := obs.NewHistogram(nil)
	if v.Kind() != metrics.KindFloat64Histogram {
		return h
	}
	rh := v.Float64Histogram()
	for i, n := range rh.Counts {
		if n == 0 {
			continue
		}
		at := rh.Buckets[i+1]
		if math.IsInf(at, 1) {
			at = rh.Buckets[i]
		}
		h.ObserveN(max(at, 0), int64(n))
	}
	return h
}
