// Package obs is the unified observability layer: a dependency-free
// metrics registry exposed in Prometheus text format, shared by every
// subsystem of the crowd-enabled database.
//
// A crowd-enabled DB spans two wildly different latency regimes —
// microsecond MVCC scans and minutes-long HIT elicitation — so a single
// "requests per second" number is useless. The registry therefore keeps
// one metric family per interesting quantity (per-route HTTP latency,
// WAL fsync latency, expansion phase durations, crowd dollars charged)
// and renders them all on one scrape at GET /v1/metrics.
//
// Design constraints, in order:
//
//   - Dependency-free: obs imports only the standard library, so storage,
//     wal, jobs, crowd, engine, core, and server can all import it without
//     cycles — it sits below everything.
//   - Cheap when idle: counters and gauges are single atomic words;
//     histograms are fixed-bucket atomic arrays. No locks on the hot
//     path, no allocation after the family is created. The contract
//     (enforced by BenchmarkInstrumentedSelect) is ≤2% overhead on the
//     query path with tracing off.
//   - Cumulative: families live in the process-wide Default registry and
//     only ever go up (gauges excepted). Multiple DB instances in one
//     process (tests) share families — fine for counters, which Prometheus
//     rates anyway.
//
// Quantiles (p50/p95/p99) are estimated from the fixed buckets by linear
// interpolation — good to a bucket width, which the exponential bucket
// layout keeps proportional to the value itself.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind tags a family for the # TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; enforced by convention, not code —
// the hot path stays a single atomic add).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric — crowd spend
// in dollars, simulated crowd minutes. CAS-loop add; charges are rare
// (one per crowd run), so contention is irrelevant.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds v.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a settable instantaneous value (queue depth, in-flight
// requests, pinned snapshots).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative-style buckets.
// Observe is lock-free: one binary search over the (immutable) bounds and
// two atomic adds.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	total  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// NewHistogram returns a histogram outside any registry (nil bounds picks
// DefSecondsBuckets), for figures kept elsewhere and rendered with
// WriteHistogram at scrape time.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	return newHistogram(bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v.
func (h *Histogram) ObserveN(v float64, n int64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(n)
	h.total.Add(n)
	for {
		old := h.sum.Load()
		cur := math.Float64frombits(old)
		if h.sum.CompareAndSwap(old, math.Float64bits(cur+v*float64(n))) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket that crosses the target rank. Values in the overflow
// bucket clamp to the largest finite bound. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // overflow bucket: clamp
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// DefSecondsBuckets spans both latency regimes of this system: 1µs MVCC
// point reads through multi-minute simulated crowd elicitation.
var DefSecondsBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 300, 1200,
}

// family is one named metric with optional labeled children.
type family struct {
	name, help string
	kind       metricKind
	labels     []string // label names for vec families, nil for plain

	mu       sync.RWMutex
	children map[string]any // joined label values → *Counter/*Gauge/…
	single   any            // the unlabeled instance (plain families)
	bounds   []float64      // histogram bucket bounds
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; use NewRegistry or Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// Default is the process-wide registry every subsystem registers into and
// GET /v1/metrics scrapes.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register returns the family for name, creating it on first use. A name
// re-registered with a different kind panics — that is a programming
// error, caught at init time since families are package-level vars.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, children: map[string]any{}}
	r.families[name] = f
	r.order = append(r.order, name)
	sort.Strings(r.order)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &Counter{}
	}
	return f.single.(*Counter)
}

// FloatCounter registers (or fetches) an unlabeled float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	f := r.register(name, help, kindCounter, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &FloatCounter{}
	}
	return f.single.(*FloatCounter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &Gauge{}
	}
	return f.single.(*Gauge)
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil picks DefSecondsBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	f := r.register(name, help, kindHistogram, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.bounds = bounds
		f.single = newHistogram(bounds)
	}
	return f.single.(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// With returns the child counter for the given label values (one per
// label name, in registration order).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers (or fetches) a labeled histogram family (nil
// bounds picks DefSecondsBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	f := r.register(name, help, kindHistogram, labels)
	f.mu.Lock()
	if f.bounds == nil {
		f.bounds = bounds
	}
	bounds = f.bounds
	f.mu.Unlock()
	return &HistogramVec{f: f, bounds: bounds}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.bounds) }).(*Histogram)
}

// labelSep joins label values into a child key; 0x1f cannot appear in
// sane label values and keeps ("a","bc") distinct from ("ab","c").
const labelSep = "\x1f"

// child returns the child of the label values, made by mk on first use.
// The key of a child that exists is looked up from a stack buffer: a
// counter bumped per request allocates nothing to find itself.
func (f *family) child(values []string, mk func() any) any {
	var buf [64]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, labelSep...)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	c, ok := f.children[string(key)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c = mk()
	f.children[string(key)] = c
	return c
}

// ---------- Prometheus text exposition ----------

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers, histogram _bucket/_sum/_count
// series, label escaping per the spec.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteHistogram renders h as the unlabeled histogram family name, its
// HELP and TYPE lines included, exactly as WriteText renders one of the
// registry's.
func WriteHistogram(w io.Writer, name, help string, h *Histogram) error {
	f := &family{name: name, help: help, kind: kindHistogram, single: h}
	return f.writeText(w)
}

func (f *family) writeText(w io.Writer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.single == nil && len(f.children) == 0 {
		return nil // registered but never instantiated
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	write := func(labelStr string, m any) error {
		switch v := m.(type) {
		case *Counter:
			_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelStr, v.Value())
			return err
		case *FloatCounter:
			_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelStr, formatFloat(v.Value()))
			return err
		case *Gauge:
			_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelStr, v.Value())
			return err
		case *Histogram:
			return f.writeHistogram(w, labelStr, v)
		}
		return fmt.Errorf("obs: unknown metric type %T", m)
	}
	if f.single != nil {
		return write("", f.single)
	}
	// Deterministic output order for scrapers and tests.
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var values []string
		if k != "" {
			values = strings.Split(k, labelSep)
		}
		if err := write(labelString(f.labels, values, ""), f.children[k]); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket series plus _sum/_count.
// labelStr carries the family's own labels; the le label is appended.
func (f *family) writeHistogram(w io.Writer, labelStr string, h *Histogram) error {
	// Re-derive the label list from labelStr: simpler to rebuild from the
	// family key, so pass the raw pieces instead.
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		ls := mergeLE(labelStr, formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLE(labelStr, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelStr, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelStr, h.Count())
	return err
}

// labelString renders {a="x",b="y"} (empty string for no labels); extra,
// when non-empty, is appended verbatim as one more pre-rendered pair.
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(val))
		sb.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
	}
	sb.WriteByte('}')
	return sb.String()
}

// mergeLE appends le="bound" to an existing (possibly empty) label set.
func mergeLE(labelStr, bound string) string {
	le := `le="` + bound + `"`
	if labelStr == "" {
		return "{" + le + "}"
	}
	return labelStr[:len(labelStr)-1] + "," + le + "}"
}

// formatFloat renders floats the way Prometheus expects: integers
// without an exponent, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
