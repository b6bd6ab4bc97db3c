// Package workload observes the query stream and learns its column
// co-access structure.
//
// The paper's thesis is that crowd-enabled databases should be driven by
// the workload: users exploring a malleable schema touch columns in
// correlated bursts (the dashboard that asks for comedy also asks for
// drama a query later). This package records every query's footprint —
// tables and columns touched, missing-column events, expansions — into a
// bounded in-memory trace plus durable aggregate counters, and derives a
// simple pairwise-lift model over column co-access. internal/core uses
// the model to pre-expand the likely-next column *inside the same
// batch* as the demand expansion, so the speculative
// HITs ride the demand job's marketplace charge instead of paying their
// own (see core's speculation hook and DESIGN.md §13).
//
// The model is deliberately not machine learning: pairwise lift over a
// sliding co-occurrence window needs no training phase, no dependency,
// and is fully inspectable over GET /v1/workload.
package workload

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// Kind classifies one observation.
type Kind string

const (
	// KindAccess is a query that touched existing columns.
	KindAccess Kind = "access"
	// KindMiss is a query that referenced a column the schema lacks —
	// the demand signal query-driven expansion reacts to.
	KindMiss Kind = "miss"
	// KindExpand is an expansion actually submitted. Expansions are
	// counted but do not feed the co-access model: a speculative
	// expansion reinforcing its own prediction would be a feedback loop.
	KindExpand Kind = "expand"
)

// Observation is one workload event: a query's footprint on one table.
// It is the WAL payload of the typed workload_obs record, so all fields
// are wire-serializable.
type Observation struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	Kind    Kind     `json:"kind"`
}

// TableCounters is one table's durable aggregate state.
type TableCounters struct {
	Table string `json:"table"`
	// Queries counts access/miss observations on the table.
	Queries uint64 `json:"queries"`
	// Misses counts missing-column observations.
	Misses uint64 `json:"misses"`
	// Expands counts expansions submitted for the table.
	Expands uint64 `json:"expands"`
	// Columns counts how often each column was demanded (accessed or
	// missed).
	Columns map[string]uint64 `json:"columns,omitempty"`
	// Pairs[a][b] counts how often column b was demanded in the same
	// query as — or within the co-occurrence window after — column a.
	Pairs map[string]map[string]uint64 `json:"pairs,omitempty"`
}

// CounterState is the exportable aggregate state: the durable half of the
// tracker (the recent-trace ring is in-memory only and starts empty after
// a restart). It is embedded in the core snapshot.
type CounterState struct {
	TotalQueries uint64          `json:"total_queries"`
	TotalMisses  uint64          `json:"total_misses"`
	TotalExpands uint64          `json:"total_expands"`
	Tables       []TableCounters `json:"tables,omitempty"`
}

// Prediction is one candidate next-column with its evidence.
type Prediction struct {
	Column string `json:"column"`
	// Support is the raw co-occurrence count behind the prediction.
	Support uint64 `json:"support"`
	// Lift is P(candidate | trigger) / P(candidate): > 1 means the
	// trigger column makes the candidate more likely than its base rate.
	Lift float64 `json:"lift"`
}

// tableStats is the mutable per-table state. cols/pairs use lower-cased
// column names.
type tableStats struct {
	queries uint64
	misses  uint64
	expands uint64
	cols    map[string]uint64
	pairs   map[string]map[string]uint64
	// window is a ring of the column sets of the last windowSize
	// access/miss observations, for cross-query co-occurrence counting;
	// next is the slot the next one overwrites.
	window [windowSize][]string
	next   int
}

// windowSize bounds how many past observations a new one co-occurs with.
// Small on purpose: "queried a query or two later" is the prefetchable
// signal; long-range correlation is noise at this scale.
const windowSize = 8

// minSupport is the co-occurrence count a pair needs before it can
// predict: a single coincidence must not spend speculative budget.
const minSupport = 2

// DefaultTraceCap bounds the in-memory recent-observation ring.
const DefaultTraceCap = 512

// Tracker is the concurrency-safe workload trace + co-access model.
type Tracker struct {
	mu sync.Mutex
	// trace is a ring of at most traceCap observations; once full,
	// traceNext is both the oldest one and the slot the next overwrites.
	trace     []Observation
	traceCap  int
	traceNext int
	tables    map[string]*tableStats
	totals    struct{ queries, misses, expands uint64 }
}

// NewTracker creates a tracker whose recent-trace ring holds at most cap
// observations (non-positive cap gets DefaultTraceCap).
func NewTracker(cap int) *Tracker {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Tracker{traceCap: cap, tables: map[string]*tableStats{}}
}

func norm(s string) string { return strings.ToLower(s) }

// Observe records one workload event. It is the single ingestion path:
// live queries, cache hits replaying their statement's observations, WAL
// replay, and programmatic warm-up (feeding an external query log) all
// flow through here, so replayed counters always match the ones the live
// path produced. On a table and column pairs it has seen before, named in
// lower case, it allocates one thing: the normalized column list the trace
// and the window keep.
func (t *Tracker) Observe(obs Observation) {
	table := norm(obs.Table)
	if table == "" {
		return
	}
	// A query names a handful of columns: a linear scan dedupes them.
	cols := make([]string, 0, len(obs.Columns))
	for _, c := range obs.Columns {
		if lc := norm(c); lc != "" && !slices.Contains(cols, lc) {
			cols = append(cols, lc)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	ts := t.tables[table]
	if ts == nil {
		ts = &tableStats{cols: map[string]uint64{}, pairs: map[string]map[string]uint64{}}
		t.tables[table] = ts
	}
	switch obs.Kind {
	case KindExpand:
		ts.expands++
		t.totals.expands++
	case KindMiss:
		ts.misses++
		t.totals.misses++
		fallthrough
	default: // KindAccess and misses both feed the co-access model
		ts.queries++
		t.totals.queries++
		for _, c := range cols {
			ts.cols[c]++
		}
		// Same-query co-access, both directions.
		for _, a := range cols {
			for _, b := range cols {
				if a != b {
					ts.pair(a, b)
				}
			}
		}
		// Cross-query co-access: a column in the window predicts the
		// columns demanded now (directional — "a then b").
		for _, prev := range ts.window {
			for _, a := range prev {
				for _, b := range cols {
					if a != b {
						ts.pair(a, b)
					}
				}
			}
		}
		ts.window[ts.next] = cols
		ts.next = (ts.next + 1) % windowSize
	}

	o := Observation{Table: table, Columns: cols, Kind: obs.Kind}
	if len(t.trace) < t.traceCap {
		t.trace = append(t.trace, o)
		return
	}
	t.trace[t.traceNext] = o
	t.traceNext = (t.traceNext + 1) % t.traceCap
}

func (ts *tableStats) pair(a, b string) {
	m := ts.pairs[a]
	if m == nil {
		m = map[string]uint64{}
		ts.pairs[a] = m
	}
	m[b]++
}

// Predict returns up to limit columns likely to be demanded next on the
// table, given that trigger was just demanded — ranked by lift, requiring
// minSupport co-occurrences and lift > 1 (a candidate must beat its own
// base rate, or speculating on it is no better than guessing).
func (t *Tracker) Predict(table, trigger string, limit int) []Prediction {
	if limit <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.tables[norm(table)]
	if ts == nil || ts.queries == 0 {
		return nil
	}
	trig := norm(trigger)
	trigCnt := ts.cols[trig]
	if trigCnt == 0 {
		return nil
	}
	var out []Prediction
	for cand, support := range ts.pairs[trig] {
		if support < minSupport {
			continue
		}
		candCnt := ts.cols[cand]
		if candCnt == 0 {
			continue
		}
		// lift = (support/trigCnt) / (candCnt/queries)
		lift := float64(support) * float64(ts.queries) / (float64(trigCnt) * float64(candCnt))
		if lift <= 1 {
			continue
		}
		out = append(out, Prediction{Column: cand, Support: support, Lift: lift})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Column < out[j].Column
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Recent returns a copy of the in-memory trace ring, oldest first.
func (t *Tracker) Recent() []Observation {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Observation, 0, len(t.trace))
	out = append(out, t.trace[t.traceNext:]...)
	return append(out, t.trace[:t.traceNext]...)
}

// Export captures the aggregate counters for a snapshot, tables sorted by
// name for deterministic output.
func (t *Tracker) Export() CounterState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := CounterState{
		TotalQueries: t.totals.queries,
		TotalMisses:  t.totals.misses,
		TotalExpands: t.totals.expands,
	}
	for name, ts := range t.tables {
		tc := TableCounters{
			Table: name, Queries: ts.queries, Misses: ts.misses, Expands: ts.expands,
			Columns: map[string]uint64{},
			Pairs:   map[string]map[string]uint64{},
		}
		for c, n := range ts.cols {
			tc.Columns[c] = n
		}
		for a, m := range ts.pairs {
			cp := map[string]uint64{}
			for b, n := range m {
				cp[b] = n
			}
			tc.Pairs[a] = cp
		}
		st.Tables = append(st.Tables, tc)
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Table < st.Tables[j].Table })
	return st
}

// Import overwrites the aggregate counters with recovered state (the
// restore path; the recent-trace ring stays empty — it is in-memory by
// design). Observations replayed from the WAL after the snapshot land on
// top via Observe.
func (t *Tracker) Import(st CounterState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.totals.queries = st.TotalQueries
	t.totals.misses = st.TotalMisses
	t.totals.expands = st.TotalExpands
	t.tables = map[string]*tableStats{}
	for _, tc := range st.Tables {
		ts := &tableStats{
			queries: tc.Queries, misses: tc.Misses, expands: tc.Expands,
			cols: map[string]uint64{}, pairs: map[string]map[string]uint64{},
		}
		for c, n := range tc.Columns {
			ts.cols[norm(c)] = n
		}
		for a, m := range tc.Pairs {
			cp := map[string]uint64{}
			for b, n := range m {
				cp[norm(b)] = n
			}
			ts.pairs[norm(a)] = cp
		}
		t.tables[norm(tc.Table)] = ts
	}
}
