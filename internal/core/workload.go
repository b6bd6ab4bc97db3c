package core

import (
	"math"
	"slices"
	"strings"
	"time"

	"crowddb/internal/engine"
	"crowddb/internal/engine/exec"
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	rescache "crowddb/internal/workload/cache"
)

// Workload-aware serving layer: every SELECT feeds the workload tracker
// (the co-access model behind predictive pre-expansion) and, unless
// bypassed, the result cache. The pieces live in internal/workload; this
// file is the glue that decides WHEN they fire — the cache probe before the
// parser, observation under the snapshot gate, speculation inside the
// table's open batch, cache seq-capture before planning. See DESIGN.md §13.

// Origin values for expansion jobs. The tag rides the job (jobs.Status),
// the per-job WAL completion record, and /ledger, so operators can audit
// how much of the crowd spend was speculative.
const (
	// OriginDemand marks an expansion a user query was blocked on — a
	// missing-column miss, an explicit EXPAND, or a programmatic
	// SubmitExpand without an explicit origin.
	OriginDemand = "demand"
	// OriginSpeculative marks a pre-expansion submitted by the workload
	// predictor. Best effort by contract: capped by SpeculativeBudget,
	// admission-bounded, never joined-on by a blocked query at submission.
	OriginSpeculative = "speculative"
	// OriginAdmin marks an expansion submitted via POST /v1/admin/expand.
	OriginAdmin = "admin"
)

// SpeculativeBudgetKey is the API key all speculative expansions spend
// under. Routing the spend through one well-known key reuses the entire
// per-key budget machinery from PR 4 — the two-phase reservation inside
// the batch runner is the authoritative cap check, so a speculative
// member that would blow Options.SpeculativeBudget is rejected at
// reservation time and costs nothing.
const SpeculativeBudgetKey = "__speculative__"

// maxSpeculations bounds how many predicted columns one demand expansion
// chases. Two is deliberate: the pairwise model's precision decays fast
// past the top candidates, and every speculative member occupies batch
// admission headroom demand work may want.
const maxSpeculations = 2

// obsBatch is how many workload observations one workload_obs record
// carries.
const obsBatch = 256

// observeLocked feeds one workload event to the tracker and buffers it
// for the log: a read appends nothing, and every obsBatch observations
// are journaled as one workload_obs record (the rest at Close). Snapshot,
// which persists the tracker's counters, discards the buffer instead — its
// contents are inside those counters. The observations are advisory
// evidence for the pre-expansion predictor: a crash loses at most the
// unflushed tail of predictor counts, never money state. Caller holds
// db.gate.RLock (the execEngine path, or a cache hit's replay), so a flush
// lands atomically with respect to Snapshot.
func (db *DB) observeLocked(obs workload.Observation) {
	if db.tracker == nil {
		return
	}
	db.tracker.Observe(obs)
	if db.wal == nil {
		return
	}
	db.obsMu.Lock()
	if db.obsPending == nil {
		db.obsPending = make([]workload.Observation, 0, obsBatch)
	}
	db.obsPending = append(db.obsPending, obs)
	db.obsMu.Unlock()
	db.flushObservations(obsBatch)
}

// takeObservations hands over the buffered observations, if there are at
// least min of them.
func (db *DB) takeObservations(min int) []workload.Observation {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	if len(db.obsPending) < min {
		return nil
	}
	batch := db.obsPending
	db.obsPending = nil
	return batch
}

// flushObservations journals the buffered observations as one record, if
// there are at least min of them. Caller holds db.gate.RLock.
func (db *DB) flushObservations(min int) {
	if batch := db.takeObservations(min); len(batch) > 0 {
		_ = db.logJSON(recWorkload, batch, false) // a failure latches in the WAL
	}
}

// observe is observeLocked for callers not holding the snapshot gate
// (the expansion submission paths).
func (db *DB) observe(obs workload.Observation) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.observeLocked(obs)
}

// RecordObservation feeds one workload event into the tracker (and the
// WAL), exactly as a live query would. It exists to warm the co-access
// model from an external query log before the predictor has seen live
// traffic; table and column names are normalized internally.
func (db *DB) RecordObservation(obs workload.Observation) {
	obs.Columns = slices.Clone(obs.Columns) // buffered until the next flush
	db.observe(obs)
}

// WorkloadStats is the GET /v1/workload payload: durable counters, the
// recent in-memory trace, cache effectiveness, and the speculative
// budget account.
type WorkloadStats struct {
	Counters workload.CounterState  `json:"counters"`
	Recent   []workload.Observation `json:"recent,omitempty"`
	Cache    *rescache.Stats        `json:"cache,omitempty"`
	// SpeculativeBudget is the __speculative__ key's account (nil when no
	// speculative cap is configured and nothing was ever spent).
	SpeculativeBudget *BudgetStatus `json:"speculative_budget,omitempty"`
}

// Workload returns the current workload-subsystem state.
func (db *DB) Workload() WorkloadStats {
	st := WorkloadStats{}
	if db.tracker != nil {
		st.Counters = db.tracker.Export()
		st.Recent = db.tracker.Recent()
	}
	if db.rcache != nil {
		s := db.rcache.Stats()
		st.Cache = &s
	}
	if b, ok := db.Budget(SpeculativeBudgetKey); ok {
		st.SpeculativeBudget = &b
	}
	return st
}

// CacheStats returns the result cache's counters (zero Stats when the
// cache is disabled).
func (db *DB) CacheStats() rescache.Stats {
	if db.rcache == nil {
		return rescache.Stats{}
	}
	return db.rcache.Stats()
}

// planned, when set, runs as soon as a SELECT's plan is built, so a test
// can land a write between the plan binding its table and its execution.
var planned func()

// planSelect plans a SELECT and accounts the plan phase. Plan errors
// propagate untouched so a MissingColumnError still reaches the expansion
// machinery.
func (db *DB) planSelect(sel *sqlparse.SelectStmt, qt *QueryTrace) (*plan.SelectPlan, error) {
	planStart := time.Now()
	p, err := db.engine.PlanSelect(sel)
	if planned != nil {
		planned()
	}
	planDur := time.Since(planStart)
	mQueryPhase.With("plan").Observe(planDur.Seconds())
	if qt != nil {
		qt.PlanUS += planDur.Microseconds()
	}
	return p, err
}

// cachedResult probes the result cache with a statement's text, before
// anything parses it. On a hit it feeds the workload tracker the
// observations the entry's statement produced — the tracker, the
// workload_obs records and TotalQueries see a hit as they see a miss — and
// puts the entry's result, whose batches it shares, in s's hand.
// Otherwise it returns the key to store the statement's result under: the
// text, or "" when the cache is off or bypassed (nocache). Only the
// cache_lookup phase is observed; a miss is counted by the SELECT it turns
// out to be (openSelect).
func (db *DB) cachedResult(s *RowStream, sql string, nocache bool) (key string, hit bool) {
	if db.rcache == nil || nocache {
		return "", false
	}
	start := time.Now()
	cols, batches, obs, ok := db.rcache.GetBatches(sql)
	dur := time.Since(start)
	mQueryPhase.With("cache_lookup").Observe(dur.Seconds())
	if s.qt != nil {
		s.qt.CacheUS += dur.Microseconds()
	}
	if !ok {
		return sql, false
	}
	mCacheHits.Inc()
	db.gate.RLock()
	for _, o := range obs {
		db.observeLocked(o)
	}
	db.gate.RUnlock()
	if s.qt != nil {
		s.qt.CacheHit = true
	}
	s.done = Result{Columns: cols, Batches: batches, Affected: storage.RowCount(batches)}
	return "", true
}

// explainHit fills in a traced hit's parse and plan times and its plan
// tree — without actuals, since nothing ran — by parsing and planning the
// text again, for the trace alone: nothing is observed or counted.
func (db *DB) explainHit(sql string, qt *QueryTrace) {
	start := time.Now()
	stmt, err := sqlparse.Parse(sql)
	qt.ParseUS = time.Since(start).Microseconds()
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if err != nil || !ok {
		return
	}
	start = time.Now()
	p, err := db.engine.PlanSelect(sel)
	qt.PlanUS = time.Since(start).Microseconds()
	if err == nil {
		qt.Plan = p.Explain()
	}
}

// openSelect plans and opens a SELECT on s, and once it is planned feeds
// the workload tracker its observations (one per table in scope), which
// the result cache keeps with the entry and a single-table footprint
// shares. Caller holds db.gate.RLock;
// the stream is read after it is released. Under a non-empty key — a
// text the result cache did not answer — it counts the miss and begins
// the cache's copy of the answer (rescache.Fill), which the cache keeps
// only if it could store the entry: a large answer to a text seen for the
// first time is read from the executor and never copied.
//
// Order matters: the miss is captured — its footprint registered, or
// its tables' seqs taken — BEFORE planning, because the plan binds the
// tables it reads and their schemas (SELECT * is expanded then). A write,
// a re-created table or an added column that lands after the capture and
// could change the answer kills the miss, or moves a seq past the one
// its entry holds, so the entry is never served.
//
// Every phase feeds the crowddb_query_phase_seconds histogram; a traced
// stream additionally runs the executor with per-operator tracing, for
// the annotated plan tree of its QueryTrace.
func (db *DB) openSelect(s *RowStream, sel *sqlparse.SelectStmt, key string) error {
	var cp rescache.Capture
	var obs []workload.Observation
	captured := false
	if key != "" {
		cp, obs, captured = db.capture(sel)
	}
	p, err := db.planSelect(sel, s.qt)
	if err != nil {
		if captured {
			db.rcache.Release(cp)
		}
		return err
	}
	if obs == nil {
		obs = accessObservations(sel)
	}
	for _, o := range obs {
		db.observeLocked(o)
	}
	s.reading = true
	x := &s.x
	if key != "" {
		db.rcache.CountMiss()
		mCacheMisses.Inc()
		if captured {
			db.rcache.Begin(&x.fill, key, cp, obs, p.Columns)
		}
	}
	if s.qt != nil {
		x.plan, x.tr = p, exec.NewTrace()
	}
	start := time.Now()
	x.res, err = engine.OpenPlan(p, x.tr)
	x.exec += time.Since(start)
	if err != nil {
		x.fill.Abandon()
	}
	return err
}

// capture registers a SELECT's miss with the result cache: a join by its
// tables' seqs, a single-table SELECT by its footprint, whose columns are
// those of the observations it returns. It registers nothing (ok false),
// and the answer is not stored, when the table is missing or lacks a
// column the items or the WHERE name: the plan fails — a query-driven
// expansion's first attempt — and the registration would be garbage.
func (db *DB) capture(sel *sqlparse.SelectStmt) (cp rescache.Capture, obs []workload.Observation, ok bool) {
	if len(sel.Joins) > 0 {
		return db.rcache.CaptureTables(selectTables(sel)), nil, true
	}
	t, ok := db.Catalog().Get(sel.Table)
	if !ok {
		return cp, nil, false
	}
	schema := t.Schema()
	lacks := false
	check := func(c *sqlparse.ColumnRef) {
		if _, ok := schema.Lookup(c.Name); !ok {
			lacks = true
		}
	}
	for _, it := range sel.Items {
		sqlparse.WalkColumns(it.Expr, check)
	}
	if sqlparse.WalkColumns(sel.Where, check); lacks {
		return cp, nil, false
	}
	obs = accessObservations(sel)
	return db.rcache.CaptureFootprint(footprint(sel, obs[0].Columns, schema)), obs, true
}

// footprint is what a single-table SELECT's answer depends on, read off
// the statement, the columns it names (its observation's: in its items,
// WHERE, GROUP BY, HAVING and ORDER BY) and the table's schema: those
// columns, or every column for SELECT *, and the narrowest interval on an
// INTEGER column that the WHERE's top-level AND conjuncts bound with
// integer literals (none when no conjunct does: OR, NOT, floats, !=,
// expressions bound nothing). A name the schema lacks — a select-list
// alias in ORDER BY or HAVING — only widens the column set.
func footprint(sel *sqlparse.SelectStmt, cols []string, schema *storage.Schema) rescache.Footprint {
	fp := rescache.Footprint{Table: strings.ToLower(sel.Table), Columns: cols}
	for _, it := range sel.Items {
		fp.Star = fp.Star || it.Star
	}
	if fp.Star {
		fp.Columns = nil
	}
	var b bounds
	b.conjuncts(sel.Where, schema)
	if iv := b.narrowest(); iv != nil {
		fp.Key, fp.Lo, fp.Hi = strings.ToLower(iv.col), iv.lo, iv.hi
	}
	return fp
}

// bounds collects the intervals a WHERE's top-level AND conjuncts put on
// INTEGER columns, for the first few columns they bound.
type bounds struct {
	c [4]interval
	n int
}

// interval is [lo, hi] on one column; lo > hi holds no value.
type interval struct {
	col    string
	lo, hi int64
}

// width is one less than the number of values a non-empty interval
// holds.
func (iv *interval) width() uint64 { return uint64(iv.hi) - uint64(iv.lo) }

func (b *bounds) conjuncts(e sqlparse.Expr, schema *storage.Schema) {
	be, ok := e.(*sqlparse.BinaryExpr)
	if !ok {
		return
	}
	if be.Op == "AND" {
		b.conjuncts(be.Left, schema)
		b.conjuncts(be.Right, schema)
		return
	}
	col, colOK := be.Left.(*sqlparse.ColumnRef)
	lit, litOK := be.Right.(*sqlparse.Literal)
	op := be.Op
	if !colOK || !litOK {
		// A literal on the left: the comparison, mirrored.
		col, colOK = be.Right.(*sqlparse.ColumnRef)
		lit, litOK = be.Left.(*sqlparse.Literal)
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	switch op {
	case "=", "<", "<=", ">", ">=":
	default:
		return
	}
	if !colOK || !litOK || lit.Kind != sqlparse.LitInt {
		return
	}
	if i, ok := schema.Lookup(col.Name); !ok || schema.Column(i).Kind != storage.KindInt {
		return
	}
	iv := b.on(col.Name)
	if iv == nil {
		return
	}
	v := lit.Int
	switch op {
	case "=":
		iv.lo, iv.hi = max(iv.lo, v), min(iv.hi, v)
	case ">=":
		iv.lo = max(iv.lo, v)
	case "<=":
		iv.hi = min(iv.hi, v)
	case ">":
		if v == math.MaxInt64 {
			iv.lo, iv.hi = 1, 0
		} else {
			iv.lo = max(iv.lo, v+1)
		}
	case "<":
		if v == math.MinInt64 {
			iv.lo, iv.hi = 1, 0
		} else {
			iv.hi = min(iv.hi, v-1)
		}
	}
}

// narrowest returns the interval holding the fewest values — an empty
// one first — or nil when there is none.
func (b *bounds) narrowest() *interval {
	var best *interval
	for i := range b.n {
		iv := &b.c[i]
		if iv.lo > iv.hi {
			return iv
		}
		if best == nil || iv.width() < best.width() {
			best = iv
		}
	}
	return best
}

// on returns the interval on col, starting an unbounded one — nil past
// the first few columns.
func (b *bounds) on(col string) *interval {
	for i := range b.n {
		if strings.EqualFold(b.c[i].col, col) {
			return &b.c[i]
		}
	}
	if b.n == len(b.c) {
		return nil
	}
	b.c[b.n] = interval{col: col, lo: math.MinInt64, hi: math.MaxInt64}
	b.n++
	return &b.c[b.n-1]
}

// selectTables returns the tables a SELECT names, lower-cased and distinct:
// the result cache's invalidation scope, known before the plan is.
func selectTables(sel *sqlparse.SelectStmt) []string {
	tables := make([]string, 1, 1+len(sel.Joins))
	tables[0] = strings.ToLower(sel.Table)
	for _, j := range sel.Joins {
		if t := strings.ToLower(j.Table); !slices.Contains(tables, t) {
			tables = append(tables, t)
		}
	}
	return tables
}

// accessObservations derives per-table workload observations from a
// plannable SELECT: each base table in scope gets one observation
// carrying the columns the query references on it. Qualified references
// resolve through the statement's alias bindings; unqualified ones are
// attributed to the primary FROM table (the planner resolved them
// successfully, and single-table queries — the workload the predictor
// targets — have no ambiguity).
func accessObservations(sel *sqlparse.SelectStmt) []workload.Observation {
	if len(sel.Joins) == 0 {
		return []workload.Observation{{Table: strings.ToLower(sel.Table), Columns: tableColumns(sel), Kind: workload.KindAccess}}
	}
	primary := strings.ToLower(sel.Table)
	bindings := map[string]string{}
	alias := sel.TableAlias
	if alias == "" {
		alias = sel.Table
	}
	bindings[strings.ToLower(alias)] = primary
	colsByTable := map[string][]string{primary: nil}
	for _, j := range sel.Joins {
		a := j.Alias
		if a == "" {
			a = j.Table
		}
		bindings[strings.ToLower(a)] = strings.ToLower(j.Table)
		colsByTable[strings.ToLower(j.Table)] = nil
	}
	add := func(c *sqlparse.ColumnRef) {
		table := primary
		if c.Table != "" {
			t, ok := bindings[strings.ToLower(c.Table)]
			if !ok {
				return
			}
			table = t
		}
		colsByTable[table] = append(colsByTable[table], c.Name)
	}
	for _, it := range sel.Items {
		sqlparse.WalkColumns(it.Expr, add)
	}
	for _, j := range sel.Joins {
		sqlparse.WalkColumns(j.On, add)
	}
	sqlparse.WalkColumns(sel.Where, add)
	for _, g := range sel.GroupBy {
		sqlparse.WalkColumns(g, add)
	}
	sqlparse.WalkColumns(sel.Having, add)
	for _, o := range sel.OrderBy {
		sqlparse.WalkColumns(o.Expr, add)
	}
	out := make([]workload.Observation, 0, len(colsByTable))
	for table, cols := range colsByTable {
		out = append(out, workload.Observation{Table: table, Columns: cols, Kind: workload.KindAccess})
	}
	return out
}

// tableColumns lists the columns a single-table SELECT names, in the order
// accessObservations' walk meets them (duplicates kept): the references
// qualified by its table's binding, or not at all. It allocates the list
// alone.
func tableColumns(sel *sqlparse.SelectStmt) []string {
	binding := sel.TableAlias
	if binding == "" {
		binding = sel.Table
	}
	var buf [16]string
	cols := buf[:0]
	add := func(c *sqlparse.ColumnRef) {
		if c.Table == "" || strings.EqualFold(c.Table, binding) {
			cols = append(cols, c.Name)
		}
	}
	for _, it := range sel.Items {
		sqlparse.WalkColumns(it.Expr, add)
	}
	sqlparse.WalkColumns(sel.Where, add)
	for _, g := range sel.GroupBy {
		sqlparse.WalkColumns(g, add)
	}
	sqlparse.WalkColumns(sel.Having, add)
	for _, o := range sel.OrderBy {
		sqlparse.WalkColumns(o.Expr, add)
	}
	if len(cols) == 0 {
		return nil
	}
	out := make([]string, len(cols))
	copy(out, cols)
	return out
}

// speculate submits pre-expansions for the columns the workload model
// predicts will be demanded next, given that table.trigger was just
// demand-expanded. Called synchronously from submitExpansion right after
// the demand member was admitted, while the table's batch is still open —
// so speculative and demand members seal into ONE batch and their
// sampling phases merge into shared HIT groups, charged once (see
// runExpansionBatch).
//
// Strictly best effort, in this order: speculation requires a positive
// batch window and speculative budget (Open leaves specBudget zero
// without the window); it stops when pending members reach half the
// admission bound (never starving demand submissions into
// ErrQueueFull); it skips columns already filled or not registered; and
// it pre-flights the projected cost against SpeculativeBudget, with the
// batch runner's per-member reservation as the authoritative check.
func (db *DB) speculate(table, trigger string) {
	if db.specBudget <= 0 || db.tracker == nil {
		return
	}
	for _, pred := range db.tracker.Predict(table, trigger, maxSpeculations) {
		if db.sched.Pending()*2 >= db.sched.Depth() {
			return
		}
		spec, ok := db.expandableSpec(table, pred.Column)
		if !ok || db.columnFilled(table, pred.Column) {
			continue
		}
		opts := spec.opts
		opts.Origin = OriginSpeculative
		opts.APIKey = SpeculativeBudgetKey
		if db.preflight(table, pred.Column, opts) != nil {
			continue
		}
		// implicit=true: if a racing job fills the column first, the
		// speculative run degrades to a no-op instead of re-eliciting.
		_, _, _ = db.submitExpansion(table, pred.Column, spec.kind, opts, true)
	}
}
