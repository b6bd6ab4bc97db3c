package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/engine"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/svm"
	"crowddb/internal/wal"
	"crowddb/internal/workload"
	rescache "crowddb/internal/workload/cache"
)

// ExpandOptions tunes one schema expansion.
type ExpandOptions struct {
	// Method selects the fill strategy; defaults to SPACE when a
	// perceptual space is attached, CROWD otherwise.
	Method sqlparse.ExpandMethod
	// SamplesPerClass is the SPACE strategy's crowd-sourced training
	// sample size per class (the paper's n; default 40).
	SamplesPerClass int
	// Assignments is the number of judgments per item (default 10 for
	// CROWD, 5 for SPACE training samples).
	Assignments int
	// Budget caps crowd spending in dollars (0 = unlimited). When the
	// budget cannot cover the requested work, the job is shrunk, exactly
	// like a requester running out of money mid-experiment.
	Budget float64
	// Job carries marketplace parameters; zero fields get defaults
	// (10 items/HIT, $0.02/HIT, 95 judgments/min, don't-know allowed).
	Job crowd.JobConfig
	// WeightedVote aggregates judgments with EM-estimated worker
	// reliabilities (binary Dawid–Skene) instead of a plain majority —
	// the quality-management extension of the paper's §6 references
	// [32]/[33]. Most useful when spammer contamination is expected but
	// not dominant.
	WeightedVote bool
	// APIKey attributes the expansion's crowd spend to a per-key budget
	// (see SetBudget). Empty means unattributed: no cap applies unless
	// the database was opened with a DefaultBudget.
	APIKey string `json:"api_key,omitempty"`
	// Origin tags the expansion's provenance (OriginDemand, OriginAdmin,
	// OriginSpeculative; see workload.go). Empty defaults to demand at
	// submission. The tag rides the job for spend auditing and guards the
	// predictor against speculating on its own speculations.
	Origin string `json:"origin,omitempty"`

	// onPhase and onCharge are set by the job scheduler so that an
	// expansion running on a worker goroutine can report lifecycle
	// transitions and crowd spending to its job handle. They are
	// internal: callers outside core cannot set them.
	onPhase  func(jobs.State)
	onCharge func(*crowd.RunResult)
}

// phase reports a lifecycle transition to the owning job, if any.
func (o *ExpandOptions) phase(s jobs.State) {
	if o.onPhase != nil {
		o.onPhase(s)
	}
}

func (o *ExpandOptions) fillDefaults(method sqlparse.ExpandMethod) {
	if o.Method == "" {
		o.Method = method
	}
	if o.SamplesPerClass <= 0 {
		o.SamplesPerClass = 40
	}
	if o.Assignments <= 0 {
		if o.Method == sqlparse.ExpandCrowd || o.Method == sqlparse.ExpandHybrid {
			o.Assignments = 10
		} else {
			o.Assignments = 5
		}
	}
	if o.Job.ItemsPerHIT <= 0 {
		o.Job.ItemsPerHIT = 10
	}
	if o.Job.PayPerHIT <= 0 {
		o.Job.PayPerHIT = 0.02
	}
	if o.Job.JudgmentsPerMinute <= 0 {
		o.Job.JudgmentsPerMinute = 95
	}
	o.Job.AssignmentsPerItem = o.Assignments
}

// ExpansionReport describes what one schema expansion did.
type ExpansionReport struct {
	Table  string
	Column string
	Method sqlparse.ExpandMethod
	// Filled is the number of rows that received a value.
	Filled int
	// Unfilled is the number of rows left NULL (no majority, no space
	// coordinates, or budget exhausted).
	Unfilled int
	// TrainingSize is the number of labeled examples the SPACE strategy
	// trained on (0 for CROWD).
	TrainingSize int
	// Judgments, Cost and Minutes account the crowd work of this
	// expansion alone.
	Judgments int
	Cost      float64
	Minutes   float64
	// Requeried counts tuples re-elicited by the HYBRID cleaning pass.
	Requeried int
	// Steps is where the expansion's wall-clock went, measured from inside
	// the job (for HYBRID: its first round).
	Steps StepSeconds
}

// StepSeconds attributes one expansion's wall-clock, in seconds, to its
// steps: reading the item ids and choosing whom to ask (Plan), the crowd
// job (Collect; a batch member reports the shared job's whole duration),
// vote aggregation, SVM training, prediction over the space, and the
// column fill — resolving rows, applying the column and appending its WAL
// record. Steps a strategy does not have stay zero. Every finished
// expansion also feeds them to crowddb_expansion_step_seconds{step}.
type StepSeconds struct {
	Plan, Collect, Vote, Train, Predict, Fill float64
}

func (s StepSeconds) observe() {
	for _, step := range []struct {
		name string
		d    float64
	}{{"plan", s.Plan}, {"collect", s.Collect}, {"vote", s.Vote}, {"train", s.Train}, {"predict", s.Predict}, {"fill", s.Fill}} {
		if step.d > 0 {
			mExpansionStep.With(step.name).Observe(step.d)
		}
	}
}

// tableBinding connects a table to a perceptual space.
type tableBinding struct {
	space    *space.Space
	idColumn string
}

// expandableSpec registers a column that implicit expansion may create.
type expandableSpec struct {
	kind storage.Kind
	opts ExpandOptions
}

// DB is a crowd-enabled database.
//
// Reads and expansions are decoupled: SELECTs run concurrently under the
// storage layer's read locks, while schema expansions execute on the job
// scheduler's worker pool. The DB-level RWMutex below guards only the
// expansion metadata (space bindings and expandable registrations), so
// read-only queries never serialize behind crowd latency.
type DB struct {
	engine  *engine.Engine
	service JudgmentService
	ledger  *Ledger
	sched   *jobs.Scheduler

	// compactStop/compactDone bracket the background compactor goroutine
	// (nil when Options.CompactInterval is zero).
	compactStop chan struct{}
	compactDone chan struct{}

	// budgets holds per-API-key spending caps and cumulative spend,
	// enforced before HITs are issued and persisted via the WAL.
	budgets budgetBook

	// tracker records every query's column footprint and misses — the
	// co-access model behind predictive pre-expansion (always present).
	tracker *workload.Tracker
	// rcache is the result cache, keyed on SQL text (nil when disabled via
	// Options.CacheBytes < 0). Invalidation is seq-based: the storage
	// observer bumps a per-table sequence on every journaled mutation,
	// and core bumps it explicitly for index DDL, which emits no Op.
	rcache *rescache.Cache
	// specBudget caps total speculative crowd spend (dollars booked under
	// SpeculativeBudgetKey); non-positive disables speculation entirely.
	// Open leaves it zero without a batch window: speculation exists to
	// merge into the demand expansion's batch.
	specBudget float64

	// slowQuery, when positive, logs every query slower than the
	// threshold via slog with its traced phase/operator breakdown; it
	// forces the traced execution path for all SELECTs (see autoTrace).
	slowQuery time.Duration
	// traceAll forces traced execution for every ExecSQL even without a
	// slow-query threshold (the -trace flag).
	traceAll bool

	// wal is the durability log (nil when opened without a DataDir).
	// gate serializes snapshots against journaled mutations: every
	// mutation path holds gate.RLock across "apply + append", and
	// Snapshot holds gate.Lock while capturing state — see persist.go.
	wal  *wal.WAL
	gate sync.RWMutex

	// obsPending buffers workload observations until obsBatch of them are
	// journaled as one record (see observeLocked); obsMu guards it.
	obsMu      sync.Mutex
	obsPending []workload.Observation

	// trainers are the idle SVM working sets of trainSVC (strategy.go).
	trainerMu sync.Mutex
	trainers  []*svm.Trainer

	mu          sync.RWMutex
	bindings    map[string]*tableBinding             // table name (lower) → space
	expandables map[string]map[string]expandableSpec // table → column → spec
}

// NewDB creates an in-memory crowd-enabled database. The judgment service
// may be nil for a database that only uses pre-labeled gold samples. For
// a durable database, use Open with a DataDir.
func NewDB(service JudgmentService) *DB {
	db, _ := Open(Options{Service: service}) // no DataDir → no error paths
	return db
}

// Close shuts down the expansion scheduler, starting batches whose window
// is still open and waiting for every batch to finish, then flushes and
// closes the WAL. The returned error reports any append failure latched
// during operation — state that may not have reached disk.
func (db *DB) Close() error {
	// The compactor logs OpCompact records, so it stops first — before
	// the WAL goes away underneath it.
	if db.compactStop != nil {
		close(db.compactStop)
		<-db.compactDone
		db.compactStop = nil
	}
	db.sched.Close()
	db.gate.RLock()
	db.flushObservations(1)
	db.gate.RUnlock()
	if db.wal == nil {
		return nil
	}
	stickyErr := db.wal.Err()
	if err := db.wal.Close(); err != nil {
		return err
	}
	return stickyErr
}

// CompactNow synchronously compacts every table, bypassing the density
// threshold (the pin/fence admission gates still apply — see
// storage.Table.Compact). It returns the per-table results, keyed by
// table name. This is the POST /v1/admin/compact handler and the test
// hook; the background compactor runs the same pass with the
// configured threshold instead of Force.
func (db *DB) CompactNow() map[string]storage.CompactionResult {
	return db.compactPass(storage.CompactionPolicy{Force: true})
}

// compactPass runs one compaction sweep over all tables under policy.
// Each table compacts under the snapshot gate (read side), so the
// OpCompact record and the version swap land atomically with respect to
// Snapshot — exactly like any other journaled mutation.
func (db *DB) compactPass(policy storage.CompactionPolicy) map[string]storage.CompactionResult {
	out := make(map[string]storage.CompactionResult)
	c := db.Catalog()
	for _, name := range c.Names() {
		var res storage.CompactionResult
		err := db.mutate(func() error {
			tbl, ok := c.Get(name)
			if !ok {
				return fmt.Errorf("core: no table %q", name)
			}
			var cerr error
			res, cerr = tbl.Compact(policy)
			return cerr
		})
		if err != nil {
			// Dropped table or a latched WAL failure; the WAL surfaces the
			// latter at the next Snapshot/Close.
			continue
		}
		out[name] = res
	}
	return out
}

// compactLoop is the background compactor: a periodic sweep with the
// configured density threshold. Tables busy with pinned snapshots or
// write fences are skipped and retried next tick.
func (db *DB) compactLoop(interval time.Duration, frac float64) {
	defer close(db.compactDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-db.compactStop:
			return
		case <-ticker.C:
			db.compactPass(storage.CompactionPolicy{MinTombstoneFrac: frac})
		}
	}
}

// mutate runs fn (a storage mutation plus its WAL append) under the
// snapshot gate. Never hold the gate across a crowd wait.
func (db *DB) mutate(fn func() error) error {
	db.gate.RLock()
	defer db.gate.RUnlock()
	return fn()
}

// execEngine executes a statement under the snapshot gate, so DML lands
// atomically with respect to Snapshot. SELECT-heavy workloads are not
// serialized: the gate is an RWMutex and statements take the read side.
// A SELECT's result is stored in the result cache under key, its text ("" —
// nocache, or a statement handed over parsed — stores nothing; see
// cachedResult). When qt is non-nil, SELECTs execute with per-operator
// instrumentation and fill in their phase timings. The result is columnar
// (Result.Batches); the exported entry points box it.
func (db *DB) execEngine(stmt sqlparse.Statement, key string, qt *QueryTrace) (*Result, error) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	switch s := stmt.(type) {
	// Index DDL takes a detour for the virtual-column check, its
	// durability record, and cache invalidation (see indexes.go).
	case *sqlparse.CreateIndexStmt:
		return db.execCreateIndex(s)
	case *sqlparse.DropIndexStmt:
		return db.execDropIndex(s)
	// SELECTs route through the workload tracker and result cache.
	case *sqlparse.SelectStmt:
		return db.execSelectStmt(s, key, qt)
	}
	return db.engine.Run(stmt)
}

// Engine exposes the underlying SQL engine (read-only use).
func (db *DB) Engine() *engine.Engine { return db.engine }

// Catalog exposes the storage catalog.
func (db *DB) Catalog() *storage.Catalog { return db.engine.Catalog() }

// Ledger returns the cumulative crowd-sourcing account.
func (db *DB) Ledger() LedgerTotals { return db.ledger.Snapshot() }

// AttachSpace associates a perceptual space with a table. idColumn names
// the INTEGER column whose value is the item's index in the space; rows
// whose id falls outside the space are simply not predictable.
func (db *DB) AttachSpace(table, idColumn string, sp *space.Space) error {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return fmt.Errorf("core: no such table %q", table)
	}
	schema := tbl.Schema()
	idx, ok := schema.Lookup(idColumn)
	if !ok {
		return fmt.Errorf("core: table %q has no column %q", table, idColumn)
	}
	if schema.Column(idx).Kind != storage.KindInt {
		return fmt.Errorf("core: id column %q must be INTEGER", idColumn)
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	binding := &tableBinding{space: sp, idColumn: idColumn}
	// Log before installing (same discipline as storage mutators): on an
	// append failure the binding is neither durable nor active.
	if db.wal != nil {
		if _, err := db.wal.Append(recSpace, bindingToRecord(strings.ToLower(table), binding)); err != nil {
			return err
		}
	}
	db.bindings[strings.ToLower(table)] = binding
	return nil
}

// RegisterExpandable declares that the named column may be created by
// implicit query-driven expansion (a SELECT referencing it). This is the
// "malleable schema" declaration: the paper's §2 argues the DBMS should
// answer queries whether the data exists or not, but it still needs to
// know the new attribute's type and elicitation parameters.
func (db *DB) RegisterExpandable(table, column string, kind storage.Kind, opts ExpandOptions) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(table)
	if db.expandables[key] == nil {
		db.expandables[key] = map[string]expandableSpec{}
	}
	db.expandables[key][strings.ToLower(column)] = expandableSpec{kind: kind, opts: opts}
	// The signature cannot surface an append failure; the WAL latches it
	// and Snapshot/Close reports it.
	_ = db.logJSON(recExpandable, expandableRecord{
		Table: key, Column: strings.ToLower(column), Kind: kind, Opts: opts,
	}, false)
}

// binding returns the space binding for a table, if any.
func (db *DB) binding(table string) *tableBinding {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.bindings[strings.ToLower(table)]
}

func (db *DB) expandableSpec(table, column string) (expandableSpec, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.expandables[strings.ToLower(table)]
	if m == nil {
		return expandableSpec{}, false
	}
	spec, ok := m[strings.ToLower(column)]
	return spec, ok
}

// Result re-exports the engine result type.
type Result = engine.Result

// ExecSQL parses and executes one statement. SELECTs that reference a
// registered expandable column trigger schema expansion transparently and
// are then re-executed — the query-driven loop of the paper's title.
// The returned report is non-nil iff an expansion happened.
func (db *DB) ExecSQL(sql string) (*Result, *ExpansionReport, error) {
	res, rep, _, err := db.Query(sql, false, false)
	return res.Boxed(), rep, err
}

// ExecSQLNoCache is ExecSQL with the semantic result cache bypassed for
// this statement: neither served from nor stored into the cache. The
// escape hatch behind POST /v1/query?nocache=1 — for verifying a cached
// answer or benchmarking the executor.
func (db *DB) ExecSQLNoCache(sql string) (*Result, *ExpansionReport, error) {
	res, rep, _, err := db.Query(sql, true, false)
	return res.Boxed(), rep, err
}

// Exec executes a parsed statement (see ExecSQL). The caller blocks until
// the answer is complete, but the expansion itself runs on the job
// scheduler: concurrent queries hitting the same missing column join one
// shared job (singleflight) instead of each paying for its own crowd run.
// The result cache is keyed on SQL text, which a parsed statement does not
// carry, so Exec bypasses it: its SELECTs are neither served from the cache
// nor stored into it.
func (db *DB) Exec(stmt sqlparse.Statement) (*Result, *ExpansionReport, error) {
	res, rep, err := db.execQT(stmt, "", nil)
	return res.Boxed(), rep, err
}

// execQT is Exec with the result left columnar, the cache key of
// execEngine, and an optional query trace threaded down to the SELECT path
// (nil means untraced).
func (db *DB) execQT(stmt sqlparse.Statement, key string, qt *QueryTrace) (*Result, *ExpansionReport, error) {
	if ex, ok := stmt.(*sqlparse.ExpandStmt); ok {
		job, err := db.submitExpandStmt(ex)
		if err != nil {
			return nil, nil, err
		}
		report, err := waitReport(job)
		if err != nil {
			return nil, nil, err
		}
		msg := fmt.Sprintf("expanded %s.%s via %s: %d filled, %d unfilled, $%.2f",
			ex.Table, ex.Column.Name, report.Method, report.Filled, report.Unfilled, report.Cost)
		return &Result{Message: msg}, report, nil
	}

	res, err := db.execEngine(stmt, key, qt)
	if err == nil {
		return res, nil, nil
	}
	job, err := db.submitMissingColumn(stmt, err)
	if job == nil {
		return nil, nil, err
	}
	report, err := waitReport(job)
	if err != nil {
		return nil, nil, err
	}
	res, err = db.execEngine(stmt, key, qt)
	if err != nil {
		return nil, report, err
	}
	return res, report, nil
}

// submitMissingColumn is the query-driven step of every entry point: stmt
// failed with err, and if err is a MissingColumnError on a registered
// expandable column, the expansion is submitted (or joined, if already in
// flight) and its job returned for the caller to wait on before running
// stmt again. For an unqualified miss in a multi-table query the planner
// cannot know the intended table, so every candidate table's registry is
// consulted (FROM order). Otherwise the job is nil and the error is err
// unchanged, or the submission's rejection: only registered columns
// qualify — a typo must stay an error, not a $20 crowd job — and EXPLAIN
// never runs (or pays for) an expansion: planning a query on a missing
// column reports the miss instead of eliciting it.
func (db *DB) submitMissingColumn(stmt sqlparse.Statement, err error) (*jobs.Job, error) {
	if _, isExplain := stmt.(*sqlparse.ExplainStmt); isExplain {
		return nil, err
	}
	var missing *engine.MissingColumnError
	if !errors.As(err, &missing) {
		return nil, err
	}
	table := missing.Table
	spec, ok := db.expandableSpec(table, missing.Column)
	for _, cand := range missing.Candidates {
		if ok {
			break
		}
		table = cand
		spec, ok = db.expandableSpec(table, missing.Column)
	}
	if !ok {
		return nil, err
	}
	// The miss is a workload signal in its own right: it feeds the
	// co-access model (a miss IS a demand for the column) and the
	// /workload miss counters operators watch.
	db.observe(workload.Observation{
		Table: table, Columns: []string{missing.Column}, Kind: workload.KindMiss,
	})
	job, _, submitErr := db.submitExpansion(table, missing.Column, spec.kind, spec.opts, true)
	if submitErr != nil {
		return nil, fmt.Errorf("core: query-driven expansion of %s.%s rejected: %w",
			table, missing.Column, submitErr)
	}
	return job, nil
}

// waitReport blocks on the job and unwraps its *ExpansionReport. A nil
// report with nil error means a racing job already filled the column.
func waitReport(job *jobs.Job) (*ExpansionReport, error) {
	result, err := job.Wait(context.Background())
	if err != nil {
		return nil, err
	}
	report, _ := result.(*ExpansionReport)
	return report, nil
}

// defaultMethod is the method an expansion of table without one uses:
// SPACE over an attached perceptual space, CROWD otherwise.
func (db *DB) defaultMethod(table string) sqlparse.ExpandMethod {
	if db.binding(table) != nil {
		return sqlparse.ExpandSpace
	}
	return sqlparse.ExpandCrowd
}

// startExpansion is everything an expansion does before its crowd phase,
// for Expand and for each member of an expansion batch: resolve
// defaults, validate the kind, add the column to the table if absent,
// then either run HYBRID to the end — two crowd rounds, no single
// sampling phase to share — or hold the table's item ids and plan the
// elicitation. A nil elicitation means the expansion is over, with
// report and err its outcome; otherwise release ends the hold.
func (db *DB) startExpansion(table, column string, kind storage.Kind, opts ExpandOptions) (e *elicitation, release func(), report *ExpansionReport, err error) {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: no such table %q", table)
	}
	opts.fillDefaults(db.defaultMethod(table))
	if kind != storage.KindBool {
		return nil, nil, nil, fmt.Errorf("core: only BOOLEAN perceptual attributes are crowd-expandable in this build; %s has kind %s (use GoldFill for numeric attributes)", column, kind)
	}
	if _, exists := tbl.Schema().Lookup(column); !exists {
		err := db.mutate(func() error {
			_, err := tbl.AddColumn(storage.Column{
				Name: column, Kind: kind, Perceptual: true, Origin: storage.ColumnExpanded,
			})
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if opts.Method == sqlparse.ExpandHybrid {
		report, err := db.expandHybrid(tbl, column, opts)
		return nil, nil, report, err
	}
	release = db.holdItemIDs(tbl)
	if e, err = db.planElicitation(tbl, column, opts, false); err != nil {
		release()
		return nil, nil, nil, err
	}
	return e, release, nil, nil
}

// Expand adds the column to the table (if absent) and fills it with the
// selected strategy, synchronously, as a batch of one would. It is
// idempotent on the column: re-expanding an existing column re-elicits
// its values.
func (db *DB) Expand(table, column string, kind storage.Kind, opts ExpandOptions) (*ExpansionReport, error) {
	e, release, report, err := db.startExpansion(table, column, kind, opts)
	if e == nil {
		return report, err
	}
	defer release()
	return db.runElicitation(e)
}
