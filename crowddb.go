// Package crowddb is a crowd-enabled relational database with
// query-driven schema expansion — a from-scratch Go reproduction of
// Selke, Lofi & Balke, "Pushing the Boundaries of Crowd-enabled Databases
// with Query-driven Schema Expansion", PVLDB 5(6), 2012.
//
// A crowddb database answers SQL queries even when they reference
// attributes that no column holds yet: the missing column is created at
// query time and filled either by direct crowd-sourcing (one HIT per
// tuple batch, majority-voted) or — the paper's contribution — by
// extracting the attribute from a *perceptual space* built from
// Social-Web rating data, using only a small crowd-sourced training
// sample and a support vector machine.
//
// # Quick start
//
//	db := crowddb.New(service)        // service: a JudgmentService
//	db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`)
//	// … insert rows …
//	db.AttachSpace("movies", "movie_id", space)
//	db.RegisterExpandable("movies", "is_comedy", crowddb.KindBool,
//	    crowddb.ExpandOptions{SamplesPerClass: 40})
//
//	// The paper's running example — is_comedy does not exist yet; the
//	// database expands the schema, crowd-sources a training sample,
//	// trains an SVM on the perceptual space, fills the column, and only
//	// then answers:
//	res, report, err := db.ExecSQL(
//	    `SELECT name FROM movies WHERE is_comedy = true`)
//
// # Asynchronous expansion and serving
//
// Crowd expansions take (simulated) minutes, so they run on a background
// worker pool rather than the caller's goroutine. ExecSQL still blocks
// until the answer is complete, but concurrent queries hitting the same
// missing column share a single expansion job (singleflight — one crowd
// job, one ledger charge), and read-only queries keep flowing while an
// expansion is in flight. Do is the one way into a statement; in
// ModeAsync it never waits on the crowd:
//
//	var rows crowddb.RowStream
//	job, err := db.Do(ctx, &rows, crowddb.Request{
//	    SQL: `SELECT name FROM movies WHERE is_comedy = true`, Mode: crowddb.ModeAsync})
//	if job != nil {            // expansion started (or joined): poll it
//	    report, err := job.Wait(ctx)
//	    res, _, err := db.ExecSQL(…) // re-issue once done
//	} else if err == nil {     // answered at once: read, then close
//	    defer rows.Close()
//	    row, ok, err := rows.Next()
//	}
//
// In ModeWait (the zero Mode) and ModeStream, Do waits for the expansion
// until ctx is done; the job runs on when a caller stops waiting.
//
// Job status is observable via db.Job(id) / db.Jobs(), each job carrying
// its own cost ledger. cmd/crowdserve serves this API over HTTP/JSON
// (POST /v1/query, GET /v1/jobs/{id}, GET /v1/schema/{table}, GET /v1/ledger) with a
// bounded admission queue and graceful shutdown; see internal/server.
//
// See examples/quickstart for a complete runnable program, and DESIGN.md
// for the system inventory and the experiment reproduction index
// (DESIGN.md §7 covers the scheduler and serving layer).
package crowddb

import (
	"math/rand"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

// DB is a crowd-enabled database (see package documentation).
type DB = core.DB

// New creates an in-memory crowd-enabled database using the given
// judgment service. The service may be nil for databases that only use
// GoldFill. For a database that survives restarts, use Open.
func New(service JudgmentService) *DB { return core.NewDB(service) }

// Options configures a database: judgment service, durability (DataDir,
// Fsync, SegmentBytes), and expansion-scheduler sizing (Workers,
// QueueDepth).
type Options = core.Options

// Open creates a crowd-enabled database. With Options.DataDir set, all
// state — tables, crowd-expanded columns and their provenance, space
// bindings, the expandable registry, ledger totals, and job history — is
// persisted to a write-ahead log plus snapshots and recovered on the next
// Open, so a restart never re-elicits (or re-charges for) a column the
// crowd already filled. DB.Snapshot compacts the log; DB.Close flushes it.
func Open(opts Options) (*DB, error) { return core.Open(opts) }

// JudgmentService obtains human judgments for items; implement it to
// connect a real crowd-sourcing platform, or use NewSimulatedCrowd. Its
// one method, Collect, runs one crowd job for one or more questions: a
// solo expansion is a batch of one, expansions that share a batch window
// (Options.BatchWindow) share one job and one charge.
type JudgmentService = core.JudgmentService

// SimulatedCrowd is a JudgmentService backed by the bundled marketplace
// simulator.
type SimulatedCrowd = core.SimulatedCrowd

// NewSimulatedCrowd wires a worker population and an item-model source
// into a JudgmentService.
func NewSimulatedCrowd(pop *crowd.Population, items core.ItemModelFunc, rng *rand.Rand) *SimulatedCrowd {
	return core.NewSimulatedCrowd(pop, items, rng)
}

// BatchRequest is one elicitation's share of a crowd job.
type BatchRequest = core.BatchRequest

// BudgetStatus is one API key's budget cap and cumulative crowd spend
// (see DB.SetBudget / DB.Budgets and Options.DefaultBudget).
type BudgetStatus = core.BudgetStatus

// ErrBudgetExceeded marks an expansion rejected because its API key's
// budget cap cannot cover the projected crowd cost.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// ExpandOptions tunes one schema expansion.
type ExpandOptions = core.ExpandOptions

// ExpansionReport describes what one schema expansion did.
type ExpansionReport = core.ExpansionReport

// GoldValue is one expert-provided numeric judgment for GoldFill.
type GoldValue = core.GoldValue

// LedgerTotals is a snapshot of cumulative crowd spending.
type LedgerTotals = core.LedgerTotals

// Result is a query result set.
type Result = core.Result

// RowStream is a statement's answer read a row or a batch at a time
// (db.Do opens it): a SELECT's rows are produced on demand by the
// planner/iterator executor over a pinned snapshot, with no lock held
// between calls. Next returns rows the caller may keep; NextBatch the
// executor's column batches, the stream's until the next call. A query
// that triggers a schema expansion completes the crowd job before the
// first row is produced. Close it when done.
type RowStream = core.RowStream

// Request is one statement for db.Do: the SQL text, the Mode, and
// whether to bypass the result cache (NoCache) and to attach the
// statement's trace (Trace).
type Request = core.Request

// Mode is what db.Do does about a query-driven expansion.
type Mode = core.Mode

// Modes of a Request.
const (
	// ModeWait waits for the expansion and answers any statement.
	ModeWait = core.ModeWait
	// ModeAsync returns the expansion's job instead of waiting.
	ModeAsync = core.ModeAsync
	// ModeStream waits and answers SELECTs only, never through the
	// result cache.
	ModeStream = core.ModeStream
)

// Job is a handle on an asynchronous expansion job (Wait/Status/Done).
type Job = jobs.Job

// JobStatus is a point-in-time snapshot of an expansion job, including
// its lifecycle state and per-job cost ledger.
type JobStatus = jobs.Status

// Space is an immutable perceptual-space snapshot of item coordinates.
type Space = space.Space

// SpaceConfig holds factor-model hyperparameters (the paper's d and λ).
type SpaceConfig = space.Config

// DefaultSpaceConfig mirrors the paper's published hyperparameters
// (d = 100, λ = 0.02).
func DefaultSpaceConfig() SpaceConfig { return space.DefaultConfig() }

// Rating is one ⟨item, user, score⟩ triple of Social-Web feedback.
type Rating = space.Rating

// RatingDataset is a rating collection over item/user index spaces.
type RatingDataset = space.Dataset

// BuildSpace trains the paper's Euclidean-embedding factor model on rating
// data and returns the resulting perceptual space.
func BuildSpace(data *RatingDataset, cfg SpaceConfig) (*Space, error) {
	model, _, err := space.TrainEuclidean(data, cfg)
	if err != nil {
		return nil, err
	}
	return space.FromModel(model), nil
}

// WorkloadStats is the workload subsystem's observable state (DB.Workload
// and GET /v1/workload): durable co-access counters, the recent observation
// trace, result-cache effectiveness, and the speculative budget account.
// See Options.SpeculativeBudget / Options.CacheBytes and DESIGN.md §13.
type WorkloadStats = core.WorkloadStats

// WorkloadObservation is one workload event — a query's footprint on one
// table. DB.RecordObservation accepts these to warm the co-access model
// from an external query log.
type WorkloadObservation = workload.Observation

// Workload observation kinds.
const (
	WorkloadAccess = workload.KindAccess
	WorkloadMiss   = workload.KindMiss
	WorkloadExpand = workload.KindExpand
)

// Value kinds for RegisterExpandable.
const (
	KindBool  = storage.KindBool
	KindInt   = storage.KindInt
	KindFloat = storage.KindFloat
	KindText  = storage.KindText
)
