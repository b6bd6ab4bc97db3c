package core

import "crowddb/internal/obs"

// Core-layer metric families. Package-level so registration happens once
// at init; all DB instances in a process share them (counters are
// cumulative by contract — see internal/obs). The catalog lives in
// DESIGN.md §17.
var (
	mQuerySeconds = obs.Default.Histogram("crowddb_query_seconds",
		"End-to-end ExecSQL latency, parse through result, in seconds.", nil)
	mQueryPhase = obs.Default.HistogramVec("crowddb_query_phase_seconds",
		"SELECT latency split by phase (parse, plan, cache_lookup, execute).", nil, "phase")
	mCacheHits = obs.Default.Counter("crowddb_cache_hits_total",
		"SELECTs served from the semantic result cache.")
	mCacheMisses = obs.Default.Counter("crowddb_cache_misses_total",
		"SELECTs that consulted the result cache and executed anyway.")
	mSlowQueries = obs.Default.Counter("crowddb_slow_queries_total",
		"Queries that exceeded the -slow-query threshold.")

	mExpansionStep = obs.Default.HistogramVec("crowddb_expansion_step_seconds",
		"Wall-clock of one expansion's steps, measured inside the job (plan, collect, vote, train, predict, fill).", nil, "step")

	mSnapshotGate = obs.Default.Histogram("crowddb_snapshot_gate_seconds",
		"Time Snapshot holds the statement gate exclusively: pinning the tables and copying the state above them.", nil)

	mBudgetDenials = obs.Default.Counter("crowddb_budget_denials_total",
		"Crowd work rejected because an API key's budget cap could not cover it.")
	mCrowdCharges = obs.Default.Counter("crowddb_crowd_charges_total",
		"Crowd runs charged to the ledger.")
	mCrowdJudgments = obs.Default.Counter("crowddb_crowd_judgments_total",
		"Human judgments collected across all crowd runs.")
	mCrowdDollars = obs.Default.FloatCounter("crowddb_crowd_cost_dollars_total",
		"Cumulative crowd spend in dollars.")
)
