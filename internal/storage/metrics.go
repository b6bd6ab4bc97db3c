package storage

import (
	"time"

	"crowddb/internal/obs"
)

// Storage-layer metric families (catalog: DESIGN.md §17). Process-wide
// across all tables; per-table breakdowns stay on
// GET /v1/schema/{table} (CompactionStats, Tombstones, LiveSnapshotEpochs).
var (
	mChunkSeals = obs.Default.Counter("crowddb_storage_chunk_seals_total",
		"Column tail segments sealed into immutable 4096-row chunks.")
	mTombstones = obs.Default.Counter("crowddb_storage_tombstones_total",
		"Rows tombstoned by DELETE.")
	mCompactionRuns = obs.Default.Counter("crowddb_storage_compaction_runs_total",
		"Completed table compactions (replayed OpCompact records excluded).")
	mCompactionRows = obs.Default.Counter("crowddb_storage_compaction_rows_reclaimed_total",
		"Tombstoned rows physically removed by compaction.")
	mSnapshotPins = obs.Default.Gauge("crowddb_storage_snapshot_pins",
		"Currently pinned read snapshots across all tables.")
)

// mDMLPhase says where a DML statement's time goes. The engine observes
// plan and scan (DMLPhase); the mutators here observe what happens under
// the table's write lock, each with a phaseClock: wal (journal appends),
// apply (coercion and building the next version) and index (publishing it
// and maintaining the indexes). Insert, SetBatch and Delete are the three
// statements' only write paths, so the method names the statement; WAL
// replay goes through them too and is counted.
var mDMLPhase = obs.Default.HistogramVec("crowddb_dml_phase_seconds",
	"Time an INSERT, UPDATE or DELETE spent in each phase (plan, scan, apply, index, wal), in seconds.",
	nil, "stmt", "phase")

// DMLPhase returns the histogram of one phase of one statement kind
// (insert, update, delete).
func DMLPhase(stmt, phase string) *obs.Histogram { return mDMLPhase.With(stmt, phase) }

// The phases a mutator times itself.
const (
	phaseWAL = iota
	phaseApply
	phaseIndex
	mutatorPhases
)

type mutatorHistograms [mutatorPhases]*obs.Histogram

func mutatorPhasesOf(stmt string) mutatorHistograms {
	return mutatorHistograms{phaseWAL: DMLPhase(stmt, "wal"), phaseApply: DMLPhase(stmt, "apply"), phaseIndex: DMLPhase(stmt, "index")}
}

var (
	mInsertPhases = mutatorPhasesOf("insert")
	mUpdatePhases = mutatorPhasesOf("update")
	mDeletePhases = mutatorPhasesOf("delete")
)

// phaseClock splits one mutation's time among its phases: lap charges the
// time since the previous lap (or the start) to a phase, observe reports
// the totals once the mutation has been applied. One wall-clock read at
// the start; the laps read the monotonic clock only (time.Since).
type phaseClock struct {
	start time.Time
	spent time.Duration // of start's elapsed time, charged so far
	d     [mutatorPhases]time.Duration
}

func startPhaseClock() phaseClock { return phaseClock{start: time.Now()} }

func (c *phaseClock) lap(phase int) {
	elapsed := time.Since(c.start)
	c.d[phase] += elapsed - c.spent
	c.spent = elapsed
}

func (c *phaseClock) observe(h *mutatorHistograms) {
	for phase, d := range c.d {
		h[phase].Observe(d.Seconds())
	}
}
