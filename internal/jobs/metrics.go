package jobs

import "crowddb/internal/obs"

// Expansion-job metric families (catalog: DESIGN.md §17). Queue depth is
// the backpressure signal (ErrQueueFull → 503 fires when it hits the
// configured bound); the phase histogram attributes where expansion
// wall-clock goes — queued wait vs. sampling vs. training vs. filling —
// which for crowd work is dominated by simulated elicitation minutes.
var (
	mQueueDepth = obs.Default.Gauge("crowddb_jobs_queue_depth",
		"Expansion jobs admitted whose batch has not started.")
	mJobsTotal = obs.Default.CounterVec("crowddb_jobs_total",
		"Expansion jobs by terminal state (done, failed).", "state")
	mPhaseSeconds = obs.Default.HistogramVec("crowddb_expansion_phase_seconds",
		"Time spent in each expansion lifecycle phase, in seconds.", nil, "phase")
)
