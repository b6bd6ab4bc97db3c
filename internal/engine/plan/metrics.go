package plan

import "crowddb/internal/obs"

// Access paths of every plan built, counted by the path each table ended
// up with (finishAccess): an index point probe, an index range probe, a
// scan, or a scan planned instead of a range probe whose count said it was
// too wide. The catalog lives in DESIGN.md §17.
var (
	mAccess = obs.Default.CounterVec("crowddb_plan_access_total",
		"Access paths planned, by kind (index_point, index_range, scan, scan_declined_index).", "path")
	mAccessPoint    = mAccess.With("index_point")
	mAccessRange    = mAccess.With("index_range")
	mAccessScan     = mAccess.With("scan")
	mAccessDeclined = mAccess.With("scan_declined_index")
)
