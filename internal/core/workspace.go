package core

import (
	"math"

	"crowddb/internal/crowd"
	"crowddb/internal/svm"
)

// workspace is the working memory of one expansion's (or one batch
// partition's) collect → vote → train → predict → fill: the judgment log,
// the Voter whose maps hold the majority, the Trainer whose Gram matrix,
// vectors and model arrays fit the SVM, the training rows and labels, and
// the predicted labels. It is taken from the database's free list
// (takeWorkspace) before the crowd is asked and given back after the last
// fill (giveWorkspace) — not earlier: the log, the votes and the model it
// fills from live in it. The column's cells and the report are never in it.
type workspace struct {
	batch   crowd.BatchResult
	trainer svm.Trainer
	voter   crowd.Voter
	X       [][]float64
	y       []bool
	labels  []bool
}

// workspaceKeepBytes bounds the memory a workspace may hold and still be
// kept for the next expansion: a training sample of the default size (160
// items) holds 0.15 MB, one of 500 items reaches the bound, and the 64 MB
// Gram matrix of a cleaning pass over 4 000 labelled rows is garbage as
// soon as its flags exist. The judgment log is held to the bound on its
// own: the 1.3 MB log of a 4 000-row CROWD fill is dropped, the rest kept.
const workspaceKeepBytes = 1 << 20

// footprint is the number of bytes the workspace holds on to beside the log.
func (w *workspace) footprint() int {
	return w.trainer.Footprint() + w.voter.Footprint() + 24*cap(w.X) + cap(w.y) + cap(w.labels)
}

// vote applies the configured vote aggregation. The plain majority's map
// is the workspace's Voter's: it holds until the workspace's next vote.
func (w *workspace) vote(records []crowd.Record, opts ExpandOptions) map[int]bool {
	if opts.WeightedVote {
		return crowd.WeightedMajorityVote(records, 0).Label
	}
	return w.voter.VoteAt(records, math.Inf(1))
}

// takeWorkspace returns one of the database's idle workspaces, or a new
// one when all are busy.
func (db *DB) takeWorkspace() *workspace {
	db.workspaceMu.Lock()
	defer db.workspaceMu.Unlock()
	n := len(db.workspaces)
	if n == 0 {
		return new(workspace)
	}
	w := db.workspaces[n-1]
	db.workspaces = db.workspaces[:n-1]
	return w
}

// giveWorkspace ends an expansion's use of w. It is kept for the next one
// while at most as many are idle as expansions can run at once — the
// scheduler's worker count, the capacity of db.workspaces — and it holds
// no more than workspaceKeepBytes. Its training rows are dropped, so that
// an idle workspace does not hold on to a space's coordinates.
func (db *DB) giveWorkspace(w *workspace) {
	clear(w.X)
	w.X, w.y = w.X[:0], w.y[:0]
	if c := w.batch.Combined; c != nil && 32*cap(c.Records) > workspaceKeepBytes {
		w.batch = crowd.BatchResult{} // 32 B a record
	}
	if w.footprint() > workspaceKeepBytes {
		return
	}
	db.workspaceMu.Lock()
	if len(db.workspaces) < cap(db.workspaces) {
		db.workspaces = append(db.workspaces, w)
	}
	db.workspaceMu.Unlock()
}
