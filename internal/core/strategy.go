package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/svm"
)

// charge books one crowd run into the global ledger (and its WAL record,
// under the snapshot gate so totals and log stay consistent), debits the
// attributed API key's budget, and, when the expansion runs under a
// scheduled job, books into that job's ledger too.
func (db *DB) charge(res *crowd.RunResult, opts *ExpandOptions) {
	db.gate.RLock()
	db.ledger.add(res)
	db.logCharge(res)
	db.spendBudget(opts.APIKey, res.TotalCost)
	db.gate.RUnlock()
	if opts.onCharge != nil {
		opts.onCharge(res)
	}
}

// chargeCombined books ONE combined (batched) crowd run into the global
// ledger: N merged elicitations cost the requester a single charge.
func (db *DB) chargeCombined(res *crowd.RunResult) {
	db.gate.RLock()
	db.ledger.add(res)
	db.logCharge(res)
	db.gate.RUnlock()
}

// chargeMemberShare books one member's split of a combined run: the
// member's API-key budget and its per-job ledger see exactly its share,
// while the global ledger saw the batch once via chargeCombined.
func (db *DB) chargeMemberShare(share *crowd.RunResult, opts *ExpandOptions) {
	db.gate.RLock()
	db.spendBudget(opts.APIKey, share.TotalCost)
	db.gate.RUnlock()
	if opts.onCharge != nil {
		opts.onCharge(share)
	}
}

// noItem is the item id of a row whose id cell is NULL: the row is no
// item, nothing is asked about it and no label names it.
const noItem = math.MinInt

// eachItemID calls fn with the item id of every live row of snap, in scan
// order: the binding's id column, read through a one-column cursor so
// that the cost does not grow with the width of the table (noItem for a
// NULL cell), or for a table without a binding the physical row ID.
func eachItemID(snap *storage.Snap, binding *tableBinding, fn func(id int)) error {
	if binding == nil {
		for _, row := range snap.LiveRowIDs() {
			fn(row)
		}
		return nil
	}
	idCol, ok := snap.Schema().Lookup(binding.idColumn)
	if !ok {
		return fmt.Errorf("core: id column %q vanished", binding.idColumn)
	}
	cur := storage.NewRangeCursorAt(snap, 0, -1, 0)
	cur.SetCols([]int{idCol})
	for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
		col := &b.Cols[0]
		for _, i := range b.Sel {
			if col.IsNull(int(i)) {
				fn(noItem)
			} else {
				fn(int(col.Ints[i]))
			}
		}
	}
	return cur.Err()
}

// itemIDs returns the item id of every live row of snap, in scan order —
// for HYBRID's steps that pair the items with rows; the plan and the fill
// stream them instead.
func itemIDs(snap *storage.Snap, binding *tableBinding) ([]int, error) {
	ids := make([]int, 0, snap.NumLive())
	err := eachItemID(snap, binding, func(id int) { ids = append(ids, id) })
	return ids, err
}

// fillByItem is the one fill step of every strategy: CROWD's votes,
// SPACE's predictions and GoldFill's regression all arrive as labels by
// item id (label reports false for an item it has no value for) and land
// here. The rows are resolved when the column is applied, under the
// table's write lock and against the very version being replaced — a row
// inserted during the crowd wait is labelled like any other (or stays
// NULL when nobody was asked about it), a deleted one is simply not
// there. Row lists read before the wait were wrong for exactly that
// reason: one INSERT made them a cell short and the fill failed after the
// crowd had been paid. Each id is labelled as the cursor yields it — no
// id list is built — and the labels go to storage as one typed vector;
// the report's Filled/Unfilled count the rows of that version.
func fillByItem[T bool | float64](db *DB, tbl *storage.Table, column string, report *ExpansionReport, label func(id int) (T, bool)) error {
	binding := db.binding(tbl.Name())
	return db.mutate(func() error {
		return tbl.FillColumnFrom(column, func(at *storage.Snap) (*storage.Vector, error) {
			rows := at.NumLive()
			cells := make([]T, 0, rows)
			vec := &storage.Vector{}
			unfilled := 0
			err := eachItemID(at, binding, func(id int) {
				v, ok := label(id)
				if !ok {
					if vec.Nulls == nil {
						vec.Nulls = make([]uint64, (rows+63)/64)
					}
					k := len(cells)
					vec.Nulls[k>>6] |= 1 << (uint(k) & 63)
					unfilled++
				}
				cells = append(cells, v)
			})
			if err != nil {
				return nil, err
			}
			switch cells := any(cells).(type) {
			case []bool:
				vec.Kind, vec.Bools = storage.KindBool, cells
			case []float64:
				vec.Kind, vec.Floats = storage.KindFloat, cells
			}
			report.Filled, report.Unfilled = len(cells)-unfilled, unfilled
			return vec, nil
		})
	})
}

// affordable is how many of n planned items the budget lets the crowd
// judge (0 = unlimited): the largest count whose projectedCost — the very
// arithmetic the cap is checked with — the budget covers. A plan keeps
// that prefix of its items; judging fewer mirrors a requester stopping
// when the money runs out.
func affordable(n int, opts *ExpandOptions) int {
	if opts.Budget <= 0 {
		return n
	}
	// projectedCost grows with the item count, so the affordable counts
	// are a prefix of 1..n.
	return sort.Search(n, func(k int) bool { return projectedCost(k+1, opts) > opts.Budget })
}

// aggregateVotes applies the configured vote aggregation.
func aggregateVotes(records []crowd.Record, opts ExpandOptions) map[int]bool {
	if opts.WeightedVote {
		return crowd.WeightedMajorityVote(records, 0).Label
	}
	return crowd.MajorityVote(records).Label
}

// lap returns the seconds since *t and restarts the clock.
func lap(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

// elicitation is the planned sampling phase of one expansion, split off
// from the collect/finish phases so that the batching layer can merge the
// sampling of several pending expansions into one shared HIT group: plan
// each member, issue ONE crowd job for all of them, then finish each
// member from its share of the judgment log. It holds item ids, never
// rows: which rows carry those items is decided when the column is filled.
type elicitation struct {
	tbl    *storage.Table
	column string
	method sqlparse.ExpandMethod
	opts   ExpandOptions
	// priceOnly marks a plan made for its price (a budget pre-flight): it
	// counts the items to judge and collects none of them.
	priceOnly bool
	// judged is the number of items to send to the crowd, and judgeIDs,
	// unless priceOnly, are those items: every item for CROWD, the
	// training sample for SPACE.
	judged   int
	judgeIDs []int
	// steps collects the wall-clock of the steps as they complete.
	steps StepSeconds
}

// projected is the elicitation's up-front cost estimate, the number the
// per-key budget cap is checked against before any HIT is issued.
func (e *elicitation) projected() float64 {
	return projectedCost(e.judged, &e.opts)
}

// planItems plans e over one pinned snapshot of its table in two passes
// over the id column, so that no list of the table's items is built. The
// first pass counts the n items keep admits. The plan judges want(n) of
// them spread evenly — the i-th at position ⌊i·n/want⌋ of the admitted
// items in scan order — cut to the prefix the budget affords; the second
// pass takes those as they stream by. A price-only plan stops after the
// count. It returns n.
func planItems(e *elicitation, binding *tableBinding, keep func(id int) bool, want func(n int) int) (int, error) {
	snap := e.tbl.Pin()
	defer snap.Release()
	n := 0
	if err := eachItemID(snap, binding, func(id int) {
		if keep(id) {
			n++
		}
	}); err != nil {
		return 0, err
	}
	k := want(n)
	e.judged = affordable(k, &e.opts)
	if e.priceOnly || e.judged == 0 {
		return n, nil
	}
	step := float64(n) / float64(k)
	ids := make([]int, 0, e.judged)
	pos, next := 0, 0 // the admitted item's position, and the next one to take
	err := eachItemID(snap, binding, func(id int) {
		if !keep(id) {
			return
		}
		if pos == next && len(ids) < e.judged {
			ids = append(ids, id)
			next = int(math.Floor(float64(len(ids)) * step))
		}
		pos++
	})
	e.judgeIDs = ids
	return n, err
}

// holdItemIDs keeps the item ids of tbl meaning the same rows from the
// plan of an elicitation to its fill, until the returned release is
// called. The ids of a bound table are the values of its id column and
// need nothing. A table without a binding is asked about by physical row
// ID, which a compaction renumbers, so the paths that execute a plan hold
// a write fence over plan, crowd wait and fill: the compactor skips the
// table meanwhile and retries, as it does beside a fenced DML statement.
// A plan made only for its price (a budget pre-flight) keeps no ids and
// holds nothing. release may be called more than once.
func (db *DB) holdItemIDs(tbl *storage.Table) (release func()) {
	if db.binding(tbl.Name()) != nil {
		return func() {}
	}
	tbl.AcquireWriteFence()
	var once sync.Once
	return func() { once.Do(tbl.ReleaseWriteFence) }
}

// planCrowd plans the paper's baseline: judge every tuple (Experiments
// 1–3), capped by the per-expansion dollar budget.
func (db *DB) planCrowd(e *elicitation) error {
	if db.service == nil {
		return fmt.Errorf("core: direct crowd expansion requires a JudgmentService")
	}
	isItem := func(id int) bool { return id != noItem }
	every := func(n int) int { return n }
	if _, err := planItems(e, db.binding(e.tbl.Name()), isItem, every); err != nil {
		return err
	}
	if e.judged == 0 {
		return fmt.Errorf("core: budget $%.2f cannot cover a single tuple", e.opts.Budget)
	}
	return nil
}

// planSpace plans the paper's contribution: crowd-source only a small
// training sample (Experiments 4–6, §4.3).
func (db *DB) planSpace(e *elicitation) error {
	binding := db.binding(e.tbl.Name())
	if binding == nil {
		return fmt.Errorf("core: SPACE expansion of %q requires AttachSpace", e.tbl.Name())
	}
	if db.service == nil {
		return fmt.Errorf("core: SPACE expansion requires a JudgmentService for the training sample")
	}
	// Sample tuples to crowd-source: the most popular items give honest
	// workers the best chance of knowing them, but a uniformly random
	// sample is the paper's protocol — we take a deterministic spread.
	items := binding.space.NumItems()
	inSpace := func(id int) bool { return id >= 0 && id < items }
	sample := func(n int) int {
		return min(n, 2*e.opts.SamplesPerClass*2) // oversample: don't-knows and ties shrink it
	}
	n, err := planItems(e, binding, inSpace, sample)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("core: no row of %q maps into the attached space", e.tbl.Name())
	}
	if e.judged == 0 {
		return fmt.Errorf("core: budget $%.2f cannot cover a training sample", e.opts.Budget)
	}
	return nil
}

// planElicitation plans the sampling phase of the (defaulted) method;
// a priceOnly plan is for projected alone. HYBRID has no plannable single
// sampling phase — it runs two rounds, the first of them planned here as
// CROWD by expandHybrid.
func (db *DB) planElicitation(tbl *storage.Table, column string, opts ExpandOptions, priceOnly bool) (*elicitation, error) {
	start := time.Now()
	e := &elicitation{tbl: tbl, column: column, method: opts.Method, opts: opts, priceOnly: priceOnly}
	var err error
	switch opts.Method {
	case sqlparse.ExpandCrowd:
		err = db.planCrowd(e)
	case sqlparse.ExpandSpace:
		err = db.planSpace(e)
	default:
		err = fmt.Errorf("core: method %q has no single-phase elicitation plan", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	e.steps.Plan = lap(&start)
	return e, nil
}

// finishElicitation turns a judgment log (the elicitation's share of a
// crowd run) into labels by item id, per the planned method, fills the
// column with them and reports.
func (db *DB) finishElicitation(e *elicitation, res *crowd.RunResult) (*ExpansionReport, error) {
	report := &ExpansionReport{
		Table: e.tbl.Name(), Column: e.column, Method: e.method,
		Judgments: len(res.Records), Cost: res.TotalCost, Minutes: res.DurationMinutes,
	}
	var err error
	switch e.method {
	case sqlparse.ExpandCrowd:
		err = db.finishCrowd(e, res, report)
	case sqlparse.ExpandSpace:
		err = db.finishSpace(e, res, report)
	default:
		err = fmt.Errorf("core: cannot finish method %q", e.method)
	}
	if err != nil {
		return nil, err
	}
	report.Steps = e.steps
	report.Steps.observe()
	return report, nil
}

// finishCrowd majority-votes the log: the labels are the votes.
func (db *DB) finishCrowd(e *elicitation, res *crowd.RunResult, report *ExpansionReport) error {
	e.opts.phase(jobs.StateFilling)
	clock := time.Now()
	votes := aggregateVotes(res.Records, e.opts)
	e.steps.Vote = lap(&clock)
	err := fillByItem(db, e.tbl, e.column, report, func(id int) (bool, bool) {
		label, ok := votes[id]
		return label, ok
	})
	e.steps.Fill = lap(&clock)
	return err
}

// finishSpace trains an RBF-SVM on the voted sample over the perceptual
// space and predicts every item of the space: the labels are the model's.
func (db *DB) finishSpace(e *elicitation, res *crowd.RunResult, report *ExpansionReport) error {
	binding := db.binding(e.tbl.Name())
	if binding == nil {
		return fmt.Errorf("core: space binding for %q vanished mid-expansion", e.tbl.Name())
	}
	sp := binding.space
	e.opts.phase(jobs.StateTraining)
	clock := time.Now()
	votes := aggregateVotes(res.Records, e.opts)
	e.steps.Vote = lap(&clock)

	// Train on every sampled item that reached a majority, with whatever
	// class balance the crowd produced — the Experiment 4–6 protocol.
	// (The controlled Table 3 study uses balanced gold samples instead;
	// that protocol lives in internal/experiments.)
	X := make([][]float64, 0, len(e.judgeIDs))
	y := make([]bool, 0, len(e.judgeIDs))
	pos := 0
	for _, id := range e.judgeIDs {
		label, ok := votes[id]
		if !ok {
			continue
		}
		if label {
			pos++
		}
		X = append(X, sp.Vector(id))
		y = append(y, label)
	}
	report.TrainingSize = len(X)
	if pos == 0 || pos == len(X) {
		return fmt.Errorf("core: crowd training sample for %s is single-class (pos=%d, neg=%d)",
			e.column, pos, len(X)-pos)
	}
	model, err := db.trainSVC(X, y, svm.SVCConfig{C: 2})
	if err != nil {
		return err
	}
	e.steps.Train = lap(&clock)

	e.opts.phase(jobs.StateFilling)
	labels := model.PredictMatrix(sp.Coords(), db.engine.Dop())
	e.steps.Predict = lap(&clock)
	err = fillByItem(db, e.tbl, e.column, report, func(id int) (bool, bool) {
		if id < 0 || id >= len(labels) {
			return false, false // not an item of the space
		}
		return labels[id], true
	})
	e.steps.Fill = lap(&clock)
	return err
}

// trainerKeepBytes bounds the working memory a Trainer may hold and still
// be kept for the next training: a training sample of the default size
// (160 items) holds 0.1 MB, one of 500 items reaches the bound, and the
// 64 MB Gram matrix of a cleaning pass over 4 000 labelled rows is
// garbage as soon as its model exists.
const trainerKeepBytes = 1 << 20

// trainSVC is svm.TrainSVC in the memory of one of the database's idle
// Trainers (a new one when all are busy), so that an expansion's Gram
// matrix and working vectors are allocated once per concurrent expansion
// and not once per column. A model does not depend on the Trainer that
// fitted it. At most as many Trainers are kept as expansions can run at
// once — the scheduler's worker count, the capacity of db.trainers.
func (db *DB) trainSVC(X [][]float64, y []bool, cfg svm.SVCConfig) (*svm.SVC, error) {
	db.trainerMu.Lock()
	var t *svm.Trainer
	if n := len(db.trainers); n > 0 {
		t, db.trainers = db.trainers[n-1], db.trainers[:n-1]
	} else {
		t = new(svm.Trainer)
	}
	db.trainerMu.Unlock()

	model, err := t.TrainSVC(X, y, cfg)

	db.trainerMu.Lock()
	if len(db.trainers) < cap(db.trainers) && t.Footprint() <= trainerKeepBytes {
		db.trainers = append(db.trainers, t)
	}
	db.trainerMu.Unlock()
	return model, err
}

// runElicitation is the solo (unbatched) collect step: budget
// reservation, one crowd job for this elicitation alone, one charge.
func (db *DB) runElicitation(e *elicitation) (*ExpansionReport, error) {
	release, err := db.reserveBudget(e.opts.APIKey, e.projected())
	if err != nil {
		return nil, err
	}
	// Released after charge books the actual spend (or on error), so a
	// concurrent same-key elicitation never sees the cap headroom free
	// while this one's HITs are in flight.
	defer release()
	e.opts.phase(jobs.StateSampling)
	clock := time.Now()
	res, err := db.service.Collect(e.column, e.judgeIDs, e.opts.Job)
	if err != nil {
		return nil, err
	}
	e.steps.Collect = lap(&clock)
	db.charge(res, &e.opts)
	return db.finishElicitation(e, res)
}

// expandHybrid crowd-sources everything, then uses the space to flag and
// re-elicit questionable responses (§4.4): direct crowd quality at a
// fraction of the re-verification cost. Two crowd rounds, so it never
// joins a shared HIT batch.
func (db *DB) expandHybrid(tbl *storage.Table, column string, opts ExpandOptions) (*ExpansionReport, error) {
	binding := db.binding(tbl.Name())
	if binding == nil {
		return nil, fmt.Errorf("core: HYBRID expansion of %q requires AttachSpace", tbl.Name())
	}
	first := opts
	first.Method = sqlparse.ExpandCrowd
	e, err := db.planElicitation(tbl, column, first, false)
	if err != nil {
		return nil, err
	}
	report, err := db.runElicitation(e)
	if err != nil {
		return nil, err
	}
	report.Method = sqlparse.ExpandHybrid

	questionable, err := db.questionable(tbl, binding, column)
	if err != nil {
		return nil, err
	}
	if len(questionable) == 0 {
		return report, nil
	}

	// Re-elicit flagged tuples with tripled redundancy.
	reIDs := make([]int, len(questionable))
	for i, q := range questionable {
		reIDs[i] = q.id
	}
	// No phase report here: the first round already advanced the job to
	// filling, and the lifecycle only moves forward — the HYBRID
	// re-elicitation is part of the filling phase from the outside.
	reOpts := opts
	reOpts.Assignments = opts.Assignments * 3
	reOpts.Job.AssignmentsPerItem = reOpts.Assignments
	release, err := db.reserveBudget(opts.APIKey, projectedCost(len(reIDs), &reOpts))
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := db.service.Collect(column, reIDs, reOpts.Job)
	if err != nil {
		return nil, err
	}
	db.charge(res, &opts)
	requeryLabels := aggregateVotes(res.Records, opts)

	colIdx, _ := tbl.Schema().Lookup(column)
	// The crowd wait above took minutes; rows may have come, gone or been
	// renumbered by a compaction since. Resolve item ids to current rows
	// inside a write fence, which excludes the compactor across the whole
	// resolve→Set window.
	err = tbl.WithWriteFence(func() error {
		snap := tbl.Pin()
		defer snap.Release()
		ids, err := itemIDs(snap, binding)
		if err != nil {
			return err
		}
		rows := snap.LiveRowIDs()
		idToRow := make(map[int]int, len(reIDs))
		for _, id := range reIDs {
			idToRow[id] = -1
		}
		for k, id := range ids {
			if _, wanted := idToRow[id]; wanted {
				idToRow[id] = rows[k]
			}
		}
		return db.mutate(func() error {
			for _, id := range reIDs {
				label, ok := requeryLabels[id]
				if !ok {
					continue
				}
				r := idToRow[id]
				if r < 0 {
					continue // row deleted while the crowd deliberated
				}
				if err := tbl.Set(r, colIdx, storage.Bool(label)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	report.Judgments += len(res.Records)
	report.Cost += res.TotalCost
	report.Minutes += res.DurationMinutes
	report.Requeried = len(reIDs)
	return report, nil
}

// IdentifyQuestionable trains an SVM on the column's current values over
// the attached perceptual space and returns the row indices whose stored
// label contradicts the model's prediction — the §4.4 cleaning primitive.
func (db *DB) IdentifyQuestionable(table, column string) ([]int, error) {
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return nil, fmt.Errorf("core: no such table %q", table)
	}
	binding := db.binding(table)
	if binding == nil {
		return nil, fmt.Errorf("core: IdentifyQuestionable requires AttachSpace on %q", table)
	}
	flagged, err := db.questionable(tbl, binding, column)
	if err != nil {
		return nil, err
	}
	rows := make([]int, len(flagged))
	for i, f := range flagged {
		rows[i] = f.row
	}
	return rows, nil
}

// flaggedRow is one stored label the space model contradicts: the
// physical row and the item in it, both as of the snapshot examined.
type flaggedRow struct{ row, id int }

// questionable is IdentifyQuestionable over one pinned snapshot of a
// bound table, in row order.
func (db *DB) questionable(tbl *storage.Table, binding *tableBinding, column string) ([]flaggedRow, error) {
	snap := tbl.Pin()
	defer snap.Release()
	colIdx, ok := snap.Schema().Lookup(column)
	if !ok {
		return nil, fmt.Errorf("core: table %q has no column %q", tbl.Name(), column)
	}
	if snap.Schema().Column(colIdx).Kind != storage.KindBool {
		return nil, fmt.Errorf("core: IdentifyQuestionable requires a BOOLEAN column")
	}
	ids, err := itemIDs(snap, binding)
	if err != nil {
		return nil, err
	}
	rows := snap.LiveRowIDs()
	sp := binding.space

	var X [][]float64
	var y []bool
	var labeled []flaggedRow
	cur := storage.NewRangeCursorAt(snap, 0, -1, 0)
	cur.SetCols([]int{colIdx})
	k := 0
	for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
		col := &b.Cols[0]
		for _, i := range b.Sel {
			id, row := ids[k], rows[k]
			k++
			if col.IsNull(int(i)) || id < 0 || id >= sp.NumItems() {
				continue // nothing to verify, or nothing to verify it with
			}
			X = append(X, sp.Vector(id))
			y = append(y, col.Bools[i])
			labeled = append(labeled, flaggedRow{row: row, id: id})
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	if len(X) < 10 {
		return nil, fmt.Errorf("core: too few labeled rows (%d) to identify questionable responses", len(X))
	}
	model, err := db.trainSVC(X, y, svm.SVCConfig{C: 2})
	if err != nil {
		return nil, err
	}
	var out []flaggedRow
	for j, predicted := range model.PredictAll(X) {
		if predicted != y[j] {
			out = append(out, labeled[j])
		}
	}
	return out, nil
}
