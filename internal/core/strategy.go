package core

import (
	"errors"
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

// finishElicitation turns a judgment log (the elicitation's share of the
// crowd run in ws) into labels by item id, per the planned method, in ws,
// fills the column with them and reports.
func (db *DB) finishElicitation(ws *workspace, e *elicitation, res *crowd.RunResult) (*ExpansionReport, error) {
	report := &ExpansionReport{
		Table: e.tbl.Name(), Column: e.column, Method: e.method,
		Judgments: len(res.Records), Cost: res.TotalCost, Minutes: res.DurationMinutes,
	}
	var err error
	switch e.method {
	case sqlparse.ExpandCrowd:
		err = db.finishCrowd(ws, e, res, report)
	case sqlparse.ExpandSpace:
		err = db.finishSpace(ws, e, res, report)
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
func (db *DB) finishCrowd(ws *workspace, e *elicitation, res *crowd.RunResult, report *ExpansionReport) error {
	e.opts.phase(jobs.StateFilling)
	clock := time.Now()
	votes := ws.vote(res.Records, e.opts)
	e.steps.Vote = lap(&clock)
	err := fillByItem(db, e.tbl, e.column, report, func(id int) (bool, bool) {
		label, ok := votes[id]
		return label, ok
	})
	e.steps.Fill = lap(&clock)
	return err
}

// FillC is the soft-margin penalty of the SVM a SPACE expansion trains on
// the crowd's voted sample and fills the column with.
const FillC = 2

// CleaningC is the soft-margin penalty of the SVM that flags questionable
// responses (IdentifyQuestionable, HYBRID's cleaning pass). It is softer
// than FillC because that SVM trains on every stored label, the wrong ones
// among them, and must smooth over an isolated wrong label rather than
// memorize it: a model that memorizes its labels contradicts none of them
// and flags nothing — which is why the metadata space fails in the
// paper's Table 4. 0.5 is the value Table 4 was established with.
const CleaningC = 0.5

// ErrSingleClass is the error of a SPACE expansion whose voted training
// sample holds one class only (or none): no classifier can be trained on
// it, and the column is left as it was.
var ErrSingleClass = errors.New("core: crowd training sample is single-class")

// finishSpace trains an RBF-SVM on the voted sample over the perceptual
// space and predicts every item of the space: the labels are the model's.
func (db *DB) finishSpace(ws *workspace, e *elicitation, res *crowd.RunResult, report *ExpansionReport) error {
	binding := db.binding(e.tbl.Name())
	if binding == nil {
		return fmt.Errorf("core: space binding for %q vanished mid-expansion", e.tbl.Name())
	}
	sp := binding.space
	e.opts.phase(jobs.StateTraining)
	clock := time.Now()
	votes := ws.vote(res.Records, e.opts)
	e.steps.Vote = lap(&clock)

	// Train on every sampled item that reached a majority, with whatever
	// class balance the crowd produced — the Experiment 4–6 protocol.
	// (The controlled Table 3 study uses balanced gold samples instead;
	// that protocol lives in internal/experiments.)
	X, y := ws.X[:0], ws.y[:0]
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
	ws.X, ws.y = X, y
	report.TrainingSize = len(X)
	if pos == 0 || pos == len(X) {
		return fmt.Errorf("%w: %s (pos=%d, neg=%d)", ErrSingleClass, e.column, pos, len(X)-pos)
	}
	model, err := ws.trainer.Fit(X, y, svm.SVCConfig{C: FillC})
	if err != nil {
		return err
	}
	e.steps.Train = lap(&clock)

	e.opts.phase(jobs.StateFilling)
	ws.labels = model.PredictMatrixInto(ws.labels, sp.Coords(), db.engine.Dop())
	labels := ws.labels
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

// elicited is one member's outcome of elicit: its share of the crowd
// job, or the error that stopped it. release ends its budget reservation.
type elicited struct {
	share   *crowd.RunResult
	err     error
	release func()
}

// elicit is the one way expansions reach the crowd, whether one asks
// (Expand, either round of HYBRID) or a batch of them
// (runExpansionBatch); es share one marketplace configuration. It
// reserves each member's projected cost against its key's cap, in order,
// so that same-key members cannot each pass against the same headroom; a
// member the cap rejects is asked nothing and charged nothing. The rest
// are asked in ONE Collect: one crowd job, one charge, its log written
// into ws. The combined run is booked once to the global ledger and the
// WAL, each member's share to its key's budget and its job, and only then
// are the reservations released — or when the call fails, or panics. It
// writes the outcomes to out, indexed like es; their shares are in ws.
func (db *DB) elicit(ws *workspace, es []*elicitation, out []elicited) {
	defer func() {
		for _, o := range out {
			if o.release != nil {
				o.release()
			}
		}
	}()
	reqs := make([]BatchRequest, 0, len(es))
	for i, e := range es {
		if out[i].release, out[i].err = db.reserveBudget(e.opts.APIKey, e.projected()); out[i].err == nil {
			e.opts.phase(jobs.StateSampling)
			reqs = append(reqs, BatchRequest{Question: e.column, ItemIDs: e.judgeIDs})
		}
	}
	if len(reqs) == 0 {
		return
	}
	clock := time.Now()
	batch := &ws.batch
	err := db.service.Collect(reqs, es[0].opts.Job, batch)
	collect := lap(&clock)
	if err != nil {
		for i := range out {
			if out[i].err == nil {
				out[i].err = err
			}
		}
		return
	}
	db.gate.RLock()
	db.ledger.add(batch.Combined)
	db.logCharge(batch.Combined)
	shares := batch.PerQuestion
	for i, e := range es {
		if out[i].err == nil {
			out[i].share, shares = shares[0], shares[1:]
			db.spendBudget(e.opts.APIKey, out[i].share.TotalCost)
		}
	}
	db.gate.RUnlock()
	for i, e := range es {
		if share := out[i].share; share != nil {
			if e.opts.onCharge != nil {
				e.opts.onCharge(share)
			}
			e.steps.Collect = collect
		}
	}
}

// elicitOne elicits e as a batch of one and finishes it, in one
// workspace.
func (db *DB) elicitOne(e *elicitation) (*ExpansionReport, error) {
	ws := db.takeWorkspace()
	defer db.giveWorkspace(ws) // after the fill, which reads the log, the votes and the model
	var out [1]elicited
	if db.elicit(ws, []*elicitation{e}, out[:]); out[0].err != nil {
		return nil, out[0].err
	}
	return db.finishElicitation(ws, e, out[0].share)
}

// expandHybrid crowd-sources everything, then uses the space to flag and
// re-elicit questionable responses (§4.4): direct crowd quality at a
// fraction of the re-verification cost. Each round is a batch of one of
// its own, so HYBRID never joins a shared HIT group.
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
	report, err := db.elicitOne(e)
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
	re := &elicitation{tbl: tbl, column: column, method: sqlparse.ExpandCrowd, opts: opts, judged: len(reIDs), judgeIDs: reIDs}
	re.opts.Assignments = opts.Assignments * 3
	re.opts.Job.AssignmentsPerItem = re.opts.Assignments
	// No phase report here: the first round already advanced the job to
	// filling, and the lifecycle only moves forward — the HYBRID
	// re-elicitation is part of the filling phase from the outside.
	re.opts.onPhase = nil
	ws := db.takeWorkspace()
	defer db.giveWorkspace(ws) // after the relabelling, which reads the log and the votes
	var out [1]elicited
	if db.elicit(ws, []*elicitation{re}, out[:]); out[0].err != nil {
		return nil, out[0].err
	}
	res := out[0].share
	requeryLabels := ws.vote(res.Records, opts)

	colIdx, _ := tbl.Schema().Lookup(column)
	// The crowd wait above took minutes; rows may have come, gone or been
	// renumbered by a compaction since. Resolve item ids to current rows
	// inside a write fence, which excludes the compactor across the whole
	// resolve→write window. The labels land as one SetBatch: one commit and
	// one set record per expansion, a row deleted since the pin skipped.
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
		var targets []int
		var labels []storage.Value
		for _, id := range reIDs {
			label, ok := requeryLabels[id]
			r, found := idToRow[id]
			if !ok || !found || r < 0 {
				continue // no verdict, or the row was deleted while the crowd deliberated
			}
			delete(idToRow, id) // an item listed twice is written once
			targets = append(targets, r)
			labels = append(labels, storage.Bool(label))
		}
		return db.mutate(func() error {
			_, err := tbl.SetBatch(targets, []int{colIdx}, [][]storage.Value{labels})
			return err
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

	ws := db.takeWorkspace()
	defer db.giveWorkspace(ws) // after the prediction, which runs the model
	X, y := ws.X[:0], ws.y[:0]
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
	ws.X, ws.y = X, y
	if err := cur.Err(); err != nil {
		return nil, err
	}
	if len(X) < 10 {
		return nil, fmt.Errorf("core: too few labeled rows (%d) to identify questionable responses", len(X))
	}
	model, err := ws.trainer.Fit(X, y, svm.SVCConfig{C: CleaningC})
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
