package core

import (
	"fmt"
	"strings"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Batched HIT elicitation, the cost lever of this layer: when several
// expansions of the same table are in flight together — four genre
// columns touched by one dashboard, a pre-warm sweep over a category set —
// their sampling phases are merged into shared HIT groups. The crowd is
// engaged once per batch: one job, one charge booked to the global
// ledger, the cost split across the member jobs' ledgers in proportion to
// the judgments each received.
//
// The flow: submitExpansion routes into the jobs.Coalescer (grouped by
// table) instead of straight onto the scheduler; when the batching window
// closes, runExpansionBatch receives the sealed members and (1) plans
// each member's sampling phase, (2) enforces its API key's budget cap,
// (3) issues ONE CollectBatch per shareable marketplace configuration,
// and (4) finishes each member — votes, SVM training, prediction, column
// fill — from its share of the combined judgment log.

// expansionWork is the payload an expansion carries through the
// coalescer.
type expansionWork struct {
	table, column string
	kind          storage.Kind
	opts          ExpandOptions
	implicit      bool
}

// batchErr wraps a member failure the way scheduler-run expansions do, so
// the HTTP layer classifies batched and solo failures identically.
func batchErr(table, column string, err error) error {
	return fmt.Errorf("%w: %s.%s: %w", ErrExpansionFailed, table, column, err)
}

// runExpansionBatch executes one sealed batch of same-table expansions.
// Members that cannot join a shared HIT group — already-filled implicit
// expansions, plan or budget rejections, HYBRID's two-round protocol —
// are finished individually; the rest are partitioned by marketplace
// configuration and elicited through CollectBatch, one charge per
// partition.
func (db *DB) runExpansionBatch(members []*jobs.BatchMember) {
	type planned struct {
		m *jobs.BatchMember
		w expansionWork
		e *elicitation
		// release ends the member's hold on the table's item ids. finish
		// calls it before the job completes, so that whoever waited for the
		// job finds the table free to compact; the deferred call is for a
		// panicking crowd service.
		release func()
	}
	finish := func(p planned, report *ExpansionReport, err error) {
		p.release()
		if err != nil {
			p.m.Finish(nil, batchErr(p.w.table, p.w.column, err))
		} else {
			p.m.Finish(report, nil)
		}
	}
	var ready []planned
	for _, m := range members {
		w := m.Payload.(expansionWork)
		if w.implicit && db.columnFilled(w.table, w.column) {
			m.Finish(nil, nil)
			continue
		}
		ctl := m.Ctl()
		opts := w.opts
		opts.onPhase = ctl.Phase
		opts.onCharge = func(res *crowd.RunResult) {
			ctl.Charge(len(res.Records), res.TotalCost, res.DurationMinutes)
		}
		tbl, err := db.prepareExpansion(w.table, w.column, w.kind, &opts)
		if err != nil {
			m.Finish(nil, batchErr(w.table, w.column, err))
			continue
		}
		if opts.Method == sqlparse.ExpandHybrid {
			// Two crowd rounds (elicit, clean, re-elicit): no single
			// sampling phase to merge, so it runs solo inside the batch.
			report, err := db.expandHybrid(tbl, w.column, opts)
			if err != nil {
				m.Finish(nil, batchErr(w.table, w.column, err))
			} else {
				m.Finish(report, nil)
			}
			continue
		}
		p := planned{m: m, w: w, release: db.holdItemIDs(tbl)}
		defer p.release()
		if p.e, err = db.planElicitation(tbl, w.column, opts); err != nil {
			finish(p, nil, err)
			continue
		}
		ready = append(ready, p)
	}
	if len(ready) == 0 {
		return
	}

	// Partition by marketplace configuration: two elicitations share a
	// HIT group only if workers would see identical job parameters.
	partitions := map[string][]planned{}
	var order []string
	for _, p := range ready {
		key := fmt.Sprintf("%+v", p.e.opts.Job)
		if _, ok := partitions[key]; !ok {
			order = append(order, key)
		}
		partitions[key] = append(partitions[key], p)
	}

	bsvc, batchable := db.service.(BatchJudgmentService)
	for _, key := range order {
		part := partitions[key]
		if len(part) == 1 || !batchable {
			// runElicitation reserves the member's budget internally.
			for _, p := range part {
				report, err := db.runElicitation(p.e)
				finish(p, report, err)
			}
			continue
		}

		// The budget wall: reserve every member's projected share before
		// the shared HIT group is issued. Reservations are sequential
		// and cumulative, so N same-key members cannot each pass against
		// the same headroom; members that don't fit are rejected here,
		// costing (and charging) nothing.
		var issued []planned
		var releases []func()
		for _, p := range part {
			release, err := db.reserveBudget(p.e.opts.APIKey, p.e.projected())
			if err != nil {
				finish(p, nil, err)
				continue
			}
			issued = append(issued, p)
			releases = append(releases, release)
		}
		if len(issued) == 0 {
			continue
		}
		reqs := make([]BatchRequest, len(issued))
		for i, p := range issued {
			p.e.opts.phase(jobs.StateSampling)
			reqs[i] = BatchRequest{Question: p.e.column, ItemIDs: p.e.judgeIDs}
		}
		clock := time.Now()
		batch, err := bsvc.CollectBatch(reqs, issued[0].e.opts.Job)
		collect := lap(&clock)
		if err != nil {
			for i, p := range issued {
				releases[i]()
				finish(p, nil, err)
			}
			continue
		}
		// One charge for the whole shared HIT group; each member's job
		// ledger and budget key sees only its proportional share, and
		// its reservation is released once that share is booked.
		db.chargeCombined(batch.Combined)
		for i, p := range issued {
			share := batch.PerQuestion[i]
			db.chargeMemberShare(share, &p.e.opts)
			releases[i]()
			p.e.steps.Collect = collect
			report, err := db.finishElicitation(p.e, share)
			finish(p, report, err)
		}
	}
}

// batchGroupKey groups expansions for coalescing: one batch per table.
func batchGroupKey(table string) string { return strings.ToLower(table) }
