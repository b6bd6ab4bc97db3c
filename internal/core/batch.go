package core

import (
	"fmt"
	"strings"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/storage"
)

// Every expansion runs here, as a member of a batch of same-table
// expansions (jobs.Scheduler, grouped by batchGroupKey). With a zero
// Options.BatchWindow each batch holds one member; with a positive one,
// the expansions submitted within the window — four genre columns
// touched by one dashboard, a pre-warm sweep over a category set — share
// a batch, and their sampling phases merge into shared HIT groups. The
// crowd is then engaged once per shared group: one job, one charge
// booked to the global ledger, the cost split across the member jobs'
// ledgers in proportion to the judgments each received.
//
// runExpansionBatch (1) starts each member as Expand does
// (startExpansion: prepare, HYBRID solo, hold the item ids, plan), (2)
// partitions the planned members by marketplace configuration, (3)
// elicits each partition through elicit — the budget wall, ONE Collect,
// one charge — as Expand elicits its batch of one, and (4) finishes each
// member — votes, SVM training, prediction, column fill — from its share
// of the combined judgment log.

// expansionWork is the payload an expansion carries through the
// scheduler.
type expansionWork struct {
	table, column string
	kind          storage.Kind
	opts          ExpandOptions
	implicit      bool
}

// finishMember completes a member's job with its outcome, wrapping a
// failure in ErrExpansionFailed so the HTTP layer classifies it as one.
func finishMember(m *jobs.BatchMember, w expansionWork, report *ExpansionReport, err error) {
	if err != nil {
		m.Finish(nil, fmt.Errorf("%w: %s.%s: %w", ErrExpansionFailed, w.table, w.column, err))
	} else {
		m.Finish(report, nil)
	}
}

// runExpansionBatch executes one sealed batch of same-table expansions.
// Members that cannot join a shared HIT group — already-filled implicit
// expansions, plan rejections, HYBRID's two-round protocol — are
// finished individually; the rest are partitioned by marketplace
// configuration and elicited one charge per partition.
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
		finishMember(p.m, p.w, report, err)
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
		e, release, report, err := db.startExpansion(w.table, w.column, w.kind, opts)
		if e == nil {
			finishMember(m, w, report, err)
			continue
		}
		defer release()
		ready = append(ready, planned{m: m, w: w, e: e, release: release})
	}
	// Partition by marketplace configuration: two elicitations share a
	// HIT group only if workers would see identical job parameters.
	for len(ready) > 0 {
		first, part, rest := ready[0].e, make([]planned, 0, 4), ready[:0]
		for _, p := range ready {
			if p.e.opts.Job.Equal(&first.opts.Job) {
				part = append(part, p)
			} else {
				rest = append(rest, p)
			}
		}
		ready = rest
		es, out := make([]*elicitation, 0, 4), make([]elicited, 0, 4) // on the stack for up to four members
		for _, p := range part {
			es, out = append(es, p.e), append(out, elicited{})
		}
		ws := db.takeWorkspace() // whose log holds the shares, to the last member's fill
		db.elicit(ws, es, out)
		for i, o := range out {
			if o.err != nil {
				finish(part[i], nil, o.err)
				continue
			}
			report, err := db.finishElicitation(ws, part[i].e, o.share)
			finish(part[i], report, err)
		}
		db.giveWorkspace(ws)
	}
}

// batchGroupKey groups expansions into batches: one open batch per table.
func batchGroupKey(table string) string { return strings.ToLower(table) }
