package crowd

import (
	"fmt"
	"math/rand"
	"slices"
)

// Batched HIT issuing: several pending elicitations — typically different
// perceptual attributes of the same table whose expansions happen to be in
// flight together — are merged into ONE crowd job. Workers see a single
// HIT group whose items interleave every question, so the marketplace is
// engaged once: one posting, one worker pass, one charge. The requester
// pays the combined judgment volume, but the fixed per-job overhead
// (posting, worker ramp-up, wall-clock) is shared, and the accounting
// layer books a single charge instead of one per attribute.

// BatchRequest is one pending elicitation joining a shared HIT group: a
// yes/no question over a set of items. Item IDs only need to be unique
// within one request; the same tuple may appear under several questions.
type BatchRequest struct {
	Question string
	Items    []Item
}

// BatchResult is the outcome of one crowd job that served its questions.
// RunBatch writes into it, reusing Combined's memory: what a job leaves in
// Combined is valid until the next job into the result.
type BatchResult struct {
	// Combined is the shared job as the marketplace saw it: the full
	// judgment timeline, total cost, total duration. Item IDs in a merged
	// batch's Combined.Records are internal (question, item) slot IDs —
	// use PerQuestion for anything per-item.
	Combined *RunResult
	// PerQuestion has one entry per request, in request order: the
	// records of that question's items (original item IDs restored),
	// the question's proportional share of the total cost, and the
	// SHARED wall-clock duration — the whole point of batching is that
	// N questions complete in one job's time, not N jobs' time.
	PerQuestion []*RunResult
}

// CopyFrom makes b a copy of src that shares no memory with it, the
// combined log copied into b's own: for a service that answers from a log
// it keeps, and for a caller that keeps a job past the next one.
func (b *BatchResult) CopyFrom(src *BatchResult) {
	if b.Combined == nil {
		b.Combined = new(RunResult)
	}
	c := *src.Combined
	c.Records = append(b.Combined.Records[:0], c.Records...)
	c.Stats, c.ExcludedWorkers = slices.Clone(c.Stats), slices.Clone(c.ExcludedWorkers)
	*b.Combined = c
	b.PerQuestion = b.PerQuestion[:0]
	for _, q := range src.PerQuestion {
		if q == src.Combined {
			b.PerQuestion = append(b.PerQuestion, b.Combined)
		} else {
			b.PerQuestion = append(b.PerQuestion, clone(q))
		}
	}
}

// clone returns a copy of r that shares no memory with it.
func clone(r *RunResult) *RunResult {
	c := *r
	c.Records, c.Stats, c.ExcludedWorkers = slices.Clone(r.Records), slices.Clone(r.Stats), slices.Clone(r.ExcludedWorkers)
	return &c
}

// RunBatch executes elicitation requests as one crowd job in the Runner's
// memory, written into into. One request is Run on its items into
// Combined: PerQuestion[0] is Combined. Several are merged: each (question,
// item) pair is remapped onto a unique slot ID, the slot list runs through
// Run — so worker behaviour, gold screening, and marketplace dynamics are
// exactly those of a single job — and the log is split back per question.
//
// The combined cost is split across questions proportionally to the
// judgments each question's items received; overhead judgments (gold
// questions, discarded work from excluded workers) are distributed the
// same way, so the per-question costs sum to the combined total.
func (r *Runner) RunBatch(pop *Population, reqs []BatchRequest, cfg JobConfig, rng *rand.Rand, into *BatchResult) error {
	if len(reqs) == 0 {
		return fmt.Errorf("crowd: empty batch")
	}

	// Remap every (question, item) pair onto a dense non-negative slot ID.
	// Gold items use negative IDs by convention, so slots cannot collide
	// with them.
	type origin struct {
		req int
		id  int
	}
	slots := 0
	for _, req := range reqs {
		slots += len(req.Items)
	}
	if slots == 0 {
		return fmt.Errorf("crowd: batch has no items")
	}
	if into.Combined == nil {
		into.Combined = new(RunResult)
	}
	combined := into.Combined
	if len(reqs) == 1 {
		into.PerQuestion = append(into.PerQuestion[:0], combined)
		return r.Run(pop, reqs[0].Items, cfg, rng, combined)
	}
	merged := make([]Item, 0, slots)
	origins := make([]origin, 0, slots)
	for ri, req := range reqs {
		for _, it := range req.Items {
			slot := it
			slot.ID = len(merged)
			merged = append(merged, slot)
			origins = append(origins, origin{req: ri, id: it.ID})
		}
	}

	if err := r.Run(pop, merged, cfg, rng, combined); err != nil {
		return err
	}

	// Split the timeline back per question, restoring original item IDs.
	// Each question's records are counted first and allocated once; taken
	// in the combined order, they are already sorted by time. seen holds
	// one row per question over the workers of the combined run's Stats:
	// a question's distinct workers are the entries set in its row.
	counts := make([]int, len(reqs))
	kept := 0
	for _, rec := range combined.Records {
		if !rec.Gold { // screening questions belong to the whole batch
			counts[origins[rec.ItemID].req]++
			kept++
		}
	}
	per := into.PerQuestion[:0]
	for _, n := range counts {
		per = append(per, &RunResult{Records: make([]Record, 0, n), DurationMinutes: combined.DurationMinutes})
	}
	into.PerQuestion = per
	workerAt := make(map[int]int, len(combined.Stats))
	for i, st := range combined.Stats {
		workerAt[st.WorkerID] = i
	}
	seen := make([]bool, len(reqs)*len(combined.Stats))
	for _, rec := range combined.Records {
		if rec.Gold {
			continue
		}
		o := origins[rec.ItemID]
		rec.ItemID = o.id
		r := per[o.req]
		r.Records = append(r.Records, rec)
		if at := o.req*len(combined.Stats) + workerAt[rec.WorkerID]; !seen[at] {
			seen[at] = true
			r.DistinctWorkers++
		}
	}

	// Proportional cost split; the remainder from rounding overhead onto
	// shares is folded into the last non-empty question so the split sums
	// exactly to the combined charge.
	assigned := 0.0
	last := -1
	for i, r := range per {
		r.ExcludedWorkers = append([]int(nil), combined.ExcludedWorkers...)
		if kept > 0 {
			r.TotalCost = combined.TotalCost * float64(len(r.Records)) / float64(kept)
		} else {
			r.TotalCost = combined.TotalCost / float64(len(per))
		}
		assigned += r.TotalCost
		if len(r.Records) > 0 || kept == 0 {
			last = i
		}
	}
	if last >= 0 {
		per[last].TotalCost += combined.TotalCost - assigned
	}
	return nil
}
