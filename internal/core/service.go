// Package core implements the paper's primary contribution: a
// crowd-enabled database whose schema expands at query time.
//
// A query may reference an attribute that no column holds yet
// (`SELECT * FROM movies WHERE is_comedy = true`). The database then
// creates the column and fills it using one of three strategies:
//
//   - CROWD  — direct crowd-sourcing: every tuple is judged by several
//     workers and majority-voted (the paper's baseline, Experiments 1–3);
//   - SPACE  — perceptual-space extraction: only a small training sample
//     is crowd-sourced, an RBF-SVM is trained on the items' coordinates in
//     a perceptual space built from Social-Web ratings, and all remaining
//     values are predicted (the paper's contribution, Experiments 4–6);
//   - HYBRID — direct crowd-sourcing followed by space-based cleaning:
//     responses that contradict the space are re-elicited (§4.4).
//
// The crowd itself is reached through the JudgmentService interface; this
// repository ships a simulator-backed implementation (the real CrowdFlower
// service is not reachable from an offline reproduction — see DESIGN.md).
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"crowddb/internal/crowd"
)

// JudgmentService obtains human judgments for items. Implementations may
// talk to a real crowd-sourcing platform or to the bundled simulator.
//
// Every expansion reaches the crowd through its one method, alone or in a
// batch: a solo expansion is a batch of one request, charged exactly as
// the job it is.
type JudgmentService interface {
	// Collect runs ONE crowd job whose HITs ask every request's yes/no
	// question about its items, and writes the combined run plus its
	// per-question split, indexed like reqs, into into: the caller's
	// memory, of which the service keeps nothing. For a single request the
	// split is the run itself: PerQuestion[0] is Combined.
	Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error
}

// BatchRequest is one elicitation's share of a crowd job: a yes/no
// question over a set of item IDs.
type BatchRequest struct {
	Question string
	ItemIDs  []int
}

// ItemModelFunc supplies the simulator's behavioural item models for a
// question (latent truth, popularity, ambiguity). Position i of the list
// holds the model of item i (Item.ID == i), so that an item's model is
// found by indexing; dataset.Universe.CrowdItems provides exactly this
// shape. Any other order still works, at the price of a linear search
// for every item asked about.
type ItemModelFunc func(question string) ([]crowd.Item, error)

// SimulatedCrowd is a JudgmentService backed by the marketplace simulator.
type SimulatedCrowd struct {
	mu         sync.Mutex
	population *crowd.Population
	items      ItemModelFunc
	rng        *rand.Rand
	// selected is the item models of the job being run, and runner the
	// job's bookkeeping; both are kept from job to job (under mu) while
	// they stay within selectedKeep items. A job copies what it needs of
	// the models and writes its log into the caller's result.
	selected []crowd.Item
	runner   crowd.Runner

	// Gold optionally mixes known-answer screening questions into every
	// job (Experiment 3 setup).
	Gold             []crowd.Item
	GoldFailureLimit int
}

// NewSimulatedCrowd wires a worker population and an item-model source
// into a JudgmentService. The rng drives all marketplace randomness.
func NewSimulatedCrowd(pop *crowd.Population, items ItemModelFunc, rng *rand.Rand) *SimulatedCrowd {
	return &SimulatedCrowd{population: pop, items: items, rng: rng}
}

// selectedKeep bounds the item models and the job memory a SimulatedCrowd
// keeps for the next job: a training sample (160 items) fits, a direct
// crowd fill of a large table is garbage once its job has run.
const selectedKeep = 1024

// selectItems appends to dst the question's item models for itemIDs, in
// that order — a crowd job draws from the shared rng item by item, so
// the order is part of the result. Each id's model is at its own
// position of the list (ItemModelFunc's contract), or else found by a
// linear search.
func (s *SimulatedCrowd) selectItems(dst []crowd.Item, question string, itemIDs []int) ([]crowd.Item, error) {
	models, err := s.items(question)
	if err != nil {
		return nil, err
	}
	for _, id := range itemIDs {
		i := id
		if i < 0 || i >= len(models) || models[i].ID != id {
			i = slices.IndexFunc(models, func(m crowd.Item) bool { return m.ID == id })
		}
		if i < 0 {
			return nil, fmt.Errorf("core: no crowd item model for id %d (question %q)", id, question)
		}
		dst = append(dst, models[i])
	}
	return dst, nil
}

// keep keeps sel's memory for the next job's selection, and the runner's
// for the next job, each while it is within selectedKeep.
func (s *SimulatedCrowd) keep(sel []crowd.Item) {
	if cap(sel) <= selectedKeep {
		s.selected = sel[:0]
	}
	if s.runner.Entries() > selectedKeep {
		s.runner = crowd.Runner{}
	}
}

// Collect implements JudgmentService: the requests' items are merged into
// one simulated crowd job (shared HIT group, shared worker pass, one
// wall-clock window) and the judgment log is split back per question; a
// single request's items are the job as they are.
func (s *SimulatedCrowd) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, req := range reqs {
		total += len(req.ItemIDs)
	}
	selected := slices.Grow(s.selected, total)
	batch := make([]crowd.BatchRequest, 0, 4) // on the stack for up to four questions
	for _, req := range reqs {
		from := len(selected)
		var err error
		if selected, err = s.selectItems(selected, req.Question, req.ItemIDs); err != nil {
			return err
		}
		batch = append(batch, crowd.BatchRequest{Question: req.Question, Items: selected[from:]})
	}
	defer s.keep(selected)
	if len(s.Gold) > 0 && len(cfg.GoldItems) == 0 {
		cfg.GoldItems = s.Gold
		cfg.GoldFailureLimit = s.GoldFailureLimit
	}
	return s.runner.RunBatch(s.population, batch, cfg, s.rng, into)
}

// LedgerTotals is a point-in-time snapshot of crowd-sourcing spend.
type LedgerTotals struct {
	// Judgments is the total number of human judgments collected.
	Judgments int
	// Cost is the total payment in dollars.
	Cost float64
	// Minutes is the total simulated crowd wall-clock.
	Minutes float64
	// Jobs is the number of crowd jobs issued.
	Jobs int
}

// Ledger accumulates the crowd-sourcing cost of a database across
// expansions, the accounting the paper's Figures 3–4 are drawn from.
type Ledger struct {
	mu     sync.Mutex
	totals LedgerTotals
}

func (l *Ledger) add(res *crowd.RunResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.totals.Judgments += len(res.Records)
	l.totals.Cost += res.TotalCost
	l.totals.Minutes += res.DurationMinutes
	l.totals.Jobs++
	// The money metrics: every global-ledger booking — one crowd job,
	// however many expansions it served — is one charge. Member shares are
	// budget debits, not new charges, and do not pass through here.
	mCrowdCharges.Inc()
	mCrowdJudgments.Add(int64(len(res.Records)))
	mCrowdDollars.Add(res.TotalCost)
}

// Snapshot returns a copy of the current totals.
func (l *Ledger) Snapshot() LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals
}
