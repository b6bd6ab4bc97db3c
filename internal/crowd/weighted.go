package crowd

import (
	"math"
	"sort"
)

// WeightedVoteOutcome is the result of reliability-weighted voting: its
// VoteOutcome holds the inferred labels and the items whose posterior
// stayed at exactly 0.5.
type WeightedVoteOutcome struct {
	VoteOutcome
	// Confidence maps item ID to the posterior probability of the label.
	Confidence map[int]float64
	// WorkerReliability maps worker ID to the estimated probability that
	// the worker's answer matches the inferred truth.
	WorkerReliability map[int]float64
}

// WeightedMajorityVote infers item labels and per-worker reliabilities
// jointly by expectation-maximization — a binary Dawid–Skene model, the
// technique behind the paper's related work on "inferring a single
// reliable judgment from conflicting responses" ([32], [33] in §6).
//
//   - E-step: given worker reliabilities, compute each item's posterior
//     probability of being positive (starting from the unweighted vote).
//   - M-step: given posteriors, re-estimate each worker's reliability as
//     the expected fraction of their answers that match the labels.
//
// DontKnow answers and gold records are ignored. Workers with very few
// answers are shrunk toward 0.5 (uninformative) so a lucky two-answer
// worker cannot dominate. The iteration is damped and capped; it
// typically converges in well under ten rounds.
func WeightedMajorityVote(records []Record, iterations int) *WeightedVoteOutcome {
	if iterations <= 0 {
		iterations = 10
	}
	type vote struct {
		worker int
		pos    bool
	}
	votes := map[int][]vote{} // item → votes
	workerAnswers := map[int]int{}
	for _, r := range records {
		if r.Gold || r.Answer == DontKnow {
			continue
		}
		votes[r.ItemID] = append(votes[r.ItemID], vote{worker: r.WorkerID, pos: r.Answer == Positive})
		workerAnswers[r.WorkerID]++
	}

	// Initialize posteriors from the unweighted vote.
	posterior := map[int]float64{}
	for item, vs := range votes {
		pos := 0
		for _, v := range vs {
			if v.pos {
				pos++
			}
		}
		posterior[item] = float64(pos) / float64(len(vs))
	}
	reliability := map[int]float64{}
	for w := range workerAnswers {
		reliability[w] = 0.7 // mildly trusting prior
	}

	clampP := func(p float64) float64 {
		// Keep log-odds finite; perfect certainty would lock the EM.
		return math.Min(0.99, math.Max(0.01, p))
	}

	for it := 0; it < iterations; it++ {
		// M-step: reliability = expected agreement with current labels,
		// shrunk toward 0.5 by a pseudo-count of 4.
		agree := map[int]float64{}
		for item, vs := range votes {
			p := posterior[item]
			for _, v := range vs {
				if v.pos {
					agree[v.worker] += p
				} else {
					agree[v.worker] += 1 - p
				}
			}
		}
		for w, n := range workerAnswers {
			reliability[w] = clampP((agree[w] + 2) / (float64(n) + 4))
		}

		// E-step: posterior of each item from weighted log-odds.
		for item, vs := range votes {
			logOdds := 0.0
			for _, v := range vs {
				r := reliability[v.worker]
				l := math.Log(r / (1 - r))
				if v.pos {
					logOdds += l
				} else {
					logOdds -= l
				}
			}
			posterior[item] = 1 / (1 + math.Exp(-logOdds))
		}
	}

	out := &WeightedVoteOutcome{
		VoteOutcome:       VoteOutcome{Label: map[int]bool{}},
		Confidence:        map[int]float64{},
		WorkerReliability: reliability,
	}
	for item, p := range posterior {
		switch {
		case p > 0.5:
			out.Label[item] = true
			out.Confidence[item] = p
		case p < 0.5:
			out.Label[item] = false
			out.Confidence[item] = 1 - p
		default:
			out.Unclassified = append(out.Unclassified, item)
		}
	}
	sort.Ints(out.Unclassified)
	return out
}
