// Package crowd simulates a crowd-sourcing marketplace (CrowdFlower /
// Amazon Mechanical Turk in the paper) well enough to reproduce the
// population effects the paper measures in Experiments 1–3:
//
//   - an open worker population contaminated by spammers who claim to know
//     nearly every item and answer quasi-randomly (Experiment 1),
//   - a country-filtered population of honest workers who only judge items
//     they actually know (Experiment 2),
//   - a "lookup" task formulation with gold-question screening, where
//     workers research the answer on the Web: slow but accurate
//     (Experiment 3).
//
// The simulator is calibrated to the *worker statistics* the paper reports
// (§4.1: answer-option split, the two visible worker groups, judgments per
// minute); the experiment outcomes — accuracy, coverage, duration, cost —
// then fall out of the simulation rather than being hard-coded.
package crowd

import (
	"fmt"
	"math/rand"
	"slices"
)

// Judgment is one worker's answer for one item.
type Judgment int8

const (
	// DontKnow means the worker admitted not knowing the item.
	DontKnow Judgment = iota
	// Positive means "the item has the attribute" (e.g. "is a comedy").
	Positive
	// Negative means "the item does not have the attribute".
	Negative
)

func (j Judgment) String() string {
	switch j {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return "dont-know"
	}
}

// Item is one tuple whose attribute value is being crowd-sourced.
type Item struct {
	// ID identifies the tuple (e.g. the movie_id).
	ID int
	// Truth is the answer a knowledgeable worker's perception converges
	// to. Note that the caller decides what this is: the dataset layer
	// supplies the *perceived* label, which systematically disagrees with
	// the expert reference near category boundaries — that is why crowd
	// majorities cannot reach 100% accuracy against the reference even
	// with honest workers (§4.1).
	Truth bool
	// Popularity in (0, 1] scales how likely a worker is to know the item.
	// A random sample of a large movie catalog is mostly obscure titles —
	// the paper estimates an average person knows 10–20% of them.
	Popularity float64
	// Ambiguity in [0, 0.5) is the probability that even a knowledgeable
	// honest worker judges against the latent truth (borderline comedies
	// exist; the expert databases disagree on them too).
	Ambiguity float64
}

// Archetype is a worker behaviour model.
type Archetype uint8

const (
	// Honest workers answer only items they know, with good accuracy.
	// The paper's "group b": knew ~26% of items, judged 32% comedy.
	Honest Archetype = iota
	// Spammer workers claim to know nearly everything and answer without
	// regard for the truth. The paper's "group a": claimed to know 94% of
	// all movies and called 56% of them comedies.
	Spammer
	// Lookup workers research the answer on the Web (Experiment 3): they
	// can answer for every item with high accuracy, but are ~5x slower.
	Lookup
)

func (a Archetype) String() string {
	switch a {
	case Honest:
		return "honest"
	case Spammer:
		return "spammer"
	case Lookup:
		return "lookup"
	default:
		return fmt.Sprintf("Archetype(%d)", uint8(a))
	}
}

// Worker is one simulated crowd worker.
type Worker struct {
	ID        int
	Country   string
	Archetype Archetype

	// KnowRate is the base probability of knowing an item of average
	// popularity (honest workers only; spammers claim to know everything,
	// lookup workers can always research).
	KnowRate float64
	// Accuracy is the probability of answering according to the latent
	// truth when the worker knows (or has looked up) the item, before
	// item ambiguity is applied.
	Accuracy float64
	// PositiveBias is the probability that a spammer answers Positive when
	// fabricating a judgment.
	PositiveBias float64
	// Speed is a relative judgment-rate weight: the probability that a
	// given marketplace judgment slot is served by this worker is
	// proportional to Speed.
	Speed float64
}

// Judge simulates the worker answering one item. allowDontKnow mirrors the
// HIT design: Experiment 3 removed the "I do not know this movie" option.
func (w *Worker) Judge(item Item, allowDontKnow bool, rng *rand.Rand) Judgment {
	switch w.Archetype {
	case Spammer:
		// Spammers occasionally click "don't know" to look plausible.
		if allowDontKnow && rng.Float64() > 0.94 {
			return DontKnow
		}
		// Lazily truthful: a spammer who happens to know the movie
		// answers from memory (it is no extra effort); everything else
		// gets a biased guess. This matches §4.1's "group a": claimed to
		// know 94% of all movies, 56% of their answers were "comedy".
		if w.KnowRate > 0 && rng.Float64() < w.KnowRate*item.Popularity {
			return truthful(item, w.Accuracy, rng)
		}
		if rng.Float64() < w.PositiveBias {
			return Positive
		}
		return Negative

	case Lookup:
		// Research nearly always succeeds; looking up the wrong entry or
		// misreading the page is rare.
		return truthful(item, w.Accuracy, rng)

	default: // Honest
		knows := rng.Float64() < w.KnowRate*item.Popularity
		if !knows {
			if allowDontKnow {
				return DontKnow
			}
			// Forced to answer an unknown item: guess with the base rate
			// of the domain in mind (a coin flip is the honest model).
			if rng.Float64() < 0.5 {
				return Positive
			}
			return Negative
		}
		return truthful(item, w.Accuracy, rng)
	}
}

func truthful(item Item, accuracy float64, rng *rand.Rand) Judgment {
	correct := rng.Float64() < accuracy*(1-item.Ambiguity)
	answer := item.Truth
	if !correct {
		answer = !answer
	}
	if answer {
		return Positive
	}
	return Negative
}

// PopulationConfig describes a marketplace worker population.
type PopulationConfig struct {
	// Workers is the number of distinct workers that participate.
	Workers int
	// SpammerFraction is the share of workers that are spammers.
	SpammerFraction float64
	// LookupFraction is the share of workers that research answers.
	LookupFraction float64
}

// spamCountries is the country set spammers are drawn from; Experiment
// 2's filter excludes exactly these. honestCountries is the set for
// everyone else. Read only.
var (
	spamCountries   = []string{"ZZ", "YY"}
	honestCountries = []string{"US", "DE", "GB", "IN"}
)

// Population is an immutable set of simulated workers.
type Population struct {
	Workers []*Worker
}

// NewPopulation samples a worker population. The per-archetype parameter
// ranges are calibrated to the paper's observed statistics:
// honest workers know 10–30% of a typical movie sample and match the true
// comedy base rate; spammers claim ~94% coverage with a ~56% positive
// answer bias; spammers also judge faster than honest workers (that is how
// they maximize income).
func NewPopulation(cfg PopulationConfig, rng *rand.Rand) *Population {
	if cfg.Workers <= 0 {
		panic("crowd: PopulationConfig.Workers must be positive")
	}
	nSpam := int(float64(cfg.Workers)*cfg.SpammerFraction + 0.5)
	nLookup := int(float64(cfg.Workers)*cfg.LookupFraction + 0.5)
	if nSpam+nLookup > cfg.Workers {
		nLookup = cfg.Workers - nSpam
	}

	pop := &Population{}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{ID: i}
		switch {
		case i < nSpam:
			w.Archetype = Spammer
			w.Country = spamCountries[rng.Intn(len(spamCountries))]
			w.PositiveBias = 0.54 + rng.Float64()*0.12 // ~60% positive guesses
			w.KnowRate = 0.20 + rng.Float64()*0.15     // lazily truthful on famous items
			w.Accuracy = 0.75
			w.Speed = 1.6 + rng.Float64()*1.2 // spammers churn fast
		case i < nSpam+nLookup:
			w.Archetype = Lookup
			w.Country = honestCountries[rng.Intn(len(honestCountries))]
			w.Accuracy = 0.93 + rng.Float64()*0.05
			w.Speed = 0.8 + rng.Float64()*0.4
		default:
			w.Archetype = Honest
			w.Country = honestCountries[rng.Intn(len(honestCountries))]
			w.KnowRate = 0.50 + rng.Float64()*0.45 // ×popularity ≈ 10–30%
			w.Accuracy = 0.82 + rng.Float64()*0.08
			w.Speed = 1.0 + rng.Float64()*1.0
		}
		pop.Workers = append(pop.Workers, w)
	}
	return pop
}

// Filter returns the sub-population whose country is not in excluded —
// the population itself when nothing is excluded.
// This is Experiment 2's crude-but-effective country filter.
func (p *Population) Filter(excluded []string) *Population {
	if len(excluded) == 0 {
		return p
	}
	out := &Population{Workers: make([]*Worker, 0, len(p.Workers))}
	for _, w := range p.Workers {
		if !slices.Contains(excluded, w.Country) {
			out.Workers = append(out.Workers, w)
		}
	}
	return out
}

// Countries returns the distinct country codes present in the population.
func (p *Population) Countries() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range p.Workers {
		if !seen[w.Country] {
			seen[w.Country] = true
			out = append(out, w.Country)
		}
	}
	return out
}
