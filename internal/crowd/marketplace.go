package crowd

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// JobConfig describes one crowd-sourcing job (a HIT group).
type JobConfig struct {
	// ItemsPerHIT is how many items one HIT bundles (10 in the paper).
	ItemsPerHIT int
	// AssignmentsPerItem is how many distinct workers judge each item
	// (10 in the paper, for majority voting).
	AssignmentsPerItem int
	// PayPerHIT is the payment per completed HIT in dollars
	// ($0.02 in Experiments 1–2, $0.03 in Experiment 3).
	PayPerHIT float64
	// JudgmentsPerMinute is the aggregate marketplace throughput. The
	// paper observed ~95/min for the cheap perceptual task (Exp 1),
	// a similar rate for the filtered population (Exp 2), and ~18/min for
	// the laborious lookup task (Exp 3).
	JudgmentsPerMinute float64
	// AllowDontKnow mirrors the HIT option set; Experiment 3 removed the
	// "I do not know this movie" choice.
	AllowDontKnow bool
	// ExcludeCountries drops workers from these countries (Experiment 2).
	ExcludeCountries []string
	// Gold configures gold-question screening (Experiment 3): GoldItems
	// known-answer items are mixed into the job; workers whose gold error
	// count exceeds GoldFailureLimit are excluded and their judgments
	// discarded and re-issued. Gold item IDs must not collide with
	// ordinary item IDs (use negative IDs by convention).
	GoldItems        []Item
	GoldFailureLimit int
}

// Equal reports whether workers would see identical job parameters under c and o.
func (c *JobConfig) Equal(o *JobConfig) bool {
	return c.ItemsPerHIT == o.ItemsPerHIT && c.AssignmentsPerItem == o.AssignmentsPerItem &&
		c.PayPerHIT == o.PayPerHIT && c.JudgmentsPerMinute == o.JudgmentsPerMinute &&
		c.AllowDontKnow == o.AllowDontKnow && c.GoldFailureLimit == o.GoldFailureLimit &&
		slices.Equal(c.ExcludeCountries, o.ExcludeCountries) && slices.Equal(c.GoldItems, o.GoldItems)
}

// Record is one judgment event in the job's timeline.
type Record struct {
	// Time is minutes since the job started.
	Time float64
	// WorkerID identifies the judging worker.
	WorkerID int
	// ItemID identifies the judged item; gold items use their own IDs.
	ItemID int
	// Gold marks screening questions (excluded from majority votes).
	Gold bool
	// Answer is the judgment given.
	Answer Judgment
}

// WorkerStats summarizes one worker's behaviour during a job, mirroring the
// per-worker analysis of §4.1 (claimed coverage and positive-answer rate).
type WorkerStats struct {
	WorkerID   int
	Archetype  Archetype
	Judgments  int
	DontKnows  int
	Positives  int
	GoldErrors int
	Excluded   bool
}

// ClaimedCoverage is the fraction of items the worker claimed to know.
func (s WorkerStats) ClaimedCoverage() float64 {
	if s.Judgments == 0 {
		return 0
	}
	return 1 - float64(s.DontKnows)/float64(s.Judgments)
}

// PositiveRate is the fraction of the worker's non-DontKnow answers that
// were Positive.
func (s WorkerStats) PositiveRate() float64 {
	answered := s.Judgments - s.DontKnows
	if answered == 0 {
		return 0
	}
	return float64(s.Positives) / float64(answered)
}

// RunResult is the full outcome of a simulated crowd job.
type RunResult struct {
	// Records is the judgment timeline, sorted by Time ascending. Records
	// from workers that were later excluded by gold screening have already
	// been removed, matching CrowdFlower's behaviour of discarding
	// untrusted judgments.
	Records []Record
	// DurationMinutes is the completion time of the whole job.
	DurationMinutes float64
	// TotalCost is the total payment in dollars (excluded workers are
	// still paid for completed HITs — the requester eats that cost).
	TotalCost float64
	// DistinctWorkers is the number of workers that contributed at least
	// one judgment (including later-excluded ones).
	DistinctWorkers int
	// Stats has one entry per participating worker.
	Stats []WorkerStats
	// ExcludedWorkers lists workers removed by gold screening.
	ExcludedWorkers []int
}

// CostAt returns the money spent up to minute t, assuming payment accrues
// per judgment (PayPerHIT / ItemsPerHIT each). Used for Figure 4's
// money axis.
func (r *RunResult) CostAt(t float64, cfg JobConfig) float64 {
	if r.DurationMinutes <= 0 {
		return 0
	}
	n := sort.Search(len(r.Records), func(i int) bool { return r.Records[i].Time > t })
	return float64(n) * (cfg.PayPerHIT / float64(cfg.ItemsPerHIT))
}

// RunJob simulates executing a crowd job over items with the given worker
// population. The simulation is an arrival process: judgment slots arrive
// at an exponential rate of cfg.JudgmentsPerMinute and are served by
// workers sampled proportionally to their Speed, subject to the constraint
// that a worker judges any given item at most once. It is Run on a new
// Runner into a new result.
func RunJob(pop *Population, items []Item, cfg JobConfig, rng *rand.Rand) (*RunResult, error) {
	var r Runner
	res := new(RunResult)
	if err := r.Run(pop, items, cfg, rng, res); err != nil {
		return nil, err
	}
	return res, nil
}

// slot is one entry of a job's work queue: an item to be judged
// AssignmentsPerItem times, or a gold question.
type slot struct {
	item Item
	gold bool
}

// Runner holds the working memory of a crowd job — the work queue, the
// assignments each entry still needs, the workers × entries bitset of who
// judged what, the exclusions, the per-worker tallies and the owner of
// every record — and reuses it from one job to the next: a job no larger
// than one the Runner has run, into a result no smaller than one it has
// held, allocates nothing. Everything is rewritten or cleared before a job
// reads it, so a job's result does not depend on what its Runner ran
// before. A Runner is not safe for concurrent use; the zero value is ready.
type Runner struct {
	queue    []slot
	pending  []int
	levels   []uint64
	judged   []uint64
	excluded []bool
	stats    []WorkerStats
	owners   []int32
}

// Entries is the number of queue entries the Runner holds memory for.
func (r *Runner) Entries() int { return cap(r.queue) }

// resize returns s at length n, reusing its array when it is large
// enough. The cells are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run is RunJob in the Runner's memory, written into res, whose arrays it
// reuses: the result is valid until the next Run into res and shares
// nothing with the Runner. On an error res is left as it was.
func (r *Runner) Run(pop *Population, items []Item, cfg JobConfig, rng *rand.Rand, res *RunResult) error {
	if cfg.ItemsPerHIT <= 0 || cfg.AssignmentsPerItem <= 0 {
		return fmt.Errorf("crowd: ItemsPerHIT and AssignmentsPerItem must be positive")
	}
	if cfg.JudgmentsPerMinute <= 0 {
		return fmt.Errorf("crowd: JudgmentsPerMinute must be positive")
	}
	workers := pop.Filter(cfg.ExcludeCountries).Workers
	if len(workers) == 0 {
		return fmt.Errorf("crowd: no eligible workers after country filter")
	}

	// The work queue: every item needs AssignmentsPerItem judgments; gold
	// items are interleaved at the recommended ~10% ratio by listing them
	// like ordinary items.
	queue := resize(r.queue, len(items)+len(cfg.GoldItems))[:0]
	for _, it := range items {
		queue = append(queue, slot{item: it})
	}
	for _, g := range cfg.GoldItems {
		queue = append(queue, slot{item: g, gold: true})
	}
	r.queue = queue
	// Shuffle so gold questions are indistinguishable by position.
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })

	// pending[i] = remaining assignments for queue entry i. Every live
	// record holds one assignment of its entry (a discarded one gives it
	// back), so len(records)+remaining never exceeds total.
	pending := resize(r.pending, len(queue))
	r.pending = pending
	for i := range pending {
		pending[i] = cfg.AssignmentsPerItem
	}
	total := len(queue) * cfg.AssignmentsPerItem
	remaining := total

	// levels is a bitset of queue entries per pending count: bit qi of
	// level p (1 ≤ p ≤ maxLevel) says pending[qi] == p. Entries with
	// nothing pending are in no level. A discarded judgment is given back
	// to the first entry of its item, so an item queued twice can take an
	// entry past AssignmentsPerItem: the levels then grow.
	words := (len(queue) + 63) / 64
	maxLevel := cfg.AssignmentsPerItem
	levels := resize(r.levels, (maxLevel+1)*words)
	clear(levels)
	level := func(p int) []uint64 { return levels[p*words : (p+1)*words] }
	top := level(maxLevel)
	for qi := range queue {
		top[qi>>6] |= 1 << (qi & 63)
	}
	setPending := func(qi, p int) {
		bit := uint64(1) << (qi & 63)
		if old := pending[qi]; old > 0 {
			level(old)[qi>>6] &^= bit
		}
		for ; p > maxLevel; maxLevel++ {
			levels = append(levels, make([]uint64, words)...)
		}
		if p > 0 {
			level(p)[qi>>6] |= bit
		}
		pending[qi] = p
	}
	defer func() { r.levels = levels }()

	// judged is a workers × queue-entries bitset: bit (wi, qi) says worker
	// wi has judged entry qi.
	judged := resize(r.judged, len(workers)*words)
	r.judged = judged
	clear(judged)

	excluded := resize(r.excluded, len(workers))
	r.excluded = excluded
	clear(excluded)
	stats := resize(r.stats, len(workers))
	r.stats = stats
	for i, w := range workers {
		stats[i] = WorkerStats{WorkerID: w.ID, Archetype: w.Archetype}
	}

	records := slices.Grow(res.Records[:0], total)
	r.owners = resize(r.owners, total)
	recordOwner := r.owners[:0] // parallel to records: local worker index; never past total
	now := 0.0
	judgmentsDone := 0

	pickWorker := func() int {
		// Sample proportional to Speed among non-excluded workers.
		active := 0.0
		for i, w := range workers {
			if !excluded[i] {
				active += w.Speed
			}
		}
		if active == 0 {
			return -1
		}
		x := rng.Float64() * active
		for i, w := range workers {
			if excluded[i] {
				continue
			}
			x -= w.Speed
			if x <= 0 {
				return i
			}
		}
		for i := range workers {
			if !excluded[i] {
				return i
			}
		}
		return -1
	}

	// Safety valve: if the eligible population cannot supply enough
	// distinct workers for the remaining items, stop cleanly instead of
	// looping forever.
	stall := 0
	maxStall := 50 * (len(workers) + 1)

	for remaining > 0 {
		wi := pickWorker()
		if wi == -1 {
			break // everyone excluded
		}
		// Find a queue entry this worker has not judged yet, preferring
		// the most under-served entries (highest pending), the first of
		// them in queue order: the lowest bit of level &^ mine, from the
		// highest level down.
		best := -1
		mine := judged[wi*words : (wi+1)*words]
	search:
		for p := maxLevel; p > 0; p-- {
			for k, w := range level(p) {
				if free := w &^ mine[k]; free != 0 {
					best = k<<6 + bits.TrailingZeros64(free)
					break search
				}
			}
		}
		if best == -1 {
			stall++
			if stall > maxStall {
				break
			}
			continue
		}
		stall = 0

		now += rng.ExpFloat64() / cfg.JudgmentsPerMinute
		w := workers[wi]
		sl := queue[best]
		ans := w.Judge(sl.item, cfg.AllowDontKnow, rng)

		mine[best>>6] |= 1 << (best & 63)
		setPending(best, pending[best]-1)
		remaining--
		judgmentsDone++

		st := &stats[wi]
		st.Judgments++
		if ans == DontKnow {
			st.DontKnows++
		}
		if ans == Positive {
			st.Positives++
		}

		if sl.gold {
			truthAns := Negative
			if sl.item.Truth {
				truthAns = Positive
			}
			if ans != truthAns {
				st.GoldErrors++
				if cfg.GoldFailureLimit > 0 && st.GoldErrors > cfg.GoldFailureLimit && !excluded[wi] {
					excluded[wi] = true
					st.Excluded = true
					// Discard the cheater's judgments and re-issue them.
					kept := records[:0]
					keptOwners := recordOwner[:0]
					for ri, rec := range records {
						if int(recordOwner[ri]) == wi {
							// Find the queue entry and put the
							// assignment back.
							for qi := range queue {
								if queue[qi].item.ID == rec.ItemID && queue[qi].gold == rec.Gold {
									setPending(qi, pending[qi]+1)
									remaining++
									break
								}
							}
							continue
						}
						kept = append(kept, rec)
						keptOwners = append(keptOwners, recordOwner[ri])
					}
					records = kept
					recordOwner = keptOwners
					// The triggering gold judgment is dropped and
					// re-issued as well.
					setPending(best, pending[best]+1)
					remaining++
					continue
				}
			}
		}

		records = append(records, Record{
			Time:     now,
			WorkerID: w.ID,
			ItemID:   sl.item.ID,
			Gold:     sl.gold,
			Answer:   ans,
		})
		recordOwner = append(recordOwner, int32(wi))
	}

	slices.SortStableFunc(records, func(a, b Record) int { return cmp.Compare(a.Time, b.Time) })

	*res = RunResult{
		Records:         records,
		DurationMinutes: now,
		TotalCost:       float64(judgmentsDone) / float64(cfg.ItemsPerHIT) * cfg.PayPerHIT,
		Stats:           res.Stats[:0],
		ExcludedWorkers: res.ExcludedWorkers[:0],
	}
	res.Stats = slices.Grow(res.Stats, len(stats))
	for i := range stats {
		if stats[i].Judgments > 0 {
			res.DistinctWorkers++
			res.Stats = append(res.Stats, stats[i])
		}
		if stats[i].Excluded {
			res.ExcludedWorkers = append(res.ExcludedWorkers, stats[i].WorkerID)
		}
	}
	if len(res.ExcludedWorkers) == 0 {
		res.ExcludedWorkers = nil // as in a fresh result
	}
	return nil
}

// VoteOutcome is the result of majority voting over a judgment log.
type VoteOutcome struct {
	// Label maps item ID to the majority classification. Items with no
	// usable judgments or a tie are absent.
	Label map[int]bool
	// Unclassified lists item IDs that received judgments but no majority.
	Unclassified []int
}

// MajorityVote aggregates judgments per item, ignoring DontKnow answers and
// gold questions. Ties and empty vote sets leave the item unclassified,
// exactly as in §4.1.
func MajorityVote(records []Record) *VoteOutcome {
	return MajorityVoteAt(records, math.Inf(1))
}

// MajorityVoteAt is MajorityVote restricted to records with Time <= t.
// Experiments 4–6 use it to snapshot the crowd's progress every five
// simulated minutes while the SVM trains on the evolving majority. It is
// VoteAt on a new Voter, whose maps the outcome keeps.
func MajorityVoteAt(records []Record, t float64) *VoteOutcome {
	var v Voter
	label := v.VoteAt(records, t)
	return &VoteOutcome{Label: label, Unclassified: v.Unclassified()}
}

// Voter majority-votes judgment logs in two maps — one net tally per item,
// and the labels — that it keeps from one vote to the next and empties
// with clear, which keeps their buckets: a vote over no more items than
// one the Voter has held allocates nothing. A Voter is not safe for
// concurrent use; the zero value is ready.
type Voter struct {
	tally map[int]int
	label map[int]bool
	// held is the most items a vote has tallied: the maps' size.
	held int
}

// Footprint estimates the bytes the Voter's maps hold on to: about 48 B an
// item for the two.
func (v *Voter) Footprint() int { return 48 * v.held }

// VoteAt returns the majority label of every item judged in a record with
// Time <= t, ignoring DontKnow answers and gold questions, as
// MajorityVoteAt does. The map is the Voter's: it is valid until the
// Voter's next vote.
func (v *Voter) VoteAt(records []Record, t float64) map[int]bool {
	// One tally per item: positives minus negatives. A don't-know adds
	// nothing but enters the item, which then counts as judged and — with
	// no majority — ends up unclassified. A new map is sized from the
	// log's own redundancy: usable records over the judgments its first
	// item received, exact when every item was judged equally often.
	if v.tally == nil {
		usable, ofFirst, first := 0, 0, 0
		for _, r := range records {
			if r.Gold || r.Time > t {
				continue
			}
			if usable == 0 {
				first = r.ItemID
			}
			usable++
			if r.ItemID == first {
				ofFirst++
			}
		}
		v.tally = make(map[int]int, usable/max(ofFirst, 1))
	} else {
		clear(v.tally)
	}
	for _, r := range records {
		if r.Gold || r.Time > t {
			continue
		}
		switch r.Answer {
		case Positive:
			v.tally[r.ItemID]++
		case Negative:
			v.tally[r.ItemID]--
		default:
			v.tally[r.ItemID] += 0
		}
	}
	if v.label == nil {
		v.label = make(map[int]bool, len(v.tally))
	} else {
		clear(v.label)
	}
	for id, net := range v.tally {
		if net != 0 {
			v.label[id] = net > 0
		}
	}
	v.held = max(v.held, len(v.tally))
	return v.label
}

// Unclassified returns the items of the last vote that were judged but
// reached no majority, in ascending order (nil when there are none).
func (v *Voter) Unclassified() []int {
	var out []int
	for id, net := range v.tally {
		if net == 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
