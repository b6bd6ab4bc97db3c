package crowd

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// One Runner and one Voter carried through jobs that grow and shrink —
// 300, 20, 160 and 5 items, one to ten assignments, with and without a
// country filter, with gold questions that exclude workers — written into
// one reused result, give what a new RunJob and a new MajorityVoteAt give
// from the same random state: nothing a job leaves in the Runner (a
// judged bit, a pending count, an exclusion, a tally) or in the result
// reaches the next. Run into results of their own, nothing a job returns
// is the Runner's to overwrite. Batches of one and of three questions
// into one reused BatchResult give what RunBatch gives on a new Runner
// into a new result.
func TestRunnerReuseMatchesFreshJobs(t *testing.T) {
	pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.3}, rand.New(rand.NewSource(11)))
	items := makeItems(300, rand.New(rand.NewSource(12)))
	var gold []Item
	for i := 0; i < 30; i++ {
		gold = append(gold, Item{ID: -(i + 1), Truth: i%2 == 0, Popularity: 1})
	}
	jobs := []struct {
		items, assignments int
		exclude            []string
		gold               bool
	}{
		{300, 10, nil, true},
		{20, 3, []string{"ZZ"}, false},
		{160, 5, nil, true},
		{5, 1, nil, false},
		{160, 7, []string{"YY", "US"}, true},
		{20, 2, nil, false},
		{300, 4, []string{"DE"}, false},
		{5, 9, nil, true},
	}
	config := func(assignments int, exclude []string, withGold bool) JobConfig {
		cfg := defaultJob()
		cfg.AssignmentsPerItem = assignments
		cfg.ExcludeCountries = exclude
		if withGold {
			cfg.GoldItems, cfg.GoldFailureLimit, cfg.AllowDontKnow = gold, 1, false
		}
		return cfg
	}
	fresh, reused := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
	var runner Runner
	var voter Voter
	var into RunResult
	excluded := 0
	for i, job := range jobs {
		cfg := config(job.assignments, job.exclude, job.gold)
		want, err := RunJob(pop, items[:job.items], cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Run(pop, items[:job.items], cfg, reused, &into); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&into, want) {
			t.Fatalf("job %d (%d items × %d): the reused Runner's result differs from a fresh RunJob's", i, job.items, job.assignments)
		}
		excluded += len(into.ExcludedWorkers)
		for _, at := range []float64{into.DurationMinutes / 2, into.DurationMinutes} {
			vote := MajorityVoteAt(into.Records, at)
			label := voter.VoteAt(into.Records, at)
			if !maps.Equal(label, vote.Label) || !slices.Equal(voter.Unclassified(), vote.Unclassified) {
				t.Fatalf("job %d at minute %.1f: the reused Voter's majority differs from a fresh one's", i, at)
			}
		}
	}
	if excluded == 0 {
		t.Fatal("no worker was excluded: the gold screening path went untested")
	}

	// Results of their own are still what they were after later jobs.
	reused = rand.New(rand.NewSource(13))
	var kept []*RunResult
	for _, job := range jobs {
		res := new(RunResult)
		if err := runner.Run(pop, items[:job.items], config(job.assignments, job.exclude, job.gold), reused, res); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res)
	}
	fresh = rand.New(rand.NewSource(13))
	for i, job := range jobs {
		want, err := RunJob(pop, items[:job.items], config(job.assignments, job.exclude, job.gold), fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], want) {
			t.Fatalf("job %d: a later job on the Runner changed its result", i)
		}
	}

	// Batches of three and of one, alternating, into one result; each is
	// copied into one other result, whose copy of the last batch a new
	// job into the first leaves as it was.
	fresh, reused = rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
	var batch, copied BatchResult
	var last *BatchResult
	same := func(a, b *BatchResult) bool {
		if !reflect.DeepEqual(a.Combined, b.Combined) || len(a.PerQuestion) != len(b.PerQuestion) {
			return false
		}
		for q := range a.PerQuestion {
			if !reflect.DeepEqual(a.PerQuestion[q], b.PerQuestion[q]) {
				return false
			}
		}
		return true
	}
	excluded = 0
	for i, job := range jobs {
		cfg := config(job.assignments, job.exclude, job.gold)
		reqs := []BatchRequest{{Question: "a", Items: items[:job.items]}}
		if i%2 == 0 {
			reqs = append(reqs,
				BatchRequest{Question: "b", Items: items[job.items/2:]},
				BatchRequest{Question: "c", Items: items[:job.items/3+1]})
		}
		want := new(BatchResult)
		if err := new(Runner).RunBatch(pop, reqs, cfg, fresh, want); err != nil {
			t.Fatal(err)
		}
		if err := runner.RunBatch(pop, reqs, cfg, reused, &batch); err != nil {
			t.Fatal(err)
		}
		if !same(&batch, want) {
			t.Fatalf("batch %d of %d: the reused result differs from a fresh one", i, len(reqs))
		}
		if last != nil && !same(&copied, last) {
			t.Fatalf("batch %d: a job into the result changed the copy of the one before", i)
		}
		copied.CopyFrom(&batch)
		if !same(&copied, want) {
			t.Fatalf("batch %d of %d: the copy differs from its source", i, len(reqs))
		}
		last = want
		excluded += len(batch.Combined.ExcludedWorkers)
	}
	if excluded == 0 {
		t.Fatal("no worker was excluded in a batch: the gold screening path went untested")
	}
}
