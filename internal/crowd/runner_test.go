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
// country filter, with gold questions that exclude workers — give what a
// new RunJob and a new MajorityVoteAt give from the same random state:
// nothing a job leaves in the Runner (a judged bit, a pending count, an
// exclusion, a tally) reaches the next, and nothing a job returns is the
// Runner's to overwrite.
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
	var kept []*RunResult
	excluded := 0
	for i, job := range jobs {
		cfg := config(job.assignments, job.exclude, job.gold)
		want, err := RunJob(pop, items[:job.items], cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.Run(pop, items[:job.items], cfg, reused)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d (%d items × %d): the reused Runner's result differs from a fresh RunJob's", i, job.items, job.assignments)
		}
		excluded += len(got.ExcludedWorkers)
		for _, at := range []float64{got.DurationMinutes / 2, got.DurationMinutes} {
			vote := MajorityVoteAt(got.Records, at)
			label := voter.VoteAt(got.Records, at)
			if !maps.Equal(label, vote.Label) || !slices.Equal(voter.Unclassified(), vote.Unclassified) {
				t.Fatalf("job %d at minute %.1f: the reused Voter's majority differs from a fresh one's", i, at)
			}
		}
		kept = append(kept, got)
	}
	if excluded == 0 {
		t.Fatal("no worker was excluded: the gold screening path went untested")
	}
	// The results handed out earlier are still what they were.
	fresh = rand.New(rand.NewSource(13))
	for i, job := range jobs {
		cfg := config(job.assignments, job.exclude, job.gold)
		want, err := RunJob(pop, items[:job.items], cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], want) {
			t.Fatalf("job %d: a later job on the Runner changed its result", i)
		}
	}
}
