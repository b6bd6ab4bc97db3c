package crowd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunBatchJobSplitsPerQuestion checks the core batching invariants:
// every (question, item) pair gets its full assignment count, original
// item IDs are restored per question, costs split to the combined total,
// and every question shares one job's wall-clock.
func TestRunBatchJobSplitsPerQuestion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pop := NewPopulation(PopulationConfig{Workers: 60}, rng)
	// Two questions over overlapping item IDs: the same tuples judged for
	// two different attributes.
	itemsA := makeItems(30, rng)
	itemsB := makeItems(30, rng)
	cfg := defaultJob()
	cfg.AllowDontKnow = false

	res := new(BatchResult)
	if err := (&Runner{}).RunBatch(pop, []BatchRequest{
		{Question: "comedy", Items: itemsA},
		{Question: "drama", Items: itemsB},
	}, cfg, rng, res); err != nil {
		t.Fatal(err)
	}
	if len(res.PerQuestion) != 2 {
		t.Fatalf("PerQuestion = %d, want 2", len(res.PerQuestion))
	}

	wantTotal := (len(itemsA) + len(itemsB)) * cfg.AssignmentsPerItem
	if len(res.Combined.Records) != wantTotal {
		t.Fatalf("combined records = %d, want %d", len(res.Combined.Records), wantTotal)
	}

	for qi, q := range res.PerQuestion {
		items := itemsA
		if qi == 1 {
			items = itemsB
		}
		if len(q.Records) != len(items)*cfg.AssignmentsPerItem {
			t.Fatalf("question %d records = %d, want %d", qi, len(q.Records), len(items)*cfg.AssignmentsPerItem)
		}
		// Original IDs restored: every record's ItemID is a known item and
		// each item got exactly AssignmentsPerItem judgments.
		counts := map[int]int{}
		for _, rec := range q.Records {
			counts[rec.ItemID]++
		}
		for _, it := range items {
			if counts[it.ID] != cfg.AssignmentsPerItem {
				t.Fatalf("question %d item %d got %d judgments, want %d", qi, it.ID, counts[it.ID], cfg.AssignmentsPerItem)
			}
		}
		if q.DurationMinutes != res.Combined.DurationMinutes {
			t.Fatalf("question %d duration %v, want shared %v", qi, q.DurationMinutes, res.Combined.DurationMinutes)
		}
		// Timeline stays sorted after the split.
		for i := 1; i < len(q.Records); i++ {
			if q.Records[i].Time < q.Records[i-1].Time {
				t.Fatalf("question %d records not sorted by time", qi)
			}
		}
	}

	sum := 0.0
	for _, q := range res.PerQuestion {
		sum += q.TotalCost
	}
	if math.Abs(sum-res.Combined.TotalCost) > 1e-9 {
		t.Fatalf("per-question costs sum to %.6f, combined charge is %.6f", sum, res.Combined.TotalCost)
	}
}

// TestRunBatchJobMajoritiesMatchSingleJobs: with an honest, fully-informed
// population the majorities recovered from a batch must match the items'
// latent truth, question by question — merging must not leak judgments
// across questions even when item IDs overlap.
func TestRunBatchJobMajoritiesMatchSingleJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pop := NewPopulation(PopulationConfig{Workers: 80, LookupFraction: 1}, rng)
	cfg := defaultJob()
	cfg.AllowDontKnow = false
	cfg.AssignmentsPerItem = 9

	// Same IDs, opposite truths: any cross-question leakage flips votes.
	var a, b []Item
	for i := 0; i < 20; i++ {
		a = append(a, Item{ID: i, Truth: i%2 == 0, Popularity: 1})
		b = append(b, Item{ID: i, Truth: i%2 != 0, Popularity: 1})
	}
	res := new(BatchResult)
	if err := (&Runner{}).RunBatch(pop, []BatchRequest{
		{Question: "q-a", Items: a},
		{Question: "q-b", Items: b},
	}, cfg, rng, res); err != nil {
		t.Fatal(err)
	}
	for qi, items := range [][]Item{a, b} {
		votes := MajorityVote(res.PerQuestion[qi].Records)
		for _, it := range items {
			label, ok := votes.Label[it.ID]
			if !ok {
				t.Fatalf("question %d item %d unclassified", qi, it.ID)
			}
			if label != it.Truth {
				t.Fatalf("question %d item %d voted %v, truth %v", qi, it.ID, label, it.Truth)
			}
		}
	}
}

func TestRunBatchJobRejectsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewPopulation(PopulationConfig{Workers: 5}, rng)
	if err := (&Runner{}).RunBatch(pop, nil, defaultJob(), rng, new(BatchResult)); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := (&Runner{}).RunBatch(pop, []BatchRequest{{Question: "q"}}, defaultJob(), rng, new(BatchResult)); err == nil {
		t.Fatal("itemless batch accepted")
	}
}

// A batch of one request is the job itself: RunBatch returns bit for bit
// what Run returns for the same items and seed — gold records, cost,
// duration, exclusions and worker counts — under the caller's item IDs,
// and PerQuestion[0] is Combined. Into results they have held before,
// both allocate nothing.
func TestRunBatchOfOneIsRun(t *testing.T) {
	job := func() (*Population, []Item, JobConfig, *rand.Rand) {
		rng := rand.New(rand.NewSource(29))
		pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.2}, rng)
		items := makeItems(80, rng)
		for i := range items {
			items[i].ID = 1000 + 3*i // no slot numbering could produce these
		}
		cfg := defaultJob()
		for i := 0; i < 8; i++ {
			cfg.GoldItems = append(cfg.GoldItems, Item{ID: -(i + 1), Truth: i%2 == 0, Popularity: 1})
		}
		cfg.GoldFailureLimit = 2
		return pop, items, cfg, rng
	}
	pop, items, cfg, rng := job()
	want := new(RunResult)
	if err := (&Runner{}).Run(pop, items, cfg, rng, want); err != nil {
		t.Fatal(err)
	}
	if len(want.ExcludedWorkers) == 0 {
		t.Fatal("gold screening excluded no worker: the exclusion path is not covered")
	}
	pop, items, cfg, rng = job()
	got := new(BatchResult)
	if err := (&Runner{}).RunBatch(pop, []BatchRequest{{Question: "q", Items: items}}, cfg, rng, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Combined, want) {
		t.Fatalf("a batch of one differs from its job: %d records $%v %v min %d workers %v excluded, want %d records $%v %v min %d workers %v excluded",
			len(got.Combined.Records), got.Combined.TotalCost, got.Combined.DurationMinutes, got.Combined.DistinctWorkers, got.Combined.ExcludedWorkers,
			len(want.Records), want.TotalCost, want.DurationMinutes, want.DistinctWorkers, want.ExcludedWorkers)
	}
	if len(got.PerQuestion) != 1 || got.PerQuestion[0] != got.Combined {
		t.Fatalf("PerQuestion = %v, want [Combined]", got.PerQuestion)
	}

	var runner Runner
	var res RunResult
	runs := testing.AllocsPerRun(20, func() {
		if err := runner.Run(pop, items, cfg, rng, &res); err != nil {
			t.Fatal(err)
		}
	})
	reqs := []BatchRequest{{Question: "q", Items: items}}
	var batch BatchResult
	batches := testing.AllocsPerRun(20, func() {
		if err := runner.RunBatch(pop, reqs, cfg, rng, &batch); err != nil {
			t.Fatal(err)
		}
	})
	if runs != 0 || batches != 0 {
		t.Fatalf("into reused results a batch of one allocates %v times, its job %v; want nothing", batches, runs)
	}
}
