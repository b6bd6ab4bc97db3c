package crowd

import (
	"math/rand"
	"testing"
)

func TestWeightedVoteBeatsPlainMajorityUnderSpam(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	items := makeItems(400, rng)
	truth := truthMap(items)
	pop := NewPopulation(PopulationConfig{Workers: 60, SpammerFraction: 0.5}, rng)
	cfg := defaultJob()
	cfg.AssignmentsPerItem = 9
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}

	plain := MajorityVote(res.Records)
	weighted := WeightedMajorityVote(res.Records, 10)

	_, plainCorrect := accuracyAgainst(plain.Label, truth)
	_, weightedCorrect := accuracyAgainst(weighted.Label, truth)
	if weightedCorrect <= plainCorrect {
		t.Fatalf("EM-weighted vote (%d correct) must beat plain majority (%d) under spam",
			weightedCorrect, plainCorrect)
	}
}

func TestWeightedVoteIdentifiesSpammers(t *testing.T) {
	// EM reliability estimation needs the consensus to be mostly right:
	// with a minority of spammers, honest workers' mutual agreement
	// separates the groups. (With spammers in the majority the inferred
	// "truth" IS the spam consensus — a documented limitation of
	// agreement-based quality estimation.)
	rng := rand.New(rand.NewSource(42))
	items := makeItems(400, rng)
	pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.25}, rng)
	cfg := defaultJob()
	cfg.AssignmentsPerItem = 9
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	weighted := WeightedMajorityVote(res.Records, 10)

	arch := map[int]Archetype{}
	for _, w := range pop.Workers {
		arch[w.ID] = w.Archetype
	}
	// Count only usable (non-DontKnow) answers per worker: reliability of
	// workers who mostly answer "don't know" is dominated by shrinkage.
	usable := map[int]int{}
	for _, rec := range res.Records {
		if rec.Answer != DontKnow && !rec.Gold {
			usable[rec.WorkerID]++
		}
	}
	var honestSum, honestN, spamSum, spamN float64
	for w, r := range weighted.WorkerReliability {
		if usable[w] < 15 {
			continue
		}
		if arch[w] == Spammer {
			spamSum += r
			spamN++
		} else if arch[w] == Honest {
			honestSum += r
			honestN++
		}
	}
	if honestN == 0 || spamN == 0 {
		t.Skip("not enough workers with 15+ usable answers")
	}
	if honestSum/honestN <= spamSum/spamN+0.05 {
		t.Fatalf("honest reliability %.3f must clearly exceed spammer reliability %.3f",
			honestSum/honestN, spamSum/spamN)
	}
}

func TestWeightedVoteBasics(t *testing.T) {
	recs := []Record{
		{WorkerID: 1, ItemID: 1, Answer: Positive},
		{WorkerID: 2, ItemID: 1, Answer: Positive},
		{WorkerID: 3, ItemID: 1, Answer: Negative},
		{WorkerID: 1, ItemID: 2, Answer: Negative},
		{WorkerID: 2, ItemID: 2, Answer: Negative},
		{WorkerID: 4, ItemID: 3, Answer: DontKnow},
		{WorkerID: 5, ItemID: 4, Answer: Positive, Gold: true},
	}
	v := WeightedMajorityVote(recs, 5)
	if got, ok := v.Label[1]; !ok || !got {
		t.Fatalf("item 1 = %v, %v", got, ok)
	}
	if got, ok := v.Label[2]; !ok || got {
		t.Fatalf("item 2 = %v, %v", got, ok)
	}
	if _, ok := v.Label[3]; ok {
		t.Fatal("all-dont-know item must stay unlabeled")
	}
	if _, ok := v.Label[4]; ok {
		t.Fatal("gold-only item must stay unlabeled")
	}
	if v.Confidence[1] <= 0.5 || v.Confidence[1] > 1 {
		t.Fatalf("confidence = %v", v.Confidence[1])
	}
	for _, r := range v.WorkerReliability {
		if r < 0.01 || r > 0.99 {
			t.Fatalf("reliability %v outside clamp", r)
		}
	}
	if len(v.Label) != 2 {
		t.Fatalf("classified = %d", len(v.Label))
	}
}

func TestWeightedVoteEmptyAndDefaults(t *testing.T) {
	v := WeightedMajorityVote(nil, 0)
	if len(v.Label) != 0 || len(v.Unclassified) != 0 {
		t.Fatal("empty input must yield empty outcome")
	}
}
