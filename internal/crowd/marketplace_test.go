package crowd

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// makeItems builds n items with the paper's comedy base rate (~30%) and a
// long-tailed popularity distribution.
func makeItems(n int, rng *rand.Rand) []Item {
	items := make([]Item, n)
	for i := range items {
		pop := 0.05 + rng.Float64()*rng.Float64() // skewed toward obscure
		items[i] = Item{
			ID:         i,
			Truth:      rng.Float64() < 0.301,
			Popularity: pop,
			Ambiguity:  rng.Float64() * 0.15,
		}
	}
	return items
}

func truthMap(items []Item) map[int]bool {
	m := make(map[int]bool, len(items))
	for _, it := range items {
		m[it.ID] = it.Truth
	}
	return m
}

func defaultJob() JobConfig {
	return JobConfig{
		ItemsPerHIT:        10,
		AssignmentsPerItem: 5,
		PayPerHIT:          0.02,
		JudgmentsPerMinute: 95,
		AllowDontKnow:      true,
	}
}

func TestRunJobBasicInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.3}, rng)
	items := makeItems(100, rng)
	cfg := defaultJob()
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 100*cfg.AssignmentsPerItem {
		t.Fatalf("records = %d, want %d", len(res.Records), 100*cfg.AssignmentsPerItem)
	}
	// Timeline must be sorted.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Time < res.Records[i-1].Time {
			t.Fatal("records not sorted by time")
		}
	}
	// No worker judges the same item twice.
	seen := map[[2]int]bool{}
	for _, r := range res.Records {
		key := [2]int{r.WorkerID, r.ItemID}
		if seen[key] {
			t.Fatalf("worker %d judged item %d twice", r.WorkerID, r.ItemID)
		}
		seen[key] = true
	}
	// Every item received exactly AssignmentsPerItem judgments.
	perItem := map[int]int{}
	for _, r := range res.Records {
		perItem[r.ItemID]++
	}
	for id, n := range perItem {
		if n != cfg.AssignmentsPerItem {
			t.Fatalf("item %d got %d judgments", id, n)
		}
	}
	// Cost: 500 judgments / 10 per HIT * $0.02 = $1.
	if res.TotalCost != 1.0 {
		t.Fatalf("cost = %v, want 1.0", res.TotalCost)
	}
	if res.DurationMinutes <= 0 {
		t.Fatal("duration must be positive")
	}
	if res.DistinctWorkers == 0 || res.DistinctWorkers > 40 {
		t.Fatalf("distinct workers = %d", res.DistinctWorkers)
	}
}

func TestRunJobConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewPopulation(PopulationConfig{Workers: 5}, rng)
	items := makeItems(10, rng)
	bad := defaultJob()
	bad.ItemsPerHIT = 0
	if _, err := RunJob(pop, items, bad, rng); err == nil {
		t.Fatal("zero ItemsPerHIT must fail")
	}
	bad = defaultJob()
	bad.JudgmentsPerMinute = 0
	if _, err := RunJob(pop, items, bad, rng); err == nil {
		t.Fatal("zero throughput must fail")
	}
	bad = defaultJob()
	bad.ExcludeCountries = []string{"US", "DE", "GB", "IN", "ZZ", "YY"}
	if _, err := RunJob(pop, items, bad, rng); err == nil {
		t.Fatal("empty filtered population must fail")
	}
}

func TestSpammerContaminationDegradesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := makeItems(300, rng)
	truth := truthMap(items)
	cfg := defaultJob()
	cfg.AssignmentsPerItem = 10

	// Open population: 2/3 spammers (they flock to easy HITs).
	open := NewPopulation(PopulationConfig{Workers: 90, SpammerFraction: 0.65}, rng)
	resOpen, err := RunJob(open, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	votesOpen := MajorityVote(resOpen.Records)
	clOpen, okOpen := accuracyAgainst(votesOpen.Label, truth)

	// Trusted population: country filter removes the spammers.
	cfgTrusted := cfg
	cfgTrusted.ExcludeCountries = []string{"ZZ", "YY"}
	resTrusted, err := RunJob(open, items, cfgTrusted, rng)
	if err != nil {
		t.Fatal(err)
	}
	votesTrusted := MajorityVote(resTrusted.Records)
	clTrusted, okTrusted := accuracyAgainst(votesTrusted.Label, truth)

	accOpen := float64(okOpen) / float64(clOpen)
	accTrusted := float64(okTrusted) / float64(clTrusted)
	if accTrusted <= accOpen {
		t.Fatalf("country filter must improve accuracy: open %.3f vs trusted %.3f", accOpen, accTrusted)
	}
	// Trusted coverage drops (honest workers admit ignorance).
	if clTrusted >= clOpen {
		t.Fatalf("trusted coverage should drop: open %d vs trusted %d", clOpen, clTrusted)
	}
}

func TestGoldQuestionScreeningExcludesSpammers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := makeItems(200, rng)
	pop := NewPopulation(PopulationConfig{Workers: 60, SpammerFraction: 0.5}, rng)
	cfg := defaultJob()
	cfg.AssignmentsPerItem = 5
	cfg.AllowDontKnow = false
	var gold []Item
	for i := 0; i < 20; i++ {
		gold = append(gold, Item{ID: -(i + 1), Truth: i%2 == 0, Popularity: 1})
	}
	cfg.GoldItems = gold
	cfg.GoldFailureLimit = 2
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExcludedWorkers) == 0 {
		t.Fatal("gold screening should exclude at least one spammer")
	}
	// All excluded workers must be spammers (honest workers rarely fail
	// several gold questions).
	arch := map[int]Archetype{}
	for _, w := range pop.Workers {
		arch[w.ID] = w.Archetype
	}
	spamExcluded := 0
	for _, id := range res.ExcludedWorkers {
		if arch[id] == Spammer {
			spamExcluded++
		}
	}
	if float64(spamExcluded) < 0.8*float64(len(res.ExcludedWorkers)) {
		t.Fatalf("excluded workers should be mostly spammers: %d of %d", spamExcluded, len(res.ExcludedWorkers))
	}
	// No records from excluded workers survive.
	excluded := map[int]bool{}
	for _, id := range res.ExcludedWorkers {
		excluded[id] = true
	}
	for _, r := range res.Records {
		if excluded[r.WorkerID] {
			t.Fatalf("record from excluded worker %d survived", r.WorkerID)
		}
	}
	// Every ordinary item still ends with full coverage.
	perItem := map[int]int{}
	for _, r := range res.Records {
		if !r.Gold {
			perItem[r.ItemID]++
		}
	}
	for _, it := range items {
		if perItem[it.ID] != cfg.AssignmentsPerItem {
			t.Fatalf("item %d coverage = %d after exclusions", it.ID, perItem[it.ID])
		}
	}
}

func TestMajorityVote(t *testing.T) {
	recs := []Record{
		{ItemID: 1, Answer: Positive},
		{ItemID: 1, Answer: Positive},
		{ItemID: 1, Answer: Negative},
		{ItemID: 2, Answer: Negative},
		{ItemID: 2, Answer: DontKnow},
		{ItemID: 3, Answer: Positive},
		{ItemID: 3, Answer: Negative}, // tie
		{ItemID: 4, Answer: DontKnow}, // no usable votes
		{ItemID: 5, Answer: Positive, Gold: true},
		{ItemID: 6, Answer: DontKnow}, // judged three times, never answered
		{ItemID: 6, Answer: DontKnow},
		{ItemID: 6, Answer: DontKnow},
	}
	v := MajorityVote(recs)
	if got, ok := v.Label[1]; !ok || !got {
		t.Fatalf("item 1 = %v, %v", got, ok)
	}
	if got, ok := v.Label[2]; !ok || got {
		t.Fatalf("item 2 = %v, %v", got, ok)
	}
	if _, ok := v.Label[3]; ok {
		t.Fatal("tie must stay unclassified")
	}
	if _, ok := v.Label[4]; ok {
		t.Fatal("all-dont-know must stay unclassified")
	}
	if _, ok := v.Label[5]; ok {
		t.Fatal("gold records must be ignored")
	}
	if _, ok := v.Label[6]; ok {
		t.Fatal("an item with only dont-know answers must stay unclassified")
	}
	if !slices.Equal(v.Unclassified, []int{3, 4, 6}) {
		t.Fatalf("unclassified = %v, want the tie and the two unanswered items", v.Unclassified)
	}
	if len(v.Label) != 2 {
		t.Fatalf("classified = %d", len(v.Label))
	}
}

func TestMajorityVoteAtIsMonotonicInTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pop := NewPopulation(PopulationConfig{Workers: 30, SpammerFraction: 0.2}, rng)
	items := makeItems(100, rng)
	cfg := defaultJob()
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeen int
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		v := MajorityVoteAt(res.Records, res.DurationMinutes*frac)
		seen := len(v.Label) + len(v.Unclassified)
		if seen < lastSeen {
			t.Fatalf("items with judgments decreased over time: %d -> %d", lastSeen, seen)
		}
		lastSeen = seen
	}
	if lastSeen != 100 {
		t.Fatalf("full run should cover all items, got %d", lastSeen)
	}
}

func TestCostAt(t *testing.T) {
	cfg := defaultJob()
	res := &RunResult{
		DurationMinutes: 10,
		Records: []Record{
			{Time: 1}, {Time: 2}, {Time: 3}, {Time: 8},
		},
	}
	if got := res.CostAt(2.5, cfg); got != 2*0.002 {
		t.Fatalf("CostAt(2.5) = %v", got)
	}
	if got := res.CostAt(100, cfg); got != 4*0.002 {
		t.Fatalf("CostAt(100) = %v", got)
	}
	empty := &RunResult{}
	if empty.CostAt(1, cfg) != 0 {
		t.Fatal("empty result must cost 0")
	}
}

func TestWorkerStatsTwoGroupsVisible(t *testing.T) {
	// Reproduce the paper's §4.1 analysis: spammers and honest workers are
	// separable by claimed coverage.
	rng := rand.New(rand.NewSource(13))
	pop := NewPopulation(PopulationConfig{Workers: 60, SpammerFraction: 0.5}, rng)
	items := makeItems(400, rng)
	cfg := defaultJob()
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stats {
		if st.Judgments < 40 {
			continue // too little signal
		}
		cov := st.ClaimedCoverage()
		switch st.Archetype {
		case Spammer:
			if cov < 0.80 {
				t.Fatalf("spammer %d claimed coverage %.2f, want >= 0.80", st.WorkerID, cov)
			}
		case Honest:
			if cov > 0.60 {
				t.Fatalf("honest worker %d claimed coverage %.2f, want <= 0.60", st.WorkerID, cov)
			}
		}
	}
}

func TestWorkerStatsRates(t *testing.T) {
	s := WorkerStats{Judgments: 10, DontKnows: 4, Positives: 3}
	if got := s.ClaimedCoverage(); got != 0.6 {
		t.Fatalf("ClaimedCoverage = %v", got)
	}
	if got := s.PositiveRate(); got != 0.5 {
		t.Fatalf("PositiveRate = %v", got)
	}
	empty := WorkerStats{}
	if empty.ClaimedCoverage() != 0 || empty.PositiveRate() != 0 {
		t.Fatal("empty stats must be zero")
	}
	allDK := WorkerStats{Judgments: 5, DontKnows: 5}
	if allDK.PositiveRate() != 0 {
		t.Fatal("all-dont-know PositiveRate must be 0")
	}
}

// Property: majority vote never classifies an item with zero usable votes
// and classification counts are bounded by the item set.
func TestMajorityVoteProperty(t *testing.T) {
	f := func(raw []struct {
		Item   uint8
		Answer uint8
		Gold   bool
	}) bool {
		recs := make([]Record, len(raw))
		usable := map[int]int{}
		for i, r := range raw {
			ans := Judgment(r.Answer % 3)
			recs[i] = Record{ItemID: int(r.Item % 16), Answer: ans, Gold: r.Gold}
			if !r.Gold && ans != DontKnow {
				usable[int(r.Item%16)]++
			}
		}
		v := MajorityVote(recs)
		for id := range v.Label {
			if usable[id] == 0 {
				return false
			}
		}
		return len(v.Label)+len(v.Unclassified) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: equal seeds produce identical runs.
func TestRunJobDeterministic(t *testing.T) {
	run := func() *RunResult {
		rng := rand.New(rand.NewSource(99))
		pop := NewPopulation(PopulationConfig{Workers: 20, SpammerFraction: 0.25}, rng)
		items := makeItems(50, rng)
		res, err := RunJob(pop, items, defaultJob(), rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) || a.DurationMinutes != b.DurationMinutes {
		t.Fatal("runs with equal seeds differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// RunJob sizes its state from the job — items, assignments, workers — and
// allocates each piece once: the number of objects does not depend on how
// many judgments are collected.
func TestRunJobAllocationIsPerJobNotPerJudgment(t *testing.T) {
	objects := func(assignments int) float64 {
		rng := rand.New(rand.NewSource(3))
		pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.2}, rng)
		items := makeItems(160, rng)
		cfg := defaultJob()
		cfg.AssignmentsPerItem = assignments
		return testing.AllocsPerRun(5, func() {
			res, err := RunJob(pop, items, cfg, rng)
			if err != nil || len(res.Records) != len(items)*assignments {
				t.Fatalf("%d assignments: %d records, err %v", assignments, len(res.Records), err)
			}
		})
	}
	five, ten := objects(5), objects(10)
	t.Logf("RunJob over 160 items: %.0f objects at 5 assignments, %.0f at 10", five, ten)
	if five != ten || five > 16 {
		t.Fatalf("RunJob allocates %.0f objects at 5 assignments and %.0f at 10, want the same and at most 16", five, ten)
	}
}

// accuracyAgainst measures vote labels against ground truth: the number
// of classified items, and of those, how many match truth.
func accuracyAgainst(label, truth map[int]bool) (classified, correct int) {
	for id, l := range label {
		classified++
		if truth[id] == l {
			correct++
		}
	}
	return classified, correct
}
