package crowd

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestRunJobItemQueuedTwice pins a job whose items repeat: a cheater's
// discarded judgments are given back to the first queue entry of their
// item, so an entry can be owed more than AssignmentsPerItem judgments.
// The levels grow past it here; the digest is the one the scan of the
// whole queue for the best entry produced.
func TestRunJobItemQueuedTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewPopulation(PopulationConfig{Workers: 12, SpammerFraction: 0.6}, rng)
	items := makeItems(10, rng)
	items = append(items, items...)
	gold := make([]Item, 10)
	for i := range gold {
		gold[i] = Item{ID: -(i%5 + 1), Truth: i%2 == 0, Popularity: 1}
	}
	cfg := defaultJob()
	cfg.AllowDontKnow = false
	cfg.GoldItems, cfg.GoldFailureLimit = gold, 1
	res, err := RunJob(pop, items, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExcludedWorkers) == 0 {
		t.Fatal("no worker was excluded: the job gives nothing back")
	}
	h := sha256.New()
	runDigest(h, res)
	const want = "d60191795cec723884daa8579272fb28845f17db3020f0d1ff621e875d80b328"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest %s, want %s (%d records, %d excluded)", got, want, len(res.Records), len(res.ExcludedWorkers))
	}
}
