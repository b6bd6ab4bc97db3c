package crowd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// runDigest folds everything a caller can observe of a run into a
// SHA-256: the timeline (time bits, worker, item, gold, answer), the
// money, the duration, every worker's statistics and the exclusions.
func runDigest(h hash.Hash, r *RunResult) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	num := func(v int) { u64(uint64(int64(v))) }
	flag := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	num(len(r.Records))
	for _, rec := range r.Records {
		u64(math.Float64bits(rec.Time))
		num(rec.WorkerID)
		num(rec.ItemID)
		flag(rec.Gold)
		num(int(rec.Answer))
	}
	u64(math.Float64bits(r.TotalCost))
	u64(math.Float64bits(r.DurationMinutes))
	num(r.DistinctWorkers)
	num(len(r.Stats))
	for _, s := range r.Stats {
		num(s.WorkerID)
		num(int(s.Archetype))
		num(s.Judgments)
		num(s.DontKnows)
		num(s.Positives)
		num(s.GoldErrors)
		flag(s.Excluded)
	}
	num(len(r.ExcludedWorkers))
	for _, id := range r.ExcludedWorkers {
		num(id)
	}
}

// TestRunJobTimelineIsPinned holds four fixed-seed jobs to the digests
// the simulator produced before its per-job state was pre-sized: the
// sequence of rng draws — and with it every judgment's time, worker and
// answer, the cost, the duration and the exclusions — is part of what
// RunJob promises, because dollars_per_column and fill_gmean are
// functions of it. A change that moves a digest changed the marketplace,
// not its bookkeeping.
func TestRunJobTimelineIsPinned(t *testing.T) {
	goldItems := func(n int) []Item {
		gold := make([]Item, n)
		for i := range gold {
			gold[i] = Item{ID: -(i + 1), Truth: i%2 == 0, Popularity: 1}
		}
		return gold
	}
	cases := []struct {
		name string
		want string
		run  func(t *testing.T, h hash.Hash)
	}{
		{
			name: "plain 160x5",
			want: "44b12238f18d69242344a3d0ae9128280ff8b13eb235940b0bbc93568fc8bf72",
			run: func(t *testing.T, h hash.Hash) {
				rng := rand.New(rand.NewSource(42))
				pop := NewPopulation(PopulationConfig{Workers: 40}, rng)
				cfg := defaultJob()
				cfg.AllowDontKnow = false
				res, err := RunJob(pop, makeItems(160, rng), cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Records) != 160*5 {
					t.Fatalf("%d records", len(res.Records))
				}
				runDigest(h, res)
			},
		},
		{
			name: "dont-know 300x10",
			want: "cea659ff9143c6b4b3b8de176440b05a9baef3a238161ba98e45e3edbce27111",
			run: func(t *testing.T, h hash.Hash) {
				rng := rand.New(rand.NewSource(7))
				pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.3}, rng)
				cfg := defaultJob()
				cfg.AssignmentsPerItem = 10
				res, err := RunJob(pop, makeItems(300, rng), cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				dontKnows := 0
				for _, rec := range res.Records {
					if rec.Answer == DontKnow {
						dontKnows++
					}
				}
				if len(res.Records) != 300*10 || dontKnows == 0 {
					t.Fatalf("%d records, %d don't-knows", len(res.Records), dontKnows)
				}
				runDigest(h, res)
			},
		},
		{
			name: "gold screening",
			want: "129ad3364c329250ef4b50eee7a8949b333e2fecb8f0163e13a30ebc29fabde7",
			run: func(t *testing.T, h hash.Hash) {
				rng := rand.New(rand.NewSource(11))
				pop := NewPopulation(PopulationConfig{Workers: 60, SpammerFraction: 0.5}, rng)
				cfg := defaultJob()
				cfg.AllowDontKnow = false
				cfg.GoldItems = goldItems(20)
				cfg.GoldFailureLimit = 1
				res, err := RunJob(pop, makeItems(200, rng), cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.ExcludedWorkers) == 0 {
					t.Fatal("no worker was excluded: the re-issue path is not pinned")
				}
				// Re-issued: the discarded judgments were paid for on top of
				// the surviving 220 × 5.
				if want := float64(len(res.Records)) / 10 * cfg.PayPerHIT; len(res.Records) != 220*5 || res.TotalCost <= want {
					t.Fatalf("%d records for $%v: nothing was re-issued", len(res.Records), res.TotalCost)
				}
				runDigest(h, res)
			},
		},
		{
			name: "batch of three questions",
			want: "0778f67f7f7e9bc81d7ec45efc8af511b6ad2725fb0693a370197b4d191828a6",
			run: func(t *testing.T, h hash.Hash) {
				rng := rand.New(rand.NewSource(23))
				pop := NewPopulation(PopulationConfig{Workers: 40, SpammerFraction: 0.2}, rng)
				cfg := defaultJob()
				cfg.GoldItems = goldItems(8)
				cfg.GoldFailureLimit = 2
				reqs := []BatchRequest{
					{Question: "Comedy", Items: makeItems(60, rng)},
					{Question: "Drama", Items: makeItems(90, rng)},
					{Question: "Horror", Items: makeItems(40, rng)},
				}
				res := new(BatchResult)
				if err := (&Runner{}).RunBatch(pop, reqs, cfg, rng, res); err != nil {
					t.Fatal(err)
				}
				if len(res.PerQuestion) != 3 {
					t.Fatalf("%d splits", len(res.PerQuestion))
				}
				runDigest(h, res.Combined)
				for _, q := range res.PerQuestion {
					runDigest(h, q)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			c.run(t, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Fatalf("the timeline moved: digest %s, pinned %s", got, c.want)
			}
		})
	}
}
