package space

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// TrainEuclideanParallel fits the Euclidean-embedding model with
// distributed stochastic gradient descent (DSGD, Gemulla et al. — the
// paper's reference [13] for training factor models "even on large data
// sets"). Items and users are partitioned into P blocks; each sub-epoch
// processes P interchangeable strata — (item-block p, user-block
// (p+s) mod P) — in parallel. Strata touch disjoint parameters, so no
// locks are needed and the result is deterministic for a fixed seed
// regardless of goroutine scheduling.
//
// workers <= 0 selects GOMAXPROCS (capped at 8; beyond that, stratum
// imbalance dominates).
func TrainEuclideanParallel(data *Dataset, cfg Config, workers int) (*EuclideanModel, TrainStats, error) {
	if err := checkTrainable(data, cfg); err != nil {
		return nil, TrainStats{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 8 {
		workers = 8
	}
	if workers > data.Items {
		workers = data.Items
	}
	if workers > data.Users {
		workers = data.Users
	}
	if workers < 1 {
		workers = 1
	}
	P := workers

	model := initModel(data, cfg, rand.New(rand.NewSource(cfg.Seed)))

	// Bucket the ratings into the P×P grid by contiguous ranges, each
	// bucket keeping the ratings' order.
	itemBlock := func(i int32) int { return int(int64(i) * int64(P) / int64(data.Items)) }
	userBlock := func(u int32) int { return int(int64(u) * int64(P) / int64(data.Users)) }
	buckets := make([][]Rating, P*P)
	for _, r := range data.Ratings {
		b := itemBlock(r.Item)*P + userBlock(r.User)
		buckets[b] = append(buckets[b], r)
	}

	stats := TrainStats{}
	lr := cfg.LearnRate
	// processBucket shuffles a copy of one bucket with its own RNG and
	// runs the Euclidean pass over it.
	processBucket := func(bucket []Rating, lr float64, seed int64) float64 {
		order := append([]Rating(nil), bucket...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return model.sgdPass(order, lr, cfg.Lambda)
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochSumSq float64
		for s := 0; s < P; s++ {
			sums := make([]float64, P)
			var wg sync.WaitGroup
			for p := 0; p < P; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					bucket := buckets[p*P+(p+s)%P]
					seed := cfg.Seed + int64(epoch)*10007 + int64(s)*101 + int64(p)
					sums[p] = processBucket(bucket, lr, seed)
				}(p)
			}
			wg.Wait()
			for _, v := range sums {
				epochSumSq += v
			}
		}
		stats.EpochRMSE = append(stats.EpochRMSE, math.Sqrt(epochSumSq/float64(len(data.Ratings))))
		lr *= cfg.LearnRateDecay
	}
	return model, stats, nil
}
