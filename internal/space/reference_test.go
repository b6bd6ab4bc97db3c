package space

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"crowddb/internal/vecmath"
)

// The three trainers below are the SGD loops as they stood before
// sgdEpochs: each epoch shuffles an index array and reads the ratings
// through it, and DSGD's buckets hold rating indices. They are kept here,
// unchanged, as the reference the production trainers must match bit for
// bit (TestTrainersMatchReferenceBitForBit).

func refTrainEuclidean(data *Dataset, cfg Config) (*EuclideanModel, TrainStats) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := &EuclideanModel{
		Mu:       data.Mean(),
		ItemBias: make([]float64, data.Items),
		UserBias: make([]float64, data.Users),
		Items:    vecmath.NewMatrix(data.Items, cfg.Dims),
		Users:    vecmath.NewMatrix(data.Users, cfg.Dims),
	}
	model.Items.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))
	model.Users.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))

	stats := TrainStats{}
	lr := cfg.LearnRate
	order := make([]int, len(data.Ratings))
	for i := range order {
		order[i] = i
	}

	const clip = 4.0 // bound per-sample error signal; keeps SGD stable

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumSq float64
		for _, ri := range order {
			r := data.Ratings[ri]
			mi, ui := int(r.Item), int(r.User)
			a := model.Items.Row(mi)
			b := model.Users.Row(ui)

			d2 := vecmath.SqDist(a, b)
			pred := model.Mu + model.ItemBias[mi] + model.UserBias[ui] - d2
			e := float64(r.Score) - pred
			sumSq += e * e
			e = vecmath.Clamp(e, -clip, clip)

			// Bias updates: δ ← δ + lr (e − λ δ).
			model.ItemBias[mi] += lr * (e - cfg.Lambda*model.ItemBias[mi])
			model.UserBias[ui] += lr * (e - cfg.Lambda*model.UserBias[ui])

			// Coordinate updates. For each dimension k:
			//   ∂loss/∂a_k = 4 (a_k − b_k)(e + λ d²)   [descent direction]
			// (the shared factor 4 is absorbed into the learning rate; the
			// sign convention: positive error e pulls the item toward the
			// user, the d⁴ regularizer always contracts distances).
			g := lr * (e + cfg.Lambda*d2)
			for k := range a {
				diff := a[k] - b[k]
				a[k] -= g * diff
				b[k] += g * diff
			}
		}
		stats.EpochRMSE = append(stats.EpochRMSE, math.Sqrt(sumSq/float64(len(order))))
		lr *= cfg.LearnRateDecay
	}
	return model, stats
}

func refTrainSVD(data *Dataset, cfg Config) (*SVDModel, TrainStats) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := &SVDModel{
		Mu:       data.Mean(),
		ItemBias: make([]float64, data.Items),
		UserBias: make([]float64, data.Users),
		Items:    vecmath.NewMatrix(data.Items, cfg.Dims),
		Users:    vecmath.NewMatrix(data.Users, cfg.Dims),
	}
	model.Items.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))
	model.Users.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))

	stats := TrainStats{}
	lr := cfg.LearnRate
	order := make([]int, len(data.Ratings))
	for i := range order {
		order[i] = i
	}
	const clip = 4.0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumSq float64
		for _, ri := range order {
			r := data.Ratings[ri]
			mi, ui := int(r.Item), int(r.User)
			a := model.Items.Row(mi)
			b := model.Users.Row(ui)

			pred := model.Mu + model.ItemBias[mi] + model.UserBias[ui] + vecmath.Dot(a, b)
			e := float64(r.Score) - pred
			sumSq += e * e
			e = vecmath.Clamp(e, -clip, clip)

			model.ItemBias[mi] += lr * (e - cfg.Lambda*model.ItemBias[mi])
			model.UserBias[ui] += lr * (e - cfg.Lambda*model.UserBias[ui])
			for k := range a {
				ak, bk := a[k], b[k]
				a[k] += lr * (e*bk - cfg.Lambda*ak)
				b[k] += lr * (e*ak - cfg.Lambda*bk)
			}
		}
		stats.EpochRMSE = append(stats.EpochRMSE, math.Sqrt(sumSq/float64(len(order))))
		lr *= cfg.LearnRateDecay
	}
	return model, stats
}

func refTrainEuclideanParallel(data *Dataset, cfg Config, workers int) (*EuclideanModel, TrainStats) {
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

	rng := rand.New(rand.NewSource(cfg.Seed))
	model := &EuclideanModel{
		Mu:       data.Mean(),
		ItemBias: make([]float64, data.Items),
		UserBias: make([]float64, data.Users),
		Items:    vecmath.NewMatrix(data.Items, cfg.Dims),
		Users:    vecmath.NewMatrix(data.Users, cfg.Dims),
	}
	model.Items.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))
	model.Users.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))

	// Bucket ratings into the P×P grid by contiguous ranges.
	itemBlock := func(i int32) int { return int(int64(i) * int64(P) / int64(data.Items)) }
	userBlock := func(u int32) int { return int(int64(u) * int64(P) / int64(data.Users)) }
	buckets := make([][]int, P*P) // rating indices
	for ri, r := range data.Ratings {
		b := itemBlock(r.Item)*P + userBlock(r.User)
		buckets[b] = append(buckets[b], ri)
	}

	stats := TrainStats{}
	lr := cfg.LearnRate
	const clip = 4.0

	// processBucket runs plain SGD over one bucket with its own RNG.
	processBucket := func(bucket []int, lr float64, seed int64) float64 {
		brng := rand.New(rand.NewSource(seed))
		order := make([]int, len(bucket))
		copy(order, bucket)
		brng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumSq float64
		for _, ri := range order {
			r := data.Ratings[ri]
			mi, ui := int(r.Item), int(r.User)
			a := model.Items.Row(mi)
			b := model.Users.Row(ui)
			d2 := vecmath.SqDist(a, b)
			pred := model.Mu + model.ItemBias[mi] + model.UserBias[ui] - d2
			e := float64(r.Score) - pred
			sumSq += e * e
			e = vecmath.Clamp(e, -clip, clip)
			model.ItemBias[mi] += lr * (e - cfg.Lambda*model.ItemBias[mi])
			model.UserBias[ui] += lr * (e - cfg.Lambda*model.UserBias[ui])
			g := lr * (e + cfg.Lambda*d2)
			for k := range a {
				diff := a[k] - b[k]
				a[k] -= g * diff
				b[k] += g * diff
			}
		}
		return sumSq
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
	return model, stats
}

// randomRatings draws n ratings uniformly over a small items × users grid
// (repeats allowed: a trainer must not care).
func randomRatings(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	items, users := 37, 53
	if n < 4 {
		items, users = 3, 5
	}
	d := &Dataset{Items: items, Users: users, Ratings: make([]Rating, n)}
	for i := range d.Ratings {
		d.Ratings[i] = Rating{
			Item:  int32(rng.Intn(items)),
			User:  int32(rng.Intn(users)),
			Score: float32(1 + float64(rng.Intn(9))*0.5),
		}
	}
	return d
}

// sameBits reports the first float whose bits differ between two
// parameter sets, or "" when every bit matches.
func sameBits(name string, want, got []float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Sprintf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// diffModels reports the first float whose bits differ between two trained
// models or their per-epoch RMSE, or "" when every bit matches.
func diffModels(want, got *EuclideanModel, wantStats, gotStats TrainStats) string {
	for _, f := range []struct {
		name      string
		want, got []float64
	}{
		{"Mu", []float64{want.Mu}, []float64{got.Mu}},
		{"ItemBias", want.ItemBias, got.ItemBias},
		{"UserBias", want.UserBias, got.UserBias},
		{"Items", want.Items.Data, got.Items.Data},
		{"Users", want.Users.Data, got.Users.Data},
		{"EpochRMSE", wantStats.EpochRMSE, gotStats.EpochRMSE},
	} {
		if d := sameBits(f.name, f.want, f.got); d != "" {
			return d
		}
	}
	return ""
}

// referencePair is one production trainer and its reference copy. The
// SVD models convert to *EuclideanModel: both types have the same fields.
type referencePair struct {
	name string
	ref  func(*Dataset, Config) (*EuclideanModel, TrainStats)
	got  func(*Dataset, Config) (*EuclideanModel, TrainStats, error)
}

func referencePairs() []referencePair {
	pairs := []referencePair{
		{"TrainEuclidean", refTrainEuclidean, TrainEuclidean},
		{"TrainSVD",
			func(d *Dataset, c Config) (*EuclideanModel, TrainStats) {
				m, s := refTrainSVD(d, c)
				return (*EuclideanModel)(m), s
			},
			func(d *Dataset, c Config) (*EuclideanModel, TrainStats, error) {
				m, s, err := TrainSVD(d, c)
				return (*EuclideanModel)(m), s, err
			}},
	}
	for _, w := range []int{1, 3, 4} {
		pairs = append(pairs, referencePair{fmt.Sprintf("TrainEuclideanParallel(%d)", w),
			func(d *Dataset, c Config) (*EuclideanModel, TrainStats) { return refTrainEuclideanParallel(d, c, w) },
			func(d *Dataset, c Config) (*EuclideanModel, TrainStats, error) {
				return TrainEuclideanParallel(d, c, w)
			}})
	}
	return pairs
}

// TestTrainersMatchReferenceBitForBit trains every SGD trainer next to its
// reference copy above and compares every float of both bias vectors,
// both coordinate matrices and the per-epoch RMSE by its bits. Each case
// runs at GOMAXPROCS 1 and 2, so the next epoch's order is drawn both
// interleaved with the epoch and beside it on a second P.
func TestTrainersMatchReferenceBitForBit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 4099} {
		for _, dims := range []int{1, 16, 100} {
			for _, epochs := range []int{1, 25} {
				for _, seed := range []int64{7, 1234567} {
					data := randomRatings(n, seed+int64(n))
					cfg := DefaultConfig()
					cfg.Dims, cfg.Epochs, cfg.Seed = dims, epochs, seed
					for _, tr := range referencePairs() {
						want, wantStats := tr.ref(data, cfg)
						for _, procs := range []int{1, 2} {
							runtime.GOMAXPROCS(procs)
							got, gotStats, err := tr.got(data, cfg)
							if err != nil {
								t.Fatalf("%s n=%d d=%d epochs=%d seed=%d: %v", tr.name, n, dims, epochs, seed, err)
							}
							if d := diffModels(want, got, wantStats, gotStats); d != "" {
								t.Fatalf("%s n=%d d=%d epochs=%d seed=%d GOMAXPROCS=%d: %s",
									tr.name, n, dims, epochs, seed, procs, d)
							}
						}
					}
				}
			}
		}
	}
}
