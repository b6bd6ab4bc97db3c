package space

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"crowddb/internal/vecmath"
)

// refTrainEuclidean is the SGD loop as it stood before sgdEpochs: each
// epoch shuffles an index array and reads the ratings through it. It is
// kept here, unchanged, as the reference TrainEuclidean must match bit for
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

// TestTrainersMatchReferenceBitForBit trains TrainEuclidean next to its
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
					want, wantStats := refTrainEuclidean(data, cfg)
					for _, procs := range []int{1, 2} {
						runtime.GOMAXPROCS(procs)
						got, gotStats, err := TrainEuclidean(data, cfg)
						if err != nil {
							t.Fatalf("n=%d d=%d epochs=%d seed=%d: %v", n, dims, epochs, seed, err)
						}
						if d := diffModels(want, got, wantStats, gotStats); d != "" {
							t.Fatalf("n=%d d=%d epochs=%d seed=%d GOMAXPROCS=%d: %s",
								n, dims, epochs, seed, procs, d)
						}
					}
				}
			}
		}
	}
}
