package space

import (
	"fmt"
	"math"
	"math/rand"

	"crowddb/internal/vecmath"
)

// sgdClip bounds the per-sample error signal of every SGD step; it keeps
// early epochs stable at large learning rates.
const sgdClip = 4.0

// checkTrainable is the guard every trainer runs before touching the data.
func checkTrainable(data *Dataset, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if err := data.Validate(); err != nil {
		return err
	}
	if len(data.Ratings) == 0 {
		return fmt.Errorf("space: cannot train on zero ratings")
	}
	return nil
}

// sgdEpochs runs cfg.Epochs passes of m.sgdPass over the ratings, each in
// a fresh random order drawn from rng, and returns each epoch's training
// RMSE.
//
// The order is exactly the one rng.Shuffle would give an index array that
// is shuffled again every epoch, but the ratings themselves are permuted:
// a working copy is swapped with the same swaps (j drawn for i = n−1 … 1,
// applied in that order), so a pass reads its ratings sequentially instead
// of through an index, and the draws come off rng in the same sequence.
// The next epoch's swaps are drawn on another goroutine while the current
// pass trains — rng has no other use during a pass — so the draw leaves
// the critical path when a second P is free. The trainer holds 16 B per
// rating: the 12-byte copy and one int32 per swap.
func (m *EuclideanModel) sgdEpochs(ratings []Rating, rng *rand.Rand, cfg Config) TrainStats {
	n := len(ratings)
	work := append([]Rating(nil), ratings...)
	js := make([]int32, n)
	draw := func() { rng.Shuffle(n, func(i, j int) { js[i] = int32(j) }) }
	drawn := make(chan struct{}, 1) // the drawer never blocks, even if a pass panics

	stats := TrainStats{EpochRMSE: make([]float64, 0, cfg.Epochs)}
	lr := cfg.LearnRate
	draw()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := n - 1; i > 0; i-- {
			j := js[i]
			work[i], work[j] = work[j], work[i]
		}
		next := epoch+1 < cfg.Epochs
		if next {
			go func() {
				draw()
				drawn <- struct{}{}
			}()
		}
		sumSq := m.sgdPass(work, lr, cfg.Lambda)
		stats.EpochRMSE = append(stats.EpochRMSE, math.Sqrt(sumSq/float64(n)))
		lr *= cfg.LearnRateDecay
		if next {
			<-drawn
		}
	}
	return stats
}

// sgdPass takes one SGD step of the Euclidean model per rating, in the
// order given, on the objective of §3.3, and returns the summed squared
// error the steps saw.
func (m *EuclideanModel) sgdPass(rs []Rating, lr, lambda float64) float64 {
	var sumSq float64
	for _, r := range rs {
		mi, ui := int(r.Item), int(r.User)
		a := m.Items.Row(mi)
		b := m.Users.Row(ui)
		b = b[:len(a)]

		// d² = vecmath.SqDist(a, b), summed in the same order; spelled out
		// because the call, which does not inline, costs about a fifth of
		// the pass at d = 16.
		var d2 float64
		for k, ak := range a {
			diff := ak - b[k]
			d2 += diff * diff
		}
		pred := m.Mu + m.ItemBias[mi] + m.UserBias[ui] - d2
		e := float64(r.Score) - pred
		sumSq += e * e
		e = vecmath.Clamp(e, -sgdClip, sgdClip)

		// Bias updates: δ ← δ + lr (e − λ δ).
		m.ItemBias[mi] += lr * (e - lambda*m.ItemBias[mi])
		m.UserBias[ui] += lr * (e - lambda*m.UserBias[ui])

		// Coordinate updates. For each dimension k:
		//   ∂loss/∂a_k = 4 (a_k − b_k)(e + λ d²)   [descent direction]
		// (the shared factor 4 is absorbed into the learning rate; the
		// sign convention: positive error e pulls the item toward the
		// user, the d⁴ regularizer always contracts distances).
		g := lr * (e + lambda*d2)
		for k := range a {
			diff := a[k] - b[k]
			a[k] -= g * diff
			b[k] += g * diff
		}
	}
	return sumSq
}
