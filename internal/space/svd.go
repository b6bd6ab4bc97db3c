package space

import (
	"math"
	"math/rand"

	"crowddb/internal/vecmath"
)

// SVDModel is the elementary dot-product factor model of §3.3:
//
//	r̂ = μ + δm + δu + a_m · b_u
//
// It is the collaborative-filtering workhorse, but — as the paper argues —
// its coordinate space has no meaningful item–item distance, which the
// ablation benchmarks quantify.
type SVDModel struct {
	Mu       float64
	ItemBias []float64
	UserBias []float64
	Items    *vecmath.Matrix
	Users    *vecmath.Matrix
}

var _ Model = (*SVDModel)(nil)

// Dims returns the latent dimensionality.
func (m *SVDModel) Dims() int { return m.Items.Cols }

// NumItems returns the number of items.
func (m *SVDModel) NumItems() int { return m.Items.Rows }

// ItemVector returns item i's latent coordinates.
func (m *SVDModel) ItemVector(i int) []float64 { return m.Items.Row(i) }

// Predict estimates r̂ = μ + δm + δu + a·b.
func (m *SVDModel) Predict(item, user int) float64 {
	return m.Mu + m.ItemBias[item] + m.UserBias[user] +
		vecmath.Dot(m.Items.Row(item), m.Users.Row(user))
}

// RMSE computes the model's error on a rating set.
func (m *SVDModel) RMSE(ratings []Rating) float64 {
	return modelRMSE(m, ratings, func(r Rating) float64 { return m.Predict(int(r.Item), int(r.User)) })
}

// TrainSVD fits the dot-product model by SGD with L2 regularization
// (the classic Funk-SVD recipe), one epoch at a time like TrainEuclidean.
func TrainSVD(data *Dataset, cfg Config) (*SVDModel, TrainStats, error) {
	if err := checkTrainable(data, cfg); err != nil {
		return nil, TrainStats{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := (*SVDModel)(initModel(data, cfg, rng))
	stats := sgdEpochs(data.Ratings, rng, cfg, func(rs []Rating, lr float64) float64 {
		return model.sgdPass(rs, lr, cfg.Lambda)
	})
	return model, stats, nil
}

// TrainSVDALS fits the dot-product model by alternating least squares:
// holding user vectors fixed, each item vector has a closed-form ridge
// solution, and vice versa. Biases are refit in the same alternation.
// ALS is the parallel-friendly alternative the paper alludes to for
// time-critical applications; one Config.Epochs unit is one full
// alternation (items then users).
func TrainSVDALS(data *Dataset, cfg Config) (*SVDModel, TrainStats, error) {
	if err := checkTrainable(data, cfg); err != nil {
		return nil, TrainStats{}, err
	}
	d := cfg.Dims
	model := (*SVDModel)(initModel(data, cfg, rand.New(rand.NewSource(cfg.Seed))))

	// Index ratings by item and by user.
	byItem := make([][]int, data.Items)
	byUser := make([][]int, data.Users)
	for ri, r := range data.Ratings {
		byItem[r.Item] = append(byItem[r.Item], ri)
		byUser[r.User] = append(byUser[r.User], ri)
	}

	stats := TrainStats{}
	// Ridge parameter: λ scaled by observation count (weighted-λ ALS).
	lam := cfg.Lambda

	// solveRidge solves (XᵀX + λn·I) w = Xᵀy in-place via Gaussian
	// elimination with partial pivoting, where X rows are the counterpart
	// vectors and y the bias-adjusted residual ratings.
	A := vecmath.NewMatrix(d, d)
	rhs := make([]float64, d)
	solve := func(vectors *vecmath.Matrix, ratingIdx []int, other func(Rating) (int, []float64), target []float64, biasSelf []float64, biasOther []float64, self int) {
		n := len(ratingIdx)
		if n == 0 {
			return
		}
		// Refit this entity's bias first: mean residual with shrinkage.
		var biasSum float64
		for _, ri := range ratingIdx {
			r := data.Ratings[ri]
			oi, ov := other(r)
			biasSum += float64(r.Score) - model.Mu - biasOther[oi] - vecmath.Dot(vectors.Row(self), ov)
		}
		biasSelf[self] = biasSum / (float64(n) + lam*float64(n) + 1)

		for i := range A.Data {
			A.Data[i] = 0
		}
		for k := 0; k < d; k++ {
			A.Set(k, k, lam*float64(n)+1e-9)
			rhs[k] = 0
		}
		for _, ri := range ratingIdx {
			r := data.Ratings[ri]
			oi, ov := other(r)
			y := float64(r.Score) - model.Mu - biasSelf[self] - biasOther[oi]
			for i := 0; i < d; i++ {
				rhs[i] += ov[i] * y
				rowA := A.Row(i)
				for j := i; j < d; j++ {
					rowA[j] += ov[i] * ov[j]
				}
			}
		}
		// Mirror the upper triangle.
		for i := 0; i < d; i++ {
			for j := 0; j < i; j++ {
				A.Set(i, j, A.At(j, i))
			}
		}
		w := target
		if !gaussSolve(A, rhs, w) {
			return // singular system: keep previous vector
		}
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for mi := 0; mi < data.Items; mi++ {
			solve(model.Items, byItem[mi], func(r Rating) (int, []float64) {
				return int(r.User), model.Users.Row(int(r.User))
			}, model.Items.Row(mi), model.ItemBias, model.UserBias, mi)
		}
		for ui := 0; ui < data.Users; ui++ {
			solve(model.Users, byUser[ui], func(r Rating) (int, []float64) {
				return int(r.Item), model.Items.Row(int(r.Item))
			}, model.Users.Row(ui), model.UserBias, model.ItemBias, ui)
		}
		stats.EpochRMSE = append(stats.EpochRMSE, model.RMSE(data.Ratings))
	}
	return model, stats, nil
}

// gaussSolve solves A·x = b with partial pivoting, writing the solution
// into x. It returns false if A is (numerically) singular. A and b are
// destroyed.
func gaussSolve(A *vecmath.Matrix, b []float64, x []float64) bool {
	n := A.Rows
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(A.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(A.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return false
		}
		if pivot != col {
			pr, cr := A.Row(pivot), A.Row(col)
			for k := range pr {
				pr[k], cr[k] = cr[k], pr[k]
			}
			b[pivot], b[col] = b[col], b[pivot]
		}
		inv := 1 / A.At(col, col)
		for r := col + 1; r < n; r++ {
			f := A.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := A.Row(r), A.Row(col)
			for k := col; k < n; k++ {
				rr[k] -= f * cr[k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		rr := A.Row(r)
		for k := r + 1; k < n; k++ {
			s -= rr[k] * x[k]
		}
		x[r] = s / rr[r]
	}
	return true
}
