package space

import (
	"fmt"
	"math"
	"math/rand"

	"crowddb/internal/vecmath"
)

// Config holds factor-model hyperparameters. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Dims is the dimensionality d of the space. The paper uses 100 and
	// reports insensitivity as long as d is "large enough".
	Dims int
	// Lambda is the regularization constant λ; the paper found 0.02 to
	// work across data sets.
	Lambda float64
	// LearnRate is the SGD step size.
	LearnRate float64
	// LearnRateDecay multiplies the step size after each epoch.
	LearnRateDecay float64
	// Epochs is the number of SGD passes over the ratings.
	Epochs int
	// InitScale is the coordinate initialization range.
	InitScale float64
	// Seed makes training deterministic.
	Seed int64
}

// DefaultConfig mirrors the paper's published hyperparameters
// (d = 100, λ = 0.02); the SGD-specific knobs are set to values that
// converge on every dataset in this repository.
func DefaultConfig() Config {
	return Config{
		Dims:           100,
		Lambda:         0.02,
		LearnRate:      0.02,
		LearnRateDecay: 0.95,
		Epochs:         25,
		InitScale:      0.1,
		Seed:           1,
	}
}

func (c Config) validate() error {
	if c.Dims <= 0 {
		return fmt.Errorf("space: Dims must be positive, got %d", c.Dims)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("space: Epochs must be positive, got %d", c.Epochs)
	}
	// Written so that a NaN fails every comparison: a non-finite
	// hyperparameter would train an all-NaN space without an error.
	if !(c.LearnRate > 0) || math.IsInf(c.LearnRate, 0) {
		return fmt.Errorf("space: LearnRate must be positive and finite, got %g", c.LearnRate)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Lambda", c.Lambda}, {"LearnRateDecay", c.LearnRateDecay}, {"InitScale", c.InitScale}} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("space: %s must be non-negative and finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// TrainStats reports per-epoch training progress.
type TrainStats struct {
	// EpochRMSE[k] is the root-mean-square training error after epoch k.
	EpochRMSE []float64
}

// FinalRMSE returns the last epoch's RMSE, or +Inf if training never ran.
func (s TrainStats) FinalRMSE() float64 {
	if len(s.EpochRMSE) == 0 {
		return math.Inf(1)
	}
	return s.EpochRMSE[len(s.EpochRMSE)-1]
}

// EuclideanModel is the paper's modified Euclidean-embedding factor model.
type EuclideanModel struct {
	Mu       float64
	ItemBias []float64
	UserBias []float64
	Items    *vecmath.Matrix // nItems × d
	Users    *vecmath.Matrix // nUsers × d
}

// Predict estimates r̂ = μ + δm + δu − ‖a_m − b_u‖².
func (m *EuclideanModel) Predict(item, user int) float64 {
	return m.Mu + m.ItemBias[item] + m.UserBias[user] -
		vecmath.SqDist(m.Items.Row(item), m.Users.Row(user))
}

// RMSE computes the model's root-mean-square error over ratings, or 0 for
// none.
func (m *EuclideanModel) RMSE(ratings []Rating) float64 {
	if len(ratings) == 0 {
		return 0
	}
	var s float64
	for _, r := range ratings {
		e := float64(r.Score) - m.Predict(int(r.Item), int(r.User))
		s += e * e
	}
	return math.Sqrt(s / float64(len(ratings)))
}

// TrainEuclidean fits the paper's Euclidean-embedding model to the dataset
// by stochastic gradient descent on the objective of §3.3:
//
//	Σ ( r − [μ + δm + δu − d²(a,b)] )² + λ ( d⁴(a,b) + δm² + δu² ).
//
// Biases start at zero, coordinates at small uniform noise; each epoch
// visits the ratings in a fresh random order (sgdEpochs). Gradient steps
// are clipped to keep early epochs stable at large learning rates.
func TrainEuclidean(data *Dataset, cfg Config) (*EuclideanModel, TrainStats, error) {
	if err := checkTrainable(data, cfg); err != nil {
		return nil, TrainStats{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := initModel(data, cfg, rng)
	return model, model.sgdEpochs(data.Ratings, rng, cfg), nil
}

// initModel allocates a model for the dataset's items and users: μ is the
// mean rating, biases start at zero and coordinates at uniform noise of
// scale InitScale/√d, drawn from rng items first.
func initModel(data *Dataset, cfg Config, rng *rand.Rand) *EuclideanModel {
	model := &EuclideanModel{
		Mu:       data.Mean(),
		ItemBias: make([]float64, data.Items),
		UserBias: make([]float64, data.Users),
		Items:    vecmath.NewMatrix(data.Items, cfg.Dims),
		Users:    vecmath.NewMatrix(data.Users, cfg.Dims),
	}
	model.Items.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))
	model.Users.FillRandom(rng, cfg.InitScale/math.Sqrt(float64(cfg.Dims)))
	return model
}
