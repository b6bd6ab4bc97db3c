package svm

import (
	"fmt"
	"math"
	"math/rand"
)

// SVCConfig configures the C-SVC trainer.
type SVCConfig struct {
	// Kernel defaults to RBF with DefaultGamma when nil.
	Kernel Kernel
	// C is the soft-margin penalty (default 1).
	C float64
	// Seed drives the SMO's randomized second-index choice.
	Seed int64
	// PerSampleC optionally overrides C per training sample (len must
	// equal the sample count). The transductive SVM uses it to penalize
	// unlabeled examples with a gradually increasing C*.
	PerSampleC []float64
}

// The SMO's fixed knobs: the KKT violation tolerance, how many
// consecutive full passes without an update end training, and the cap on
// total passes, a safety valve.
const (
	svcTol       = 1e-3
	svcMaxPasses = 5
	svcMaxIter   = 10000
)

// gramCacheEntries caps the precomputed Gram matrix size in float32 cells
// (16M ≈ 64 MB); larger problems fall back to on-demand kernel
// evaluation.
const gramCacheEntries = 16 << 20

func (c *SVCConfig) fillDefaults(X [][]float64) {
	if c.Kernel == nil {
		c.Kernel = RBFKernel{Gamma: DefaultGamma(X)}
	}
	if c.C <= 0 {
		c.C = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SVC is a trained soft-margin kernel classifier; its coefficients are
// αᵢ·yᵢ per support vector (see machine.go for how it is evaluated).
type SVC struct{ machine }

// Trainer owns the working memory of SVC training — the n×n Gram matrix,
// the six n-vectors of the SMO loop and the random source — and reuses it
// from one training to the next: a training of n samples on a Trainer
// that has seen n before allocates only the model it returns. Nothing of
// a previous training survives into the next (every cell is rewritten or
// cleared, the source re-seeded), so a model does not depend on what its
// Trainer fitted before.
//
// Training has one path and two exits. TrainSVC copies the support
// vectors out into arrays of their own: the model outlives the Trainer's
// next training. Fit leaves them in arrays the Trainer keeps too, for a
// model that is used once and dropped. A Trainer is not safe for
// concurrent use; the zero value is ready.
type Trainer struct {
	gram []float32
	vecs []float64
	rng  *rand.Rand
	// model is Fit's model, its arrays reused from one Fit to the next.
	model SVC
}

// Footprint is the number of bytes the Trainer holds on to between
// trainings: its Gram matrix and vectors, the parts that grow with the
// sample, and the arrays of Fit's model.
func (t *Trainer) Footprint() int {
	return 4*cap(t.gram) + 8*cap(t.vecs) + 8*cap(t.model.sv) + 8*cap(t.model.coef)
}

// TrainSVC fits a binary classifier on X with boolean labels using
// sequential minimal optimization (the simplified Platt variant with a
// randomized second working-set index). Both classes must be present.
func TrainSVC(X [][]float64, y []bool, cfg SVCConfig) (*SVC, error) {
	return new(Trainer).TrainSVC(X, y, cfg)
}

// TrainSVC is the package's TrainSVC in the Trainer's memory. The model
// owns its arrays.
func (t *Trainer) TrainSVC(X [][]float64, y []bool, cfg SVCConfig) (*SVC, error) {
	var m machine
	if err := t.train(&m, X, y, cfg); err != nil {
		return nil, err
	}
	return &SVC{m}, nil
}

// Fit is TrainSVC with the model in the Trainer's memory: it lives in the
// Trainer until the Trainer's next Fit, which overwrites it, so it must
// not be used after that. A Fit of no more support vectors than one the
// Trainer has fitted before allocates nothing for the model.
func (t *Trainer) Fit(X [][]float64, y []bool, cfg SVCConfig) (*SVC, error) {
	if err := t.train(&t.model.machine, X, y, cfg); err != nil {
		return nil, err
	}
	return &t.model, nil
}

// train runs the SMO and stores the fitted model in m, reusing m's arrays
// when they are large enough; m is untouched when training fails.
func (t *Trainer) train(m *machine, X [][]float64, y []bool, cfg SVCConfig) error {
	if len(X) == 0 {
		return fmt.Errorf("svm: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("svm: %d samples but %d labels", len(X), len(y))
	}
	dim := len(X[0])
	pos, neg := 0, 0
	for i, x := range X {
		if len(x) != dim {
			return fmt.Errorf("svm: sample %d has dimension %d, want %d", i, len(x), dim)
		}
		if y[i] {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return fmt.Errorf("svm: training set needs both classes (pos=%d, neg=%d)", pos, neg)
	}
	cfg.fillDefaults(X)

	n := len(X)
	if cfg.PerSampleC != nil && len(cfg.PerSampleC) != n {
		return fmt.Errorf("svm: PerSampleC has %d entries for %d samples", len(cfg.PerSampleC), n)
	}
	for i, c := range cfg.PerSampleC {
		if c <= 0 {
			return fmt.Errorf("svm: PerSampleC[%d] = %g must be positive", i, c)
		}
	}

	if cap(t.vecs) < 6*n {
		t.vecs = make([]float64, 6*n)
	}
	vec := func(k int) []float64 { return t.vecs[k*n : (k+1)*n : (k+1)*n] }
	Cs, ys, alpha := vec(0), vec(1), vec(2)
	// fvals caches the decision value of every training sample; it is
	// updated incrementally after each successful alpha step, which turns
	// the simplified-SMO inner loop from O(n²) into O(n).
	fvals, rowI, rowJ := vec(3), vec(4), vec(5)
	for i := range Cs {
		Cs[i] = cfg.C
		if cfg.PerSampleC != nil {
			Cs[i] = cfg.PerSampleC[i]
		}
		ys[i] = -1
		if y[i] {
			ys[i] = 1
		}
	}
	clear(alpha)
	clear(fvals) // alpha = 0, b = 0
	b := 0.0

	km := newKernelMatrix(cfg.Kernel, X, gramCacheEntries, t.gram)
	if km.full != nil {
		t.gram = km.full
	}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(0))
	}
	rng := t.rng
	rng.Seed(cfg.Seed) // the state of a new source of that seed

	passes, iter := 0, 0
	for passes < svcMaxPasses && iter < svcMaxIter {
		changed := 0
		for i := 0; i < n; i++ {
			Ei := fvals[i] - ys[i]
			if !((ys[i]*Ei < -svcTol && alpha[i] < Cs[i]) || (ys[i]*Ei > svcTol && alpha[i] > 0)) {
				continue
			}
			// Pick j != i at random (simplified SMO heuristic).
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			Ej := fvals[j] - ys[j]

			ai, aj := alpha[i], alpha[j]
			var L, H float64
			if ys[i] != ys[j] {
				L = math.Max(0, aj-ai)
				H = math.Min(Cs[j], Cs[i]+aj-ai)
			} else {
				L = math.Max(0, ai+aj-Cs[i])
				H = math.Min(Cs[j], ai+aj)
			}
			if L >= H {
				continue
			}
			eta := 2*km.at(i, j) - km.at(i, i) - km.at(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - ys[j]*(Ei-Ej)/eta
			if ajNew > H {
				ajNew = H
			} else if ajNew < L {
				ajNew = L
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + ys[i]*ys[j]*(aj-ajNew)

			b1 := b - Ei - ys[i]*(aiNew-ai)*km.at(i, i) - ys[j]*(ajNew-aj)*km.at(i, j)
			b2 := b - Ej - ys[i]*(aiNew-ai)*km.at(i, j) - ys[j]*(ajNew-aj)*km.at(j, j)
			bOld := b
			switch {
			case aiNew > 0 && aiNew < Cs[i]:
				b = b1
			case ajNew > 0 && ajNew < Cs[j]:
				b = b2
			default:
				b = (b1 + b2) / 2
			}

			km.rowInto(i, rowI)
			km.rowInto(j, rowJ)
			dI := (aiNew - ai) * ys[i]
			dJ := (ajNew - aj) * ys[j]
			dB := b - bOld
			for k := 0; k < n; k++ {
				fvals[k] += dI*rowI[k] + dJ*rowJ[k] + dB
			}

			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		iter++
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	for i := range alpha {
		alpha[i] *= ys[i] // the coefficient αᵢ·yᵢ
	}
	m.keepSupport(cfg.Kernel, dim, b, X, alpha)
	if m.NumSupport() == 0 {
		// Degenerate but possible on trivially separable data with tiny C:
		// fall back to a nearest-centroid-style decision via bias only.
		m.b = 0
		if pos >= neg {
			m.b = 1e-9
		} else {
			m.b = -1e-9
		}
	}
	return nil
}
