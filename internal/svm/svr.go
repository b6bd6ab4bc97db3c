package svm

import (
	"fmt"
	"math"
	"math/rand"
)

// SVRConfig configures the ε-insensitive support vector regression trainer.
type SVRConfig struct {
	// Kernel defaults to RBF with DefaultGamma when nil.
	Kernel Kernel
	// C is the penalty (default 1).
	C float64
	// Epsilon is the insensitive-tube half-width (default 0.1).
	Epsilon float64
	// MaxIter caps full coordinate passes (default 1000).
	MaxIter int
	// Seed drives pair selection.
	Seed int64
}

// svrTol is the convergence tolerance on a pass's objective improvement.
const svrTol = 1e-4

func (c *SVRConfig) fillDefaults(X [][]float64) {
	if c.Kernel == nil {
		c.Kernel = RBFKernel{Gamma: DefaultGamma(X)}
	}
	if c.C <= 0 {
		c.C = 1
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SVR is a trained support vector regression model:
// f(x) = Σ βᵢ K(xᵢ, x) + b with βᵢ = αᵢ − αᵢ* (evaluated in machine.go).
type SVR struct{ machine }

// TrainSVR fits ε-SVR by pairwise coordinate descent on the dual:
//
//	max −½ Σᵢⱼ βᵢβⱼK(i,j) + Σᵢ βᵢyᵢ − ε Σᵢ |βᵢ|
//	s.t. Σ βᵢ = 0,  −C ≤ βᵢ ≤ C.
//
// Each step picks a pair (i, j), holds s = βᵢ + βⱼ fixed (preserving the
// equality constraint), and maximizes the resulting one-dimensional
// piecewise-quadratic objective exactly by checking the three smooth
// segments induced by the |βᵢ| and |s − βᵢ| terms.
func TrainSVR(X [][]float64, y []float64, cfg SVRConfig) (*SVR, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("svm: %d samples but %d targets", len(X), len(y))
	}
	dim := len(X[0])
	for i, x := range X {
		if len(x) != dim {
			return nil, fmt.Errorf("svm: sample %d has dimension %d, want %d", i, len(x), dim)
		}
	}
	cfg.fillDefaults(X)

	n := len(X)
	km := newKernelMatrix(cfg.Kernel, X, gramCacheEntries, nil)
	rng := rand.New(rand.NewSource(cfg.Seed))

	beta := make([]float64, n)
	// g[i] = Σ_j β_j K(i,j): the smooth part of the gradient.
	g := make([]float64, n)
	rowI := make([]float64, n)
	rowJ := make([]float64, n)

	// objective contribution difference when βi moves to v within a fixed
	// segment (sign σi for |βi|, σj for |βj| where βj = s − v):
	//   Q(v) = −½ Kii v² − ½ Kjj (s−v)² − Kij v(s−v)
	//          + v yi + (s−v) yj − ε(σi v + σj (s−v)) − cross-terms
	// Cross terms with other β are linear in v via g.

	for iter := 0; iter < cfg.MaxIter; iter++ {
		improved := 0.0
		for i := 0; i < n; i++ {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			s := beta[i] + beta[j]
			Kii, Kjj, Kij := km.at(i, i), km.at(j, j), km.at(i, j)
			curvature := Kii + Kjj - 2*Kij
			if curvature < 1e-12 {
				continue
			}
			// Gradient of the smooth part w.r.t. βi with βj = s − βi:
			//   d/dβi [−½ βᵀKβ + βᵀy] = −(g_i − g_j) + (y_i − y_j)
			// evaluated at the current point; the quadratic coefficient is
			// −curvature. We solve each |·| segment analytically.
			gi := g[i] - beta[i]*Kii - beta[j]*Kij
			gj := g[j] - beta[i]*Kij - beta[j]*Kjj
			// With βi = v: smooth objective derivative at v is
			//   −(gi + Kii v + Kij (s − v)) + (gj + Kij v + Kjj (s − v))
			//   + yi − yj
			// = −gi + gj + yi − yj − v·curvature + s(Kjj − Kij)
			linear := -gi + gj + y[i] - y[j] + s*(Kjj-Kij)

			lo := math.Max(-cfg.C, s-cfg.C)
			hi := math.Min(cfg.C, s+cfg.C)
			if lo > hi {
				continue
			}

			// Candidate optima: for each (σi, σj) sign pair the epsilon
			// term contributes −ε(σi − σj) to the derivative; solve
			// linear − v·curvature − ε(σi − σj) = 0.
			best := beta[i]
			bestVal := math.Inf(-1)
			evalObj := func(v float64) float64 {
				bj := s - v
				return -0.5*(Kii*v*v+Kjj*bj*bj) - Kij*v*bj -
					gi*v - gj*bj + y[i]*v + y[j]*bj -
					cfg.Epsilon*(math.Abs(v)+math.Abs(bj))
			}
			consider := func(v float64) {
				if v < lo {
					v = lo
				}
				if v > hi {
					v = hi
				}
				if val := evalObj(v); val > bestVal {
					bestVal, best = val, v
				}
			}
			for _, si := range []float64{-1, 1} {
				for _, sj := range []float64{-1, 1} {
					consider((linear - cfg.Epsilon*(si-sj)) / curvature)
				}
			}
			consider(0) // breakpoint of |βi|
			consider(s) // breakpoint of |βj|
			consider(lo)
			consider(hi)

			if math.Abs(best-beta[i]) < 1e-12 {
				continue
			}
			cur := evalObj(beta[i])
			if bestVal <= cur+1e-15 {
				continue
			}
			improved += bestVal - cur

			dI := best - beta[i]
			dJ := (s - best) - beta[j]
			km.rowInto(i, rowI)
			km.rowInto(j, rowJ)
			for k := 0; k < n; k++ {
				g[k] += dI*rowI[k] + dJ*rowJ[k]
			}
			beta[i] = best
			beta[j] = s - best
		}
		if improved < svrTol {
			break
		}
	}

	// Bias: for free support vectors (0 < |βi| < C), KKT gives
	// y_i − g_i = b + ε·sign(β_i); average over them. If none are free,
	// fall back to the median residual.
	var bSum float64
	var bCount int
	for i := 0; i < n; i++ {
		a := math.Abs(beta[i])
		if a > 1e-8 && a < cfg.C-1e-8 {
			bSum += y[i] - g[i] - cfg.Epsilon*sign(beta[i])
			bCount++
		}
	}
	b := 0.0
	if bCount > 0 {
		b = bSum / float64(bCount)
	} else {
		res := make([]float64, n)
		for i := range res {
			res[i] = y[i] - g[i]
		}
		b = median(res)
	}

	return &SVR{newMachine(cfg.Kernel, dim, b, X, beta)}, nil
}

func sign(v float64) float64 {
	if v > 0 {
		return 1
	}
	if v < 0 {
		return -1
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	// insertion sort: n is small and this avoids importing sort for one use
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}
