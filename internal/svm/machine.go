package svm

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"crowddb/internal/vecmath"
)

// machine is the kernel expansion f(x) = Σᵢ cᵢ·K(svᵢ, x) + b that a
// trained SVC and a trained SVR both are. The support vectors sit in one
// row-major array and the three built-in kernels are evaluated by loops
// written out here, so scoring an item costs no interface call and no
// slice header per support vector; any other Kernel goes through Eval.
//
// Every path computes one item the same way — support vectors in stored
// order, Σ(svⱼ−xⱼ)² and Σ svⱼ·xⱼ in index order, exactly the arithmetic
// of vecmath.SqDist and vecmath.Dot — so a decision value does not depend
// on how many items are scored together or on how many goroutines.
type machine struct {
	kernel Kernel
	dim    int
	sv     []float64 // len(coef) × dim
	coef   []float64
	b      float64
}

// newMachine keeps the samples of X that are support vectors — a
// coefficient beyond ±1e-9 — in sample order. They are counted first, so
// that the two arrays are allocated once at their final size.
func newMachine(k Kernel, dim int, b float64, X [][]float64, coef []float64) machine {
	support := func(c float64) bool { return math.Abs(c) > 1e-9 }
	n := 0
	for _, c := range coef {
		if support(c) {
			n++
		}
	}
	m := machine{kernel: k, dim: dim, b: b, sv: make([]float64, 0, n*dim), coef: make([]float64, 0, n)}
	for i, c := range coef {
		if support(c) {
			m.sv = append(m.sv, X[i]...)
			m.coef = append(m.coef, c)
		}
	}
	return m
}

// Kernel returns the trained model's kernel.
func (m *machine) Kernel() Kernel { return m.kernel }

// NumSupport returns the number of support vectors.
func (m *machine) NumSupport() int { return len(m.coef) }

// checkDim panics on an input of the wrong dimension, as the vecmath
// loops this file replaces did: scoring it would read another support
// vector's coordinates.
func (m *machine) checkDim(n int) {
	if n != m.dim {
		panic(fmt.Sprintf("svm: input has dimension %d, the model %d", n, m.dim))
	}
}

// decision evaluates f(x); len(x) must be m.dim.
func (m *machine) decision(x []float64) float64 {
	s, d := m.b, m.dim
	switch k := m.kernel.(type) {
	case RBFKernel:
		for i, c := range m.coef {
			var q float64
			for j, v := range m.sv[i*d : i*d+d] {
				t := v - x[j]
				q += t * t
			}
			s += c * math.Exp(-k.Gamma*q)
		}
	case LinearKernel:
		for i, c := range m.coef {
			s += c * dot(m.sv[i*d:i*d+d], x)
		}
	case PolyKernel:
		for i, c := range m.coef {
			s += c * math.Pow(k.Gamma*dot(m.sv[i*d:i*d+d], x)+k.Coef0, float64(k.Degree))
		}
	default:
		for i, c := range m.coef {
			s += c * k.Eval(m.sv[i*d:i*d+d], x)
		}
	}
	return s
}

func dot(a, x []float64) float64 {
	var s float64
	for j, v := range a {
		s += v * x[j]
	}
	return s
}

// predictAll scores items 0..n-1, row(i) being item i's coordinates, and
// stores label(f) for each. The items are cut into one contiguous range
// per worker (0 = GOMAXPROCS); ranges share nothing but the read-only
// model, and each cell of the result has exactly one writer.
func predictAll[T any](m *machine, n, workers int, row func(i int) []float64, label func(f float64) T) []T {
	out := make([]T, n)
	for i := range out {
		m.checkDim(len(row(i))) // here, where the caller can still recover it
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	score := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = label(m.decision(row(i)))
		}
	}
	if workers <= 1 {
		score(0, n)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			score(w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
	return out
}

func rowsOf(X [][]float64) func(int) []float64 { return func(i int) []float64 { return X[i] } }

func positive(f float64) bool { return f > 0 }

func identity(f float64) float64 { return f }

// Decision returns the signed distance-like score f(x) = Σ αᵢyᵢ K(xᵢ,x) + b.
func (m *SVC) Decision(x []float64) float64 {
	m.checkDim(len(x))
	return m.decision(x)
}

// Predict classifies x (true = positive class). Points exactly on the
// boundary are labeled negative.
func (m *SVC) Predict(x []float64) bool { return m.Decision(x) > 0 }

// PredictAll classifies a batch on GOMAXPROCS goroutines.
func (m *SVC) PredictAll(X [][]float64) []bool {
	return predictAll(&m.machine, len(X), 0, rowsOf(X), positive)
}

// PredictMatrix classifies every row of X — a perceptual space's
// coordinate matrix, say — on the given number of goroutines
// (0 = GOMAXPROCS). It is PredictAll without the row slices.
func (m *SVC) PredictMatrix(X *vecmath.Matrix, workers int) []bool {
	return predictAll(&m.machine, X.Rows, workers, X.Row, positive)
}

// Predict evaluates the regression function at x.
func (m *SVR) Predict(x []float64) float64 {
	m.checkDim(len(x))
	return m.decision(x)
}

// PredictAll evaluates a batch on GOMAXPROCS goroutines.
func (m *SVR) PredictAll(X [][]float64) []float64 {
	return predictAll(&m.machine, len(X), 0, rowsOf(X), identity)
}

// PredictMatrix evaluates every row of X on the given number of
// goroutines (0 = GOMAXPROCS).
func (m *SVR) PredictMatrix(X *vecmath.Matrix, workers int) []float64 {
	return predictAll(&m.machine, X.Rows, workers, X.Row, identity)
}
