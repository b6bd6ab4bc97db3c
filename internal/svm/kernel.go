// Package svm implements support vector machines from scratch:
// a C-SVC binary classifier trained by sequential minimal optimization
// (SMO), an ε-insensitive support vector regression machine (the
// "regression machine" of paper §3.4 for numeric perceptual attributes),
// and a label-switching transductive SVM (TSVM) used to reproduce the
// semi-supervised comparison of paper §5.
//
// The paper extracts attributes from perceptual spaces with an RBF-kernel
// SVM; kernels here are plug-in strategies.
package svm

import (
	"fmt"
	"math"

	"crowddb/internal/vecmath"
)

// Kernel computes a positive-semidefinite similarity between two vectors.
type Kernel interface {
	Eval(a, b []float64) float64
	String() string
}

// LinearKernel is ⟨a, b⟩.
type LinearKernel struct{}

// Eval returns the dot product.
func (LinearKernel) Eval(a, b []float64) float64 { return vecmath.Dot(a, b) }

func (LinearKernel) String() string { return "linear" }

// RBFKernel is exp(−γ‖a−b‖²), the paper's choice for genre extraction.
type RBFKernel struct{ Gamma float64 }

// Eval returns the Gaussian similarity.
func (k RBFKernel) Eval(a, b []float64) float64 {
	return math.Exp(-k.Gamma * vecmath.SqDist(a, b))
}

func (k RBFKernel) String() string { return fmt.Sprintf("rbf(γ=%g)", k.Gamma) }

// PolyKernel is (γ⟨a,b⟩ + coef0)^degree.
type PolyKernel struct {
	Gamma  float64
	Coef0  float64
	Degree int
}

// Eval returns the polynomial similarity.
func (k PolyKernel) Eval(a, b []float64) float64 {
	return math.Pow(k.Gamma*vecmath.Dot(a, b)+k.Coef0, float64(k.Degree))
}

func (k PolyKernel) String() string {
	return fmt.Sprintf("poly(γ=%g, c0=%g, d=%d)", k.Gamma, k.Coef0, k.Degree)
}

// DefaultGamma returns the common 1/(d · Var(X)) heuristic ("scale" in
// scikit-learn), which adapts the RBF width to the data spread. Falls back
// to 1/d for degenerate inputs.
func DefaultGamma(X [][]float64) float64 {
	if len(X) == 0 || len(X[0]) == 0 {
		return 1
	}
	d := len(X[0])
	// Pooled variance over all coordinates.
	var sum, sumSq float64
	n := 0
	for _, x := range X {
		for _, v := range x {
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance <= 1e-12 {
		return 1 / float64(d)
	}
	return 1 / (float64(d) * variance)
}

// kernelMatrix precomputes K(i,j) for a training set when it fits in the
// budget; otherwise rows are computed on demand.
type kernelMatrix struct {
	k    Kernel
	x    [][]float64
	full []float32 // n×n when cached, nil otherwise
	n    int
}

// newKernelMatrix caches the full Gram matrix when it needs at most
// maxEntries float32 cells. The cells are written into buf when it has
// the capacity (every one of them is overwritten, so buf may hold a
// previous matrix) and into a fresh array otherwise.
func newKernelMatrix(k Kernel, x [][]float64, maxEntries int, buf []float32) kernelMatrix {
	km := kernelMatrix{k: k, x: x, n: len(x)}
	if km.n*km.n <= maxEntries {
		if cap(buf) < km.n*km.n {
			buf = make([]float32, km.n*km.n)
		}
		km.full = buf[:km.n*km.n]
		for i := 0; i < km.n; i++ {
			km.full[i*km.n+i] = float32(k.Eval(x[i], x[i]))
			for j := i + 1; j < km.n; j++ {
				v := float32(k.Eval(x[i], x[j]))
				km.full[i*km.n+j] = v
				km.full[j*km.n+i] = v
			}
		}
	}
	return km
}

func (km *kernelMatrix) at(i, j int) float64 {
	if km.full != nil {
		return float64(km.full[i*km.n+j])
	}
	return km.k.Eval(km.x[i], km.x[j])
}

// rowInto writes K(i, ·) into dst (length n).
func (km *kernelMatrix) rowInto(i int, dst []float64) {
	if km.full != nil {
		base := i * km.n
		for j := 0; j < km.n; j++ {
			dst[j] = float64(km.full[base+j])
		}
		return
	}
	for j := 0; j < km.n; j++ {
		dst[j] = km.k.Eval(km.x[i], km.x[j])
	}
}
