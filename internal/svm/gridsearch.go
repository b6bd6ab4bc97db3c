package svm

import (
	"fmt"
	"math/rand"

	"crowddb/internal/eval"
)

// GridPoint is one hyperparameter combination evaluated by GridSearchSVC.
type GridPoint struct {
	C     float64
	Gamma float64 // 0 means DefaultGamma heuristic
	// GMean is the mean cross-validated g-mean.
	GMean float64
}

// GridSearchSVC evaluates every (C, gamma) combination with k-fold
// cross-validation on (X, y) and returns all points, best first. The paper
// tunes its extractor "by cross-validation on the rating data only"; this
// helper provides the same discipline for the SVM stage.
//
// gammas entries of 0 select the DefaultGamma heuristic. folds is clamped
// to [2, len(X)].
func GridSearchSVC(X [][]float64, y []bool, cs, gammas []float64, folds int, seed int64) ([]GridPoint, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("svm: grid search needs matching non-empty X, y")
	}
	if len(cs) == 0 || len(gammas) == 0 {
		return nil, fmt.Errorf("svm: grid search needs at least one C and one gamma")
	}
	if folds < 2 {
		folds = 2
	}
	if folds > len(X) {
		folds = len(X)
	}

	// Stratified fold assignment keeps both classes in every fold.
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, v := range y {
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) < folds || len(neg) < folds {
		return nil, fmt.Errorf("svm: grid search needs at least %d examples per class (have %d/%d)",
			folds, len(pos), len(neg))
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	foldOf := make([]int, len(X))
	for rank, i := range pos {
		foldOf[i] = rank % folds
	}
	for rank, i := range neg {
		foldOf[i] = rank % folds
	}

	var out []GridPoint
	var trainer Trainer
	for _, c := range cs {
		for _, g := range gammas {
			var kernel Kernel
			if g > 0 {
				kernel = RBFKernel{Gamma: g}
			} // nil → DefaultGamma inside TrainSVC
			var sum float64
			n := 0
			for f := 0; f < folds; f++ {
				var trX [][]float64
				var trY []bool
				var teX [][]float64
				var teY []bool
				for i := range X {
					if foldOf[i] == f {
						teX = append(teX, X[i])
						teY = append(teY, y[i])
					} else {
						trX = append(trX, X[i])
						trY = append(trY, y[i])
					}
				}
				model, err := trainer.TrainSVC(trX, trY, SVCConfig{Kernel: kernel, C: c, Seed: seed})
				if err != nil {
					continue // degenerate fold (single class): skip
				}
				var conf eval.Confusion
				for i, x := range teX {
					conf.Observe(model.Predict(x), teY[i])
				}
				sum += conf.GMean()
				n++
			}
			gp := GridPoint{C: c, Gamma: g}
			if n > 0 {
				gp.GMean = sum / float64(n)
			}
			out = append(out, gp)
		}
	}
	// Best first; ties broken toward smaller C (more regularization) and
	// then smaller gamma (smoother boundary).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			worse := a.GMean < b.GMean ||
				(a.GMean == b.GMean && (a.C > b.C || (a.C == b.C && a.Gamma > b.Gamma)))
			if !worse {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, nil
}
