package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/svm"
)

// TSVMResult reproduces the §5 semi-supervised comparison: a transductive
// SVM achieves roughly the supervised SVM's accuracy at orders of
// magnitude higher runtime (the paper measured ≈3 s vs ≈90 min with
// SVMlight on its full database).
type TSVMResult struct {
	Genre          string
	N              int
	SVMGMean       float64
	TSVMGMean      float64
	SVMDuration    time.Duration
	TSVMDuration   time.Duration
	TSVMRetrains   int
	UnlabeledCount int
}

// SlowdownFactor is TSVM time / SVM time.
func (r *TSVMResult) SlowdownFactor() float64 {
	if r.SVMDuration <= 0 {
		return 0
	}
	return float64(r.TSVMDuration) / float64(r.SVMDuration)
}

// RunTSVMComparison trains both machines on the same n-per-class sample of
// the genre and evaluates both on the remaining items; the TSVM
// additionally sees all remaining items unlabeled.
func (e *Env) RunTSVMComparison(genre string, n int) (*TSVMResult, error) {
	cat, ok := e.U.Categories[genre]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown genre %q", genre)
	}
	sp := e.Space
	train, Xl, yl := balancedSample(sp, cat.Reference, n, rand.New(rand.NewSource(e.Opt.Seed+500)))
	if train == nil {
		return nil, fmt.Errorf("experiments: genre %s too small for n=%d", genre, n)
	}
	var Xu [][]float64
	for i := range cat.Reference[:min(len(cat.Reference), sp.NumItems())] {
		if !slices.Contains(train, i) {
			Xu = append(Xu, sp.Vector(i))
		}
	}

	res := &TSVMResult{Genre: genre, N: n, UnlabeledCount: len(Xu)}
	cfg := svm.SVCConfig{C: core.FillC, Seed: e.Opt.Seed}

	start := time.Now()
	svc, err := new(svm.Trainer).TrainSVC(Xl, yl, cfg)
	if err != nil {
		return nil, err
	}
	res.SVMDuration = time.Since(start)
	res.SVMGMean = heldOutGMean(svc.PredictMatrix(sp.Coords(), 0), cat.Reference, train)

	start = time.Now()
	tsvm, stats, err := svm.TrainTSVM(Xl, yl, Xu, svm.TSVMConfig{SVC: cfg, MaxRetrains: 50})
	if err != nil {
		return nil, err
	}
	res.TSVMDuration = time.Since(start)
	res.TSVMRetrains = stats.Retrains
	res.TSVMGMean = heldOutGMean(tsvm.PredictMatrix(sp.Coords(), 0), cat.Reference, train)

	e.logf("TSVM (%s, n=%d): SVM g=%.3f in %v; TSVM g=%.3f in %v (%d retrains, %.0fx slower)",
		genre, n, res.SVMGMean, res.SVMDuration, res.TSVMGMean, res.TSVMDuration,
		stats.Retrains, res.SlowdownFactor())
	return res, nil
}

// Render prints the comparison.
func (r *TSVMResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Section 5: supervised SVM vs transductive SVM (%s, n=%d/class, %d unlabeled)\n",
		r.Genre, r.N, r.UnlabeledCount)
	fmt.Fprintf(w, "%-8s %8s %14s\n", "machine", "g-mean", "runtime")
	fmt.Fprintf(w, "%-8s %8.3f %14v\n", "SVM", r.SVMGMean, r.SVMDuration.Round(time.Millisecond))
	fmt.Fprintf(w, "%-8s %8.3f %14v  (%d retrains, %.0fx slower)\n",
		"TSVM", r.TSVMGMean, r.TSVMDuration.Round(time.Millisecond), r.TSVMRetrains, r.SlowdownFactor())
}
