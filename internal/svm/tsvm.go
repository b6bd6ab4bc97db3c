package svm

import (
	"math"
	"sort"
	"time"
)

// TSVMConfig configures the transductive SVM trainer.
type TSVMConfig struct {
	// SVC carries the kernel, C (for labeled examples) and the seed.
	SVC SVCConfig
	// PositiveFraction fixes the fraction of unlabeled examples assigned
	// to the positive class (Joachims' num+ constraint). <= 0 means
	// "estimate from the labeled class ratio".
	PositiveFraction float64
	// MaxRetrains caps the total number of inner SVC trainings, the
	// safety valve that keeps tests bounded (default 200).
	MaxRetrains int
}

// cStarInit is the starting penalty for unlabeled examples, as a share
// of C; it is raised geometrically toward C.
const cStarInit = 1e-4

// TSVMStats reports the work a transductive training performed; the
// Section 5 experiment uses it to contrast SVM and TSVM runtimes.
type TSVMStats struct {
	Retrains int
	Switches int
	Elapsed  time.Duration
}

// TrainTSVM fits a transductive SVM in the style of Joachims (1999):
// the unlabeled set receives tentative labels from an inductive model
// under a fixed positive fraction; pairs of margin-violating unlabeled
// examples with opposite labels are then switched and the machine
// retrained, while the unlabeled penalty C* anneals upward toward C.
//
// Every retraining is a full SMO run over labeled+unlabeled data, which is
// why TSVM runtime explodes with database size — the effect the paper
// measures (≈3 s supervised vs ≈90 min transductive on its setup).
func TrainTSVM(Xl [][]float64, yl []bool, Xu [][]float64, cfg TSVMConfig) (*SVC, TSVMStats, error) {
	start := time.Now()
	stats := TSVMStats{}
	var trainer Trainer // every retraining below is the same size
	if len(Xu) == 0 {
		model, err := trainer.TrainSVC(Xl, yl, cfg.SVC)
		stats.Retrains = 1
		stats.Elapsed = time.Since(start)
		return model, stats, err
	}
	if cfg.MaxRetrains <= 0 {
		cfg.MaxRetrains = 200
	}

	base, err := trainer.TrainSVC(Xl, yl, cfg.SVC)
	if err != nil {
		return nil, stats, err
	}
	stats.Retrains++

	// Tentative unlabeled labels: top fraction by decision value.
	frac := cfg.PositiveFraction
	if frac <= 0 {
		pos := 0
		for _, v := range yl {
			if v {
				pos++
			}
		}
		frac = float64(pos) / float64(len(yl))
	}
	numPlus := int(frac*float64(len(Xu)) + 0.5)
	if numPlus < 1 {
		numPlus = 1
	}
	if numPlus > len(Xu)-1 {
		numPlus = len(Xu) - 1
	}
	type scored struct {
		idx int
		dec float64
	}
	scores := make([]scored, len(Xu))
	for i, x := range Xu {
		scores[i] = scored{idx: i, dec: base.Decision(x)}
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a].dec > scores[b].dec })
	yu := make([]bool, len(Xu))
	for rank, s := range scores {
		yu[s.idx] = rank < numPlus
	}

	// Combined problem with per-sample C.
	n := len(Xl) + len(Xu)
	X := make([][]float64, 0, n)
	X = append(X, Xl...)
	X = append(X, Xu...)
	y := make([]bool, n)
	copy(y, yl)

	labeledC := cfg.SVC.C
	if labeledC <= 0 {
		labeledC = 1
	}
	cStar := cStarInit * labeledC

	var model *SVC
	train := func() error {
		copy(y[len(Xl):], yu)
		perC := make([]float64, n)
		for i := range perC {
			if i < len(Xl) {
				perC[i] = labeledC
			} else {
				perC[i] = cStar
			}
		}
		c := cfg.SVC
		c.PerSampleC = perC
		m, err := trainer.TrainSVC(X, y, c)
		if err != nil {
			return err
		}
		model = m
		stats.Retrains++
		return nil
	}
	if err := train(); err != nil {
		return nil, stats, err
	}

	for cStar < labeledC && stats.Retrains < cfg.MaxRetrains {
		// Inner loop: switch margin-violating opposite pairs.
		for stats.Retrains < cfg.MaxRetrains {
			// slack of unlabeled example i under its tentative label
			slack := make([]float64, len(Xu))
			for i, x := range Xu {
				d := model.Decision(x)
				if !yu[i] {
					d = -d
				}
				slack[i] = math.Max(0, 1-d)
			}
			// Find the most violating positive/negative pair.
			bi, bj := -1, -1
			for i := range Xu {
				if !yu[i] || slack[i] <= 0 {
					continue
				}
				for j := range Xu {
					if yu[j] || slack[j] <= 0 {
						continue
					}
					if slack[i]+slack[j] > 2.001 {
						if bi == -1 || slack[i]+slack[j] > slack[bi]+slack[bj] {
							bi, bj = i, j
						}
					}
				}
			}
			if bi == -1 {
				break
			}
			yu[bi], yu[bj] = false, true
			stats.Switches++
			if err := train(); err != nil {
				return nil, stats, err
			}
		}
		cStar = math.Min(labeledC, 2*cStar)
		if err := train(); err != nil {
			return nil, stats, err
		}
	}

	stats.Elapsed = time.Since(start)
	return model, stats, nil
}
