package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// BoostPoint is one checkpoint of Experiments 4–6: the crowd's progress at
// a moment in time, and the perceptual-space-boosted classification built
// from the crowd's labels collected so far.
type BoostPoint struct {
	// Minute is the absolute simulated time of the checkpoint.
	Minute float64
	// RelTime is Minute divided by the experiment's total duration
	// (Figure 3's x-axis).
	RelTime float64
	// Cost is the money spent up to the checkpoint (Figure 4's x-axis).
	Cost float64
	// CrowdCorrect counts sample movies the raw crowd majority has
	// classified correctly so far.
	CrowdCorrect int
	// BoostCorrect counts sample movies classified correctly by the SVM
	// trained on the crowd labels so far (always covering all movies).
	BoostCorrect int
	// TrainSize is the SVM's training-set size at the checkpoint.
	TrainSize int
}

// BoostSeries is one experiment's trajectory (Exp 4 boosts Exp 1's
// judgments, Exp 5 boosts Exp 2's, Exp 6 boosts Exp 3's).
type BoostSeries struct {
	Name   string
	Source string // the underlying §4.1 experiment
	Points []BoostPoint
	// FinalCrowdCorrect / FinalBoostCorrect snapshot the end state.
	FinalCrowdCorrect int
	FinalBoostCorrect int
}

// FiguresResult holds the data behind Figure 3 (over time) and Figure 4
// (over money).
type FiguresResult struct {
	Series     []*BoostSeries
	SampleSize int
}

// RunBoostExperiments reproduces Experiments 4–6 (§4.2): every few
// simulated minutes core expands the sample's Comedy column twice from the
// crowd's judgments so far — CROWD, the raw majority, and SPACE, an SVM
// trained on that majority that classifies every sample movie from its
// perceptual-space coordinates, fixing labeling errors and covering even
// movies no worker knows.
func (e *Env) RunBoostExperiments(t1 *Table1Result) (*FiguresResult, error) {
	out := &FiguresResult{SampleSize: t1.SampleSize}
	for i, ex := range t1.Experiments {
		series, err := e.boostSeries(fmt.Sprintf("Exp %d", i+4), ex)
		if err != nil {
			return nil, err
		}
		out.Series = append(out.Series, series)
	}
	return out, nil
}

// checkpoints returns the evaluation time grid: the paper retrains every
// 5 minutes; to bound SMO work on long runs the grid is capped at 24
// checkpoints (the paper's Figure 3 is plotted on relative time anyway).
func checkpoints(duration float64) []float64 {
	step := 5.0
	if duration/step > 24 {
		step = duration / 24
	}
	var ts []float64
	for t := step; t < duration; t += step {
		ts = append(ts, t)
	}
	ts = append(ts, duration)
	return ts
}

// replay is the JudgmentService of a checkpoint: whatever it is asked, it
// serves the judgments of a finished run up to minute at, and the money
// the run had cost by then, as a batch of one copied into the caller's.
type replay struct {
	run *crowd.RunResult
	cfg crowd.JobConfig
	at  float64
}

func (r *replay) Collect(_ []core.BatchRequest, _ crowd.JobConfig, into *crowd.BatchResult) error {
	recs := r.run.Records // sorted by time
	n := sort.Search(len(recs), func(i int) bool { return recs[i].Time > r.at })
	run := &crowd.RunResult{Records: recs[:n], DurationMinutes: r.at, TotalCost: r.run.CostAt(r.at, r.cfg)}
	into.CopyFrom(&crowd.BatchResult{Combined: run, PerQuestion: []*crowd.RunResult{run}})
	return nil
}

func (e *Env) boostSeries(name string, ex *CrowdExperiment) (*BoostSeries, error) {
	series := &BoostSeries{Name: name, Source: ex.Name}
	truth := e.U.Categories[Question].Reference
	svc := &replay{run: ex.Run, cfg: ex.Cfg}
	db, err := openItemDB(svc, e.Space, e.Sample, nil)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// SPACE trains on every sample movie that has a majority: its plan
	// takes all n of them once the sample per class reaches n.
	crowdOpts := core.ExpandOptions{Method: sqlparse.ExpandCrowd}
	spaceOpts := core.ExpandOptions{Method: sqlparse.ExpandSpace, SamplesPerClass: len(e.Sample)}

	for _, t := range checkpoints(ex.Run.DurationMinutes) {
		svc.at = t
		point := BoostPoint{Minute: t, RelTime: t / ex.Run.DurationMinutes}
		rep, err := db.Expand("movies", Question, storage.KindBool, crowdOpts)
		if err != nil {
			return nil, fmt.Errorf("%s at minute %.1f: %w", name, t, err)
		}
		point.Cost = rep.Cost
		if point.TrainSize, point.CrowdCorrect, err = scoreColumn(db, Question, truth); err != nil {
			return nil, err
		}
		// A log holding one class so far trains nothing: no boost yet.
		if _, err := db.Expand("movies", Question, storage.KindBool, spaceOpts); err == nil {
			if _, point.BoostCorrect, err = scoreColumn(db, Question, truth); err != nil {
				return nil, err
			}
		} else if !errors.Is(err, core.ErrSingleClass) {
			return nil, fmt.Errorf("%s at minute %.1f: %w", name, t, err)
		}
		series.Points = append(series.Points, point)
	}
	last := series.Points[len(series.Points)-1]
	series.FinalCrowdCorrect, series.FinalBoostCorrect = last.CrowdCorrect, last.BoostCorrect
	e.logf("%s (boosting %s): final crowd %d vs boosted %d correct",
		name, ex.Name, series.FinalCrowdCorrect, series.FinalBoostCorrect)
	return series, nil
}

// RenderFigure3 prints the correctly-classified-over-relative-time series.
func (f *FiguresResult) RenderFigure3(w io.Writer) {
	fmt.Fprintf(w, "Figure 3. Correctly classified movies over time (sample=%d)\n", f.SampleSize)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%s (boosting %s):\n", s.Name, s.Source)
		fmt.Fprintf(w, "  %8s %8s %12s %12s %10s\n", "rel.time", "minute", "crowd-corr", "boost-corr", "train")
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %8.2f %8.1f %12d %12d %10d\n",
				p.RelTime, p.Minute, p.CrowdCorrect, p.BoostCorrect, p.TrainSize)
		}
	}
}

// RenderFigure4 prints the correctly-classified-over-money series.
func (f *FiguresResult) RenderFigure4(w io.Writer) {
	fmt.Fprintf(w, "Figure 4. Correctly classified movies over money spent (sample=%d)\n", f.SampleSize)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%s (boosting %s):\n", s.Name, s.Source)
		fmt.Fprintf(w, "  %10s %12s %12s\n", "cost($)", "crowd-corr", "boost-corr")
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %10.2f %12d %12d\n", p.Cost, p.CrowdCorrect, p.BoostCorrect)
		}
	}
}
