package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/dataset"
)

// One shared tiny environment: building it trains the perceptual space,
// which dominates test time.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(TinyOptions())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fillDefaults()
	if o.Scale.Items == 0 || o.SpaceDims == 0 || o.Repetitions == 0 || o.Table4Repetitions == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	small := Options{SampleSize: 5000, Scale: dataset.ScaleTiny}
	small.fillDefaults()
	if small.SampleSize != dataset.ScaleTiny.Items {
		t.Fatalf("sample must clamp to item count, got %d", small.SampleSize)
	}
}

func TestEnvConstruction(t *testing.T) {
	e := tinyEnv(t)
	if e.Space.NumItems() != dataset.ScaleTiny.Items {
		t.Fatalf("space items = %d", e.Space.NumItems())
	}
	if e.MetaSpace.NumItems() != dataset.ScaleTiny.Items {
		t.Fatalf("meta space items = %d", e.MetaSpace.NumItems())
	}
	if len(e.Sample) != 250 {
		t.Fatalf("sample = %d", len(e.Sample))
	}
	if e.SpaceRMSE <= 0 || e.SpaceRMSE > 1.5 {
		t.Fatalf("space RMSE = %v", e.SpaceRMSE)
	}
}

func TestTable1Shape(t *testing.T) {
	e := tinyEnv(t)
	res, err := e.RunCrowdExperiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != 3 {
		t.Fatalf("experiments = %d", len(res.Experiments))
	}
	exp1, exp2, exp3 := res.Experiments[0], res.Experiments[1], res.Experiments[2]

	// The paper's ordering: accuracy Exp1 < Exp2 < Exp3.
	if !(exp1.PctCorrect() < exp2.PctCorrect() && exp2.PctCorrect() < exp3.PctCorrect()) {
		t.Fatalf("accuracy ordering violated: %.3f, %.3f, %.3f",
			exp1.PctCorrect(), exp2.PctCorrect(), exp3.PctCorrect())
	}
	// Bands around the paper's 59.7% / 79.4% / 93.5%.
	if exp1.PctCorrect() < 0.45 || exp1.PctCorrect() > 0.72 {
		t.Fatalf("Exp1 accuracy %.3f outside band", exp1.PctCorrect())
	}
	if exp2.PctCorrect() < 0.68 || exp2.PctCorrect() > 0.90 {
		t.Fatalf("Exp2 accuracy %.3f outside band", exp2.PctCorrect())
	}
	if exp3.PctCorrect() < 0.85 {
		t.Fatalf("Exp3 accuracy %.3f outside band", exp3.PctCorrect())
	}
	// Coverage: Exp2 classifies fewer movies than Exp1 (honest workers
	// admit ignorance); Exp3 classifies the most (lookup always answers).
	if exp2.Classified >= exp1.Classified {
		t.Fatalf("Exp2 coverage %d should undercut Exp1 %d", exp2.Classified, exp1.Classified)
	}
	if exp3.Classified <= exp2.Classified {
		t.Fatalf("Exp3 coverage %d should exceed Exp2 %d", exp3.Classified, exp2.Classified)
	}
	// Time: the lookup task is several times slower.
	if exp3.Run.DurationMinutes < 3*exp1.Run.DurationMinutes {
		t.Fatalf("Exp3 should be much slower: %.0f vs %.0f min",
			exp3.Run.DurationMinutes, exp1.Run.DurationMinutes)
	}
	// Cost: Exp3 pays more per HIT.
	if exp3.Run.TotalCost <= exp1.Run.TotalCost {
		t.Fatalf("Exp3 cost $%.2f should exceed Exp1 $%.2f",
			exp3.Run.TotalCost, exp1.Run.TotalCost)
	}

	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 1") || !strings.Contains(buf.String(), "Exp 3: Lookup") {
		t.Fatalf("render output:\n%s", buf.String())
	}
}

func TestFiguresShape(t *testing.T) {
	e := tinyEnv(t)
	t1, err := e.RunCrowdExperiments()
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.RunBoostExperiments(t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs.Series) != 3 {
		t.Fatalf("series = %d", len(figs.Series))
	}
	for _, s := range figs.Series {
		if len(s.Points) < 5 {
			t.Fatalf("%s has only %d checkpoints", s.Name, len(s.Points))
		}
		// Costs and times must be non-decreasing.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Cost < s.Points[i-1].Cost || s.Points[i].Minute < s.Points[i-1].Minute {
				t.Fatalf("%s: non-monotonic axis", s.Name)
			}
		}
		// The final boosted classification must cover and outperform the
		// crowd when training quality allows; at minimum it classifies
		// every movie, which the raw crowd never achieves in Exp 1/2.
		if s.FinalBoostCorrect == 0 {
			t.Fatalf("%s: boost never trained", s.Name)
		}
	}
	// Early advantage (the paper's headline): after ~15% of the runtime
	// the boosted pipeline beats the raw crowd's correct count in the
	// honest-worker experiment (Exp 5 boosts Exp 2).
	s5 := figs.Series[1]
	var early *BoostPoint
	for i := range s5.Points {
		if s5.Points[i].RelTime >= 0.15 {
			early = &s5.Points[i]
			break
		}
	}
	if early == nil {
		t.Fatal("no early checkpoint")
	}
	if early.BoostCorrect <= early.CrowdCorrect {
		t.Fatalf("early boost %d should beat early crowd %d", early.BoostCorrect, early.CrowdCorrect)
	}

	var buf bytes.Buffer
	figs.RenderFigure3(&buf)
	figs.RenderFigure4(&buf)
	if !strings.Contains(buf.String(), "Figure 3") || !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("figure rendering broken")
	}
}

// The same env and seed give the same figures and Table 3, run after run.
func TestArtifactsDeterministic(t *testing.T) {
	e := tinyEnv(t)
	t1, err := e.RunCrowdExperiments()
	if err != nil {
		t.Fatal(err)
	}
	var figs [2]*FiguresResult
	var t3 [2]*Table3Result
	for i := range figs {
		if figs[i], err = e.RunBoostExperiments(t1); err != nil {
			t.Fatal(err)
		}
		if t3[i], err = e.RunTable3(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(figs[0], figs[1]) {
		t.Error("two runs of Figures 3/4 differ")
	}
	if !reflect.DeepEqual(t3[0], t3[1]) {
		t.Error("two runs of Table 3 differ")
	}
}

func TestTable2Shape(t *testing.T) {
	e := tinyEnv(t)
	res, err := e.RunTable2(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lists) != 3 {
		t.Fatalf("lists = %d", len(res.Lists))
	}
	totalHits := 0
	for _, l := range res.Lists {
		if len(l.Neighbors) != 5 {
			t.Fatalf("%s has %d neighbours", l.Anchor, len(l.Neighbors))
		}
		totalHits += l.GroupHits
	}
	// Across the three anchors, the majority of neighbours should come
	// from the anchor's own franchise/style group (paper: all of them).
	if totalHits < 8 {
		t.Fatalf("group hits = %d of 15, expected >= 8", totalHits)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Rocky (1976)") {
		t.Fatal("render missing anchor")
	}
}

func TestTable3Shape(t *testing.T) {
	e := tinyEnv(t)
	res, err := e.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Perceptual g-mean must grow with n and beat the metadata space,
	// which must hover near or below random (overfitting).
	for si := range SampleSizes {
		if res.MeanPerceptual[si] <= res.MeanMetadata[si] {
			t.Fatalf("n=%d: perceptual %.3f must beat metadata %.3f",
				SampleSizes[si], res.MeanPerceptual[si], res.MeanMetadata[si])
		}
	}
	if res.MeanPerceptual[2] <= res.MeanPerceptual[0]-0.02 {
		t.Fatalf("perceptual g-mean should not degrade with n: %.3f → %.3f",
			res.MeanPerceptual[0], res.MeanPerceptual[2])
	}
	if res.MeanPerceptual[2] < 0.55 {
		t.Fatalf("perceptual g-mean at n=40 = %.3f, too low", res.MeanPerceptual[2])
	}
	if res.MeanMetadata[2] > 0.62 {
		t.Fatalf("metadata g-mean at n=40 = %.3f, suspiciously high", res.MeanMetadata[2])
	}
	// Experts sit in the paper's band and above the space.
	for _, g := range res.MeanExpert {
		if g < 0.85 || g > 1.0 {
			t.Fatalf("expert g-mean %.3f outside band", g)
		}
		if g <= res.MeanPerceptual[2] {
			t.Fatalf("experts (%.3f) must beat the space (%.3f)", g, res.MeanPerceptual[2])
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 3") || !strings.Contains(buf.String(), "Comedy") {
		t.Fatal("render broken")
	}
}

func TestTable4Shape(t *testing.T) {
	e := tinyEnv(t)
	res, err := e.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Perceptual space: precision grows with the swap rate (more true
	// positives to find); recall stays high; metadata is far worse.
	mp := res.MeanPerceptual
	if !(mp[0].Precision < mp[2].Precision) {
		t.Fatalf("precision should grow with x: %.3f → %.3f", mp[0].Precision, mp[2].Precision)
	}
	if mp[2].Recall < 0.5 {
		t.Fatalf("recall at x=20%% = %.3f, too low", mp[2].Recall)
	}
	for xi := range SwapRates {
		if res.MeanMetadata[xi].Recall >= mp[xi].Recall {
			t.Fatalf("x=%.0f%%: metadata recall %.3f must trail perceptual %.3f",
				100*SwapRates[xi], res.MeanMetadata[xi].Recall, mp[xi].Recall)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 4") {
		t.Fatal("render broken")
	}
}

func TestTables5And6Shape(t *testing.T) {
	opt := TinyOptions()
	t5, err := RunTable5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if t5.Domain != "restaurants" || len(t5.Rows) != 10 {
		t.Fatalf("t5 = %s, %d rows", t5.Domain, len(t5.Rows))
	}
	t6, err := RunTable6(opt)
	if err != nil {
		t.Fatal(err)
	}
	if t6.Domain != "boardgames" || len(t6.Rows) != 20 {
		t.Fatalf("t6 = %s, %d rows", t6.Domain, len(t6.Rows))
	}
	for _, d := range []*DomainResult{t5, t6} {
		// g-mean grows with n on average.
		if d.Mean[2] < d.Mean[0] {
			t.Fatalf("%s: mean g-mean should grow with n: %v", d.Domain, d.Mean)
		}
		// Perceptual categories extract better than factual ones.
		p, f := d.PerceptualVsFactualMeans()
		if p <= f {
			t.Fatalf("%s: perceptual %.3f must beat factual %.3f", d.Domain, p, f)
		}
		var buf bytes.Buffer
		d.Render(&buf)
		if !strings.Contains(buf.String(), "g-mean") {
			t.Fatal("render broken")
		}
	}
}

func TestTSVMComparisonShape(t *testing.T) {
	e := tinyEnv(t)
	res, err := e.RunTSVMComparison("Comedy", 20)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy roughly equal (±0.12 at tiny scale), runtime much larger.
	if res.TSVMGMean < res.SVMGMean-0.12 {
		t.Fatalf("TSVM g-mean %.3f far below SVM %.3f", res.TSVMGMean, res.SVMGMean)
	}
	if res.SlowdownFactor() < 3 {
		t.Fatalf("TSVM slowdown %.1fx, expected substantial", res.SlowdownFactor())
	}
	if res.TSVMRetrains < 2 {
		t.Fatalf("TSVM retrains = %d", res.TSVMRetrains)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "TSVM") {
		t.Fatal("render broken")
	}
	if _, err := e.RunTSVMComparison("NoSuch", 10); err == nil {
		t.Fatal("unknown genre must fail")
	}
	if _, err := e.RunTSVMComparison("Horror", 100000); err == nil {
		t.Fatal("oversized n must fail")
	}
}

func TestConsensusShape(t *testing.T) {
	e := tinyEnv(t)
	res, err := e.RunConsensus(1500)
	if err != nil {
		t.Fatal(err)
	}
	// The space must correlate positively and substantially with the
	// consensus, in the same regime as individual users (paper: 0.52 vs
	// 0.55).
	if res.SpaceVsConsensus < 0.3 {
		t.Fatalf("space consensus r = %.3f, too low", res.SpaceVsConsensus)
	}
	if res.UserVsConsensus < 0.4 || res.UserVsConsensus > 0.95 {
		t.Fatalf("user consensus r = %.3f outside plausible band", res.UserVsConsensus)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "consensus") {
		t.Fatal("render broken")
	}
}
